"""Command-line front end: reproducible atlas, portrait, and connection runs.

Every run resolves to a configuration that is echoed into each artifact it
writes (CSV ``#`` header, JSON ``config`` object, SVG ``<desc>``), so any
output file identifies the run that produced it and re-running with the same
configuration reproduces the same bytes.  File schemas are documented in
FORMAT.md and in each subcommand's ``--help``.

Exit codes: 0 success; 2 validation error (malformed flags or config,
parameters outside their domain, I/O problems); 3 numerical failure
(integration breakdown, bracket without sign change, non-convergent fit).
"""
from __future__ import annotations

import argparse
import csv as _csvmod
import io
import json
import math
import sys
from itertools import groupby, islice
from pathlib import Path

from . import __version__
# the layers are imported by the commands that run them, so that start-up,
# --help and flag errors load only the model
from .model import (
    REFERENCE_BASE,
    TOL_RANGE,
    BaseParams,
    ModelParams,
    _Record,
    invariant_region_bound,
    r0_of,
    reduced_to_params,
)

_FORMATS = ("csv", "json", "svg")


# ----------------------------------------------------------------------
# run configuration and artifact writers


def _compact(config: dict) -> str:
    """The run's configuration on one line, as echoed into CSV and SVG."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _csv_text(rows):
    """Text of ``rows`` (any iterable of tuples) as ``csv.writer`` writes
    them, lines ended by LF, in chunks of 512 rows: no file is held whole."""
    buf = io.StringIO()
    writer = _csvmod.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while batch := list(islice(rows, 512)):
        writer.writerows(batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _write_csv(path: Path, config: dict, columns, body) -> None:
    """The ``# sirbif`` and ``# config`` lines, the header row, then
    ``body``: the data rows as text chunks, written as they come."""
    with path.open("w") as fh:
        fh.write(f"# sirbif {__version__}\n# config {_compact(config)}\n")
        fh.writelines(_csv_text([columns]))
        fh.writelines(body)


def _write_json(path: Path, config: dict, payload: dict) -> None:
    doc = dict(payload)
    doc["config"] = config
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit(ns, config: dict, artifacts) -> None:
    """Write the artifacts whose format was selected, in the given order.

    ``artifacts`` holds ``(file name, producer)`` pairs and the file suffix
    picks the writer: a ``.csv`` producer returns ``(columns, body)``, the
    body being the data rows as text chunks (``_csv_text`` of tuple rows),
    a ``.json`` producer the payload and an ``.svg`` producer a Canvas.  The
    producer of a file that is not written never runs.
    """
    fmts = _formats(ns)
    outdir = Path(ns.out) if ns.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, produce in artifacts:
        kind = name.rsplit(".", 1)[-1]
        if kind not in fmts:
            continue
        path = outdir / name
        if kind == "csv":
            _write_csv(path, config, *produce())
        elif kind == "json":
            _write_json(path, config, produce())
        else:
            path.write_text(produce().render())
        print(f"wrote {path}")


# ----------------------------------------------------------------------
# parameter plumbing


def _resolve_base(ns) -> BaseParams:
    base = BaseParams(A=ns.A, m=ns.m, mu=ns.mu, d=ns.d, g=ns.g)
    # every curve scales with the saddle-node value p_sn = A^2/(4m)
    if not math.isfinite(base.A * base.A / (4.0 * base.m)):
        raise ValueError(f"--A {base.A!r} is too large for --m {base.m!r}: "
                         "the saddle-node value A^2/(4m) overflows")
    return base


def _check_beta(flag: str, value: float, base: BaseParams) -> None:
    """Refuse the beta that ``flag value`` sets (an r0 flag through r0
    (sigma+g)/A) when beta^2 (sigma+g), E2's divisor, under- or overflows."""
    beta = value if flag == "--beta" else base.beta_at(value)
    if not sys.float_info.min <= beta * beta * base.removal < math.inf:
        what = ("is" if flag == "--beta"
                else f"puts beta = r0 (sigma+g)/A = {beta!r}")
        raise ValueError(f"{flag} {value!r} {what} out of range: "
                         "beta^2 (sigma+g) underflows or overflows")


def _resolve_params(ns) -> ModelParams:
    base = _resolve_base(ns)
    if ns.beta is not None:
        params = ModelParams(A=ns.A, beta=ns.beta, m=ns.m, mu=ns.mu, d=ns.d,
                             g=ns.g, p=ns.p)
        _check_beta("--beta", ns.beta, base)
        return params
    if ns.r0 is not None:
        params = reduced_to_params(ns.r0, ns.p, base)
        _check_beta("--r0", ns.r0, base)
        return params
    raise ValueError("give either --beta or --r0 to fix the transmission rate")


def _formats(ns) -> tuple:
    chosen = ns.format or list(_FORMATS)
    return tuple(f for f in _FORMATS if f in chosen)


def _effective_tol(ns, default: float) -> float:
    return default if ns.tol is None else ns.tol


def _config_for(ns, command: str, extra: dict, tol=None) -> dict:
    """The run's configuration; ``tol`` is set only if the run integrates."""
    settings = {"jobs": ns.jobs, "formats": list(_formats(ns))}
    if tol is not None:
        settings["tol"] = tol
    settings.update(extra)
    return {"command": command, "tool": "sirbif", "version": __version__,
            "settings": settings}


# ----------------------------------------------------------------------
# equilibria


def _eig_text(eq) -> str:
    parts = []
    for lam in eq.eigenvalues:
        if lam.imag == 0.0:
            parts.append(repr(lam.real))
        else:
            parts.append(f"{lam.real!r} {'+' if lam.imag >= 0 else '-'} "
                         f"{abs(lam.imag)!r}i")
    return ", ".join(parts)


def cmd_equilibria(ns) -> int:
    from .atlas import p_sn
    from .equilibria import StabilityClass, disease_free, endemic

    params = _resolve_params(ns)
    config = _config_for(ns, "equilibria", {"params": params.to_dict()})

    dfe = disease_free(params)
    e2 = endemic(params)
    print(f"parameters: A={params.A!r} beta={params.beta!r} m={params.m!r} "
          f"mu={params.mu!r} d={params.d!r} g={params.g!r} p={params.p!r}")
    print(f"R0 = {r0_of(params)!r}")
    if not dfe:
        print(f"no disease-free equilibria (p = {params.p!r} exceeds "
              f"p_SN = {p_sn(2.0, params.base)!r})")
    rows = []
    for eq in [*dfe, e2]:
        rows.append((eq.ident, eq.S, eq.I,
                     eq.eigenvalues[0].real, eq.eigenvalues[0].imag,
                     eq.eigenvalues[1].real, eq.eigenvalues[1].imag,
                     eq.stability.value))
        if eq.stability is StabilityClass.NONEXISTENT:
            print(f"{eq.ident}: not interior (formal location S={eq.S!r} "
                  f"I={eq.I!r})")
        else:
            print(f"{eq.ident}: S={eq.S!r} I={eq.I!r} [{eq.stability.value}] "
                  f"eigenvalues {_eig_text(eq)}")

    if ns.out is not None:
        _emit(ns, config, [
            ("equilibria.csv", lambda: (("id", "S", "I", "eig1_re", "eig1_im",
                                         "eig2_re", "eig2_im", "class"),
                                        _csv_text(rows))),
            ("equilibria.json", lambda: {
                "r0": r0_of(params),
                "equilibria": [eq.to_json_dict() for eq in [*dfe, e2]],
            }),
        ])
    return 0


# ----------------------------------------------------------------------
# dz certificate


def cmd_dz(ns) -> int:
    from .atlas import curve_values_at, dz_point

    base = _resolve_base(ns)
    config = _config_for(ns, "dz", {"base": base.to_dict()})
    cert = dz_point(base)
    r0s, ps = cert.point
    curves = curve_values_at(r0s, base)
    sn = curves["sn"]
    conc = {"p_sn": sn, "dev_t": abs(sn - curves["t"]),
            "dev_h": abs(sn - curves["h"]), "dev_bt2": abs(sn - curves["bt2"])}
    jac = [list(row) for row in cert.jacobian]
    print(f"double-zero point: (R0, p) = ({r0s!r}, {ps!r})")
    print(f"E2 location there: S={cert.location[0]!r} I={cert.location[1]!r}")
    print(f"Jacobian: {jac!r}")
    print(f"expected: {[list(row) for row in cert.expected]!r}")
    print(f"max entry error: {cert.max_entry_error!r}")
    print(f"eigenvalue moduli: {list(cert.eig_moduli)!r}")
    print(f"curve concurrence at R0=2: p_SN={conc['p_sn']!r} "
          f"|p_SN-p_T|={conc['dev_t']!r} |p_SN-p_H|={conc['dev_h']!r} "
          f"|p_SN-p_Bt2|={conc['dev_bt2']!r}")
    print(f"certificate ok: {cert.ok}")
    if ns.out is not None:
        _emit(ns, config, [("dz.json", lambda: {
            "point": {"r0": r0s, "p": ps},
            "location": {"S": cert.location[0], "I": cert.location[1]},
            "jacobian": jac,
            "max_entry_error": cert.max_entry_error,
            "eig_moduli": list(cert.eig_moduli),
            "endemic_location_error": cert.endemic_location_error,
            "concurrence": conc,
            "ok": cert.ok,
        })])
    return 0 if cert.ok else 3


# ----------------------------------------------------------------------
# atlas


_CURVE_COLUMNS = ("sn", "t", "h", "bt1", "bt2", "het")


def _axis(lo: float, hi: float, n: int) -> list:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _region_label_anchors(base: BaseParams, het) -> list:
    """(label, r0, p) anchors for the open regions, computed from the curves
    so they stay inside their bands under any base."""
    from .atlas import p_bt2, p_h, p_sn, p_t

    def mid(lo, hi):
        return 0.5 * (lo + hi)

    return [
        ("A", 2.2, mid(p_sn(2.2, base), min(1.0, 1.12 * p_sn(2.2, base)))),
        ("B", 1.55, mid(p_t(1.55, base), p_sn(1.55, base))),
        ("C", 1.16, 0.45 * p_t(1.16, base)),
        ("D", 2.35, 0.5 * het(2.35)),
        ("E", 3.0, mid(het(3.0), p_h(3.0, base))),
        ("F", 2.8, mid(p_h(2.8, base), p_bt2(2.8, base))),
        ("G", 3.2, mid(p_bt2(3.2, base), p_t(3.2, base))),
        ("H", 3.0, mid(p_t(3.0, base), p_sn(3.0, base))),
    ]


def _atlas_svg(base: BaseParams, curves: dict, het, config: dict,
               window) -> Canvas:
    from .atlas import p_sn
    from .svgplot import PALETTE, Canvas

    r0_min, r0_max, p_min, p_max = window
    canvas = Canvas(720, 540, (r0_min, r0_max), (p_min, p_max),
                    title="(R0, p) bifurcation atlas", desc=_compact(config))
    # no bt1: the second node-focus root is negative throughout the window
    names = {"sn": "saddle-node", "t": "transcritical", "h": "Hopf",
             "bt2": "node-focus", "het": "heteroclinic"}
    for key in names:
        dash = "6,3" if key in ("bt2", "het") else ""
        canvas.polyline(curves[key], PALETTE[key], width=1.8, dash=dash)
    dz_r0, dz_p = 2.0, p_sn(2.0, base)
    if r0_min <= dz_r0 <= r0_max and p_min <= dz_p <= p_max:
        canvas.marker(dz_r0, dz_p, "filled", PALETTE["axis"], size=5.0)
        canvas.text(dz_r0, dz_p, "DZ", dy=-9.0, bold=True)
    for label, r0a, pa in _region_label_anchors(base, het):
        if r0_min < r0a < r0_max and p_min < pa < p_max:
            canvas.text(r0a, pa, label, size=13, bold=True)
    ticks_r0 = [t for t in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
                if r0_min <= t <= r0_max]
    ticks_p = [t for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
               if p_min <= t <= p_max]
    canvas.axes("R0", "p", ticks_r0, ticks_p)
    canvas.legend([(name, PALETTE[k]) for k, name in names.items()])
    return canvas


def cmd_atlas(ns) -> int:
    from .atlas import classify_column, curve_values_at, p_sn
    from .connections import fit_reference_curve

    base = _resolve_base(ns)
    if not (0.0 < ns.r0_min < ns.r0_max < math.inf
            and 0.0 <= ns.p_min < ns.p_max <= 1.0):
        raise ValueError("atlas window must satisfy 0 < r0-min < r0-max "
                         "(finite) and 0 <= p-min < p-max <= 1")
    if ns.samples < 2 or ns.grid < 2:
        raise ValueError("--samples and --grid must be at least 2")
    ends = (("--r0-min", ns.r0_min), ("--r0-max", ns.r0_max))
    for flag, r0 in ends:
        _check_beta(flag, r0, base)
    het = fit_reference_curve()
    config = _config_for(ns, "atlas", {
        "base": base.to_dict(),
        "window": [ns.r0_min, ns.r0_max, ns.p_min, ns.p_max],
        "samples": ns.samples, "grid": ns.grid,
    })

    rows = [(r0, *map(curve_values_at(r0, base, het=het).get, _CURVE_COLUMNS))
            for r0 in _axis(ns.r0_min, ns.r0_max, ns.samples)]
    for (flag, r0), row in zip(ends, (rows[0], rows[-1])):
        bad = [name for name, value in zip(_CURVE_COLUMNS, row[1:])
               if value is not None and not math.isfinite(value)]
        if bad:
            raise ValueError(f"{flag} {r0!r} is out of range: the curve "
                             f"values {', '.join(bad)} there are not finite")

    def regions():
        # the rows csv.writer would write: a float as its repr, no cell
        # quoted; one join per run of equal labels, one chunk per column
        ps = _axis(ns.p_min, ns.p_max, ns.grid)
        p_txt = [repr(p) for p in ps]
        for r0 in _axis(ns.r0_min, ns.r0_max, ns.grid):
            head, j, runs = repr(r0) + ",", 0, []
            for label, run in groupby(classify_column(r0, ps, base, het=het)):
                k = j + len(list(run))
                tail = "," + label.value + "\n"
                runs.append(head + (tail + head).join(p_txt[j:k]) + tail)
                j = k
            yield "".join(runs)

    curves = {key: [[row[0], row[1 + idx]] for row in rows
                    if row[1 + idx] is not None]
              for idx, key in enumerate(_CURVE_COLUMNS)}
    _emit(ns, config, [
        ("atlas_curves.csv", lambda: (("r0", "p_sn", "p_t", "p_h", "p_bt1",
                                       "p_bt2", "p_het"), _csv_text(rows))),
        ("atlas_regions.csv", lambda: (("r0", "p", "label"), regions())),
        ("atlas.json", lambda: {"dz": {"r0": 2.0, "p": p_sn(2.0, base)},
                                "curves": curves}),
        ("atlas.svg", lambda: _atlas_svg(
            base, curves, het, config,
            (ns.r0_min, ns.r0_max, ns.p_min, ns.p_max))),
    ])
    return 0


# ----------------------------------------------------------------------
# portraits


#: the het pack's legs run for this many periods 2*pi/omega of E2's focus
_HET_LEG_TURNS = 8


class PortraitPack(_Record):
    region: str
    params: ModelParams
    n_boundary: int
    n_ring: int
    note: str


def _builtin_packs() -> dict:
    from .connections import fit_reference_curve

    base = REFERENCE_BASE
    het = fit_reference_curve()

    def red(r0, p):
        return reduced_to_params(r0, p, base)

    return {
        "A": PortraitPack("A", red(2.6, 0.90), 20, 0,
                          "beyond the saddle-node: no equilibria off the wall"),
        "B": PortraitPack("B", ModelParams(A=1.0, beta=1.3, m=0.35, mu=0.25,
                                           d=0.25, g=0.50, p=0.61), 20, 0,
                          "disease-free window (A=1, beta=1.3, sigma=g=0.50)"),
        "C": PortraitPack("C", ModelParams(A=1.1, beta=0.91, m=0.35, mu=0.175,
                                           d=0.175, g=0.35, p=0.60), 12, 8,
                          "stable endemic node (beta=0.91)"),
        "D": PortraitPack("D", red(2.6, 0.30), 12, 8, "stable endemic focus"),
        "E": PortraitPack("E", red(2.6, 0.48), 12, 8,
                          "stable focus ringed by the unstable cycle"),
        "F": PortraitPack("F", red(2.6, 0.60), 12, 8, "unstable endemic focus"),
        "G": PortraitPack("G", red(2.6, 0.805), 12, 8, "unstable endemic node"),
        "H": PortraitPack("H", red(2.6, 0.84), 20, 0,
                          "endemic equilibrium gone; extinction window"),
        "het": PortraitPack("het", red(2.6, round(het(2.6), 6)), 12, 8,
                            "near the saddle-to-saddle connection"),
    }


def _marker_kind(eq) -> str:
    from .equilibria import StabilityClass

    if eq.stability in (StabilityClass.SINK_NODE, StabilityClass.SINK_FOCUS):
        return "filled"
    if eq.stability is StabilityClass.SADDLE:
        return "saddle"
    return "open"


def _downsample(n: int, limit: int) -> list:
    stride = max(1, -(-n // limit))
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def _phase_figure(params: ModelParams, title: str, config: dict, paths,
                  *, start=None, labels: bool = True) -> Canvas:
    """(S, I) phase plane: the dashed invariant wedge, every path of
    ``paths`` as ``(path, sample cap, colour, width, opacity)``, an optional
    open start marker (left out when the start lies outside the frame), the
    equilibrium markers (named when ``labels``) and the axes."""
    from .equilibria import StabilityClass, disease_free, endemic
    from .svgplot import PALETTE, Canvas

    A, bound = params.A, invariant_region_bound(params)
    xlim, ylim = (-0.02 * A, 1.04 * A), (-0.02 * bound, 1.02 * bound)
    canvas = Canvas(560, 520, xlim, ylim, title=title, desc=_compact(config))
    canvas.polyline([(0.0, 0.0), (A, 0.0), (A, bound - A), (0.0, bound),
                     (0.0, 0.0)], PALETTE["boundary"], width=1.0, dash="4,3")
    for path, cap, color, width, opacity in paths:
        idx = _downsample(len(path.t), cap)
        canvas.polyline([path.states[i] for i in idx],
                        color, width=width, opacity=opacity)
    if (start is not None and xlim[0] <= start[0] <= xlim[1]
            and ylim[0] <= start[1] <= ylim[1]):
        canvas.marker(*start, "open", PALETTE["axis"], size=3.5)
    for eq in [*disease_free(params), endemic(params)]:
        if eq.stability is StabilityClass.NONEXISTENT:
            continue
        canvas.marker(eq.S, eq.I, _marker_kind(eq), PALETTE["axis"])
        if labels:
            canvas.text(eq.S, eq.I, eq.ident, dy=-8.0, size=10)
    sx = [t for t in (0.0, 0.25, 0.5, 0.75, 1.0) if t <= 1.04 * A]
    sy = [round(bound * f, 2) for f in (0.0, 0.5, 1.0)]
    canvas.axes("S", "I", sx, sy)
    return canvas


def _run_portrait(pack: PortraitPack, ns, tol: float) -> None:
    from .atlas import region_fan
    from .connections import find_periodic_orbit
    from .equilibria import disease_free, endemic
    from .integrate import manifold_shoot, omega_limit_estimate
    from .svgplot import PALETTE

    params = pack.params
    r0, base = r0_of(params), params.base
    config = _config_for(ns, "portraits", {
        "region": pack.region, "params": params.to_dict(),
        "horizon": ns.horizon, "max_samples": ns.max_samples,
        "note": pack.note,
    }, tol)

    fan = region_fan(params, n_boundary=pack.n_boundary, n_ring=pack.n_ring)
    results = [omega_limit_estimate(x0, params, horizon=ns.horizon, tol=tol)
               for x0 in fan]

    cycle, cycle_error = None, ""
    if pack.region == "E":
        try:
            cycle = find_periodic_orbit(r0, params.p, base)
        except (ValueError, RuntimeError) as exc:
            cycle_error = str(exc)

    legs = []
    if pack.region == "het":
        # past a few turns of E2's focus the W^s(E0) leg only circles the
        # unstable cycle again
        e0, e1 = disease_free(params)
        omega = abs(endemic(params).eigenvalues[0].imag)
        t_leg = min(ns.horizon, _HET_LEG_TURNS * 2.0 * math.pi / omega)
        legs.append(manifold_shoot(e1, "unstable", params, t_leg, tol=tol))
        legs.append(manifold_shoot(e0, "stable", params, t_leg, tol=tol))

    outcome_rows = []
    for k, (x0, res) in enumerate(zip(fan, results)):
        fin = res.trajectory.final_state
        outcome_rows.append((k, x0[0], x0[1], res.outcome, res.detail,
                             res.trajectory.t[-1], fin[0], fin[1]))
    counts: dict = {}
    for res in results:
        counts[res.outcome] = counts.get(res.outcome, 0) + 1

    def samples():
        return ("traj", "t", "S", "I"), _csv_text(
            (k, res.trajectory.t[i], *res.trajectory.states[i])
            for k, res in enumerate(results)
            for i in _downsample(len(res.trajectory.t), ns.max_samples))

    payload = {
        "region": pack.region, "note": pack.note, "r0": r0,
        "p": params.p, "outcome_counts": counts,
        "fan": [{"start": [row[1], row[2]], "outcome": row[3],
                 "detail": row[4]} for row in outcome_rows],
    }
    if pack.region == "E":
        payload["cycle"] = (None if cycle is None else {
            "period": cycle.period, "floquet": cycle.floquet,
            "section_S": cycle.section_S, "section_I": cycle.section_I,
            "return_residual": cycle.return_residual,
        })
        if cycle_error:
            payload["cycle_error"] = cycle_error

    paths = [(res.trajectory, 600, PALETTE["traj"], 0.9, 0.75)
             for res in results]
    paths += [(leg, 600, PALETTE["manifold"], 1.8, 1.0) for leg in legs]
    if cycle is not None:
        paths.append((cycle, 800, PALETTE["cycle"], 2.0, 1.0))
    stem = f"portrait_{pack.region}"
    _emit(ns, config, [
        (f"{stem}.csv", samples),
        (f"{stem}_outcomes.csv", lambda: (
            ("traj", "S0", "I0", "outcome", "detail", "t_end", "S_end",
             "I_end"), _csv_text(outcome_rows))),
        (f"{stem}.json", lambda: payload),
        (f"{stem}.svg", lambda: _phase_figure(
            params, f"region {pack.region}: R0={r0:.4g}, p={params.p:.4g}",
            config, paths)),
    ])

    line = f"region {pack.region}: " + ", ".join(
        f"{k}: {v}" for k, v in sorted(counts.items()))
    if cycle is not None:
        line += f" (cycle Floquet {cycle.floquet:.4f})"
    print(line)


def cmd_portraits(ns) -> int:
    from .atlas import RegionFlagError, classify_region
    from .connections import fit_reference_curve

    tol = _effective_tol(ns, 1e-8)
    if ns.max_samples < 1:
        raise ValueError("--max-samples must be at least 1")

    if ns.beta is not None or ns.r0 is not None:
        params = _resolve_params(ns)
        base = params.base
        label = "custom"
        try:
            het = fit_reference_curve() if base == REFERENCE_BASE else None
            label = classify_region(r0_of(params), params.p, base,
                                    het=het).value
        except RegionFlagError:
            pass
        packs = [PortraitPack(label, params, 12, 8, "custom parameter point")]
    else:
        for key, value in (*REFERENCE_BASE.to_dict().items(), ("p", 0.0)):
            if getattr(ns, key) != value:
                raise ValueError(
                    f"--{key} {getattr(ns, key)!r} is ignored without --r0 "
                    "or --beta: the builtin region packs sit at the "
                    "reference base (B at its own), each at its own p")
        builtin = _builtin_packs()
        wanted = ns.region or ["all"]
        if "all" in wanted:
            wanted = list(builtin)
        for name in wanted:
            if name not in builtin:
                raise ValueError(f"unknown region {name!r}; choose from "
                                 f"{', '.join(builtin)} or 'all'")
        packs = [builtin[name] for name in dict.fromkeys(wanted)]

    for pack in packs:
        _run_portrait(pack, ns, tol)
    return 0


# ----------------------------------------------------------------------
# simulate


def cmd_simulate(ns) -> int:
    from .integrate import integrate, recover_recovered
    from .svgplot import PALETTE

    params = _resolve_params(ns)
    if ns.t_end <= 0.0:
        raise ValueError("--t-end must be positive")
    if not math.isfinite(ns.r_init):
        raise ValueError(f"--r-init must be finite, got {ns.r_init}")
    tol = _effective_tol(ns, 1e-8)
    config = _config_for(ns, "simulate", {
        "params": params.to_dict(), "x0": [ns.S0, ns.I0],
        "r_init": ns.r_init, "t_end": ns.t_end,
    }, tol)

    traj = integrate((ns.S0, ns.I0), params, ns.t_end, tol=tol)
    recovered = recover_recovered(traj, ns.r_init)
    term = traj.terminal
    print(f"integrated to t = {traj.t[-1]!r} ({len(traj.t)} samples); "
          f"terminal: {term.kind}" + (f" [{term.detail}]" if term.detail else ""))

    _emit(ns, config, [
        ("trajectory.csv", lambda: (("t", "S", "I", "R"), _csv_text(
            (t, S, I, R) for t, (S, I), R
            in zip(traj.t, traj.states, recovered)))),
        ("trajectory.json", lambda: {**traj.to_json_dict(), "R": recovered}),
        ("trajectory.svg", lambda: _phase_figure(
            params, f"trajectory from ({ns.S0:g}, {ns.I0:g})", config,
            [(traj, 1200, PALETTE["traj"], 1.4, 1.0)],
            start=(ns.S0, ns.I0), labels=False)),
    ])
    return 0


# ----------------------------------------------------------------------
# heteroclinic table and fit


def _parse_r0_list(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --r0-list: {exc}") from None
    if not values:
        raise ValueError("--r0-list is empty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"--r0-list entries must be finite, got {text}")
    return values


def _shoot_tol(ns) -> float | None:
    """The tolerance of ``--shoot``; without it nothing integrates."""
    if ns.tol is not None and not ns.shoot:
        raise ValueError("--tol only makes sense with --shoot: "
                         "without it nothing integrates")
    return _effective_tol(ns, 1e-10) if ns.shoot else None


def cmd_het_table(ns) -> int:
    from .connections import REFERENCE_HET_POINTS, build_het_table

    base = _resolve_base(ns)
    if ns.r0_list is not None and not ns.shoot:
        raise ValueError("--r0-list only makes sense with --shoot; "
                         "the embedded table has fixed abscissae")
    tol = _shoot_tol(ns)
    abscissae = (_parse_r0_list(ns.r0_list) if ns.r0_list is not None
                 else [r0 for r0, _ in REFERENCE_HET_POINTS])
    config = _config_for(ns, "het-table", {
        "base": base.to_dict(), "shoot": bool(ns.shoot),
        "r0_list": abscissae,
    }, tol)

    reference = dict(REFERENCE_HET_POINTS) if base == REFERENCE_BASE else {}
    rows = []
    if ns.shoot:
        table = build_het_table(abscissae, base, jobs=ns.jobs, tol=tol)
        for row in table:
            delta = None
            if not row.error and row.r0 in reference:
                delta = row.p_het - reference[row.r0]
            rows.append((row.r0, None if row.error else row.p_het,
                         None if row.error else row.splitting_residual,
                         delta, row.error))
            if row.error:
                print(f"r0 = {row.r0!r}: failed ({row.error})")
            else:
                print(f"r0 = {row.r0!r}: p_het = {row.p_het!r}")
    else:
        rows = [(r0, p, None, None, "") for r0, p in REFERENCE_HET_POINTS]
        print(f"embedded connection table: {len(rows)} rows")

    columns = ("r0", "p_het", "splitting_residual", "delta_vs_reference",
               "error")
    _emit(ns, config, [
        ("het_table.csv", lambda: (columns, _csv_text(rows))),
        ("het_table.json", lambda: {
            "rows": [dict(zip(columns, row)) for row in rows]}),
    ])
    failed = sum(1 for r in rows if r[4])
    return 3 if failed == len(rows) else 0


def _read_points_csv(path: Path) -> list:
    points = []
    with path.open(newline="") as handle:
        reader = _csvmod.reader(handle)
        rows = [(reader.line_num, row) for row in reader
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = [cell.strip() for cell in rows[0][1]]
    try:
        i_r0, i_p = header.index("r0"), header.index("p_het")
    except ValueError:
        raise ValueError(f"{path}: header must name 'r0' and 'p_het' columns")
    for line, row in rows[1:]:
        if len(row) <= max(i_r0, i_p) or not row[i_p].strip():
            continue
        try:
            points.append((float(row[i_r0]), float(row[i_p])))
        except ValueError:
            raise ValueError(
                f"{path}, line {line}: r0 = {row[i_r0]!r}, "
                f"p_het = {row[i_p]!r} is not a pair of numbers") from None
    return points


def cmd_het_fit(ns) -> int:
    from .connections import REFERENCE_HET_POINTS, build_het_table, power_fit

    base = _resolve_base(ns)
    if ns.table == "":
        raise ValueError("--table is empty")
    if ns.table and ns.shoot:
        raise ValueError("--table and --shoot are mutually exclusive")
    tol = _shoot_tol(ns)
    if ns.table:
        source = ns.table
        points = _read_points_csv(Path(ns.table))
    elif ns.shoot:
        source = "shoot"
        abscissae = [r0 for r0, _ in REFERENCE_HET_POINTS]
        table = build_het_table(abscissae, base, jobs=ns.jobs, tol=tol)
        points = [(row.r0, row.p_het) for row in table if not row.error]
    else:
        source = "embedded"
        points = list(REFERENCE_HET_POINTS)

    try:
        fit = power_fit(points)
    except ValueError as exc:    # e.g. fewer rows than the fit needs
        raise ValueError(f"{source}: {exc}") from None
    config = _config_for(ns, "het-fit", {
        "base": base.to_dict(), "source": source, "n_points": len(points),
    }, tol)
    # past these digits rss and grad_norm depend on the order of the float
    # operations, not on the data (FORMAT.md)
    rss, grad_norm = float(f"{fit.rss:.12g}"), float(f"{fit.grad_norm:.2g}")
    print(f"p_het(r0) ~ a*r0^b + c with a = {fit.a!r}, b = {fit.b!r}, "
          f"c = {fit.c!r}")
    print(f"rss = {rss!r}, corr = {fit.corr!r}, iterations = {fit.iterations}")

    payload = {"a": fit.a, "b": fit.b, "c": fit.c, "rss": rss,
               "corr": fit.corr, "iterations": fit.iterations,
               "grad_norm": grad_norm, "n_points": len(points)}
    _emit(ns, config, [
        ("het_fit.json", lambda: {"fit": payload}),
        ("het_fit.csv", lambda: (tuple(payload),
                                 _csv_text([tuple(payload.values())]))),
    ])
    return 0


# ----------------------------------------------------------------------
# periodic orbit


def cmd_cycle(ns) -> int:
    from .connections import find_periodic_orbit
    from .svgplot import PALETTE

    base = _resolve_base(ns)
    tol = _effective_tol(ns, 1e-10)
    config = _config_for(ns, "cycle", {"base": base.to_dict(), "r0": ns.r0,
                                       "p": ns.p}, tol)

    orbit = find_periodic_orbit(ns.r0, ns.p, base, tol=tol)
    print(f"unstable cycle at (R0, p) = ({ns.r0!r}, {ns.p!r}): "
          f"period = {orbit.period!r}, Floquet multiplier = {orbit.floquet!r}")
    print(f"section point: S = {orbit.section_S!r}, I = {orbit.section_I!r} "
          f"(return residual {orbit.return_residual!r})")

    def figure():
        params = reduced_to_params(ns.r0, ns.p, base)
        return _phase_figure(params, f"unstable cycle: R0={ns.r0:g}, p={ns.p:g}",
                             config, [(orbit, 1200, PALETTE["cycle"], 2.0, 1.0)])

    _emit(ns, config, [
        ("cycle.csv", lambda: (("t", "S", "I"), _csv_text(
            (t, S, I) for t, (S, I) in zip(orbit.t, orbit.states)))),
        ("cycle.json", orbit.to_json_dict),
        ("cycle.svg", figure),
    ])
    return 0


# ----------------------------------------------------------------------
# parser assembly


def _add_base_args(parser) -> None:
    grp = parser.add_argument_group("base parameters")
    grp.add_argument("--A", type=float, default=REFERENCE_BASE.A,
                     help="recruitment scale (default %(default)s)")
    grp.add_argument("--m", type=float, default=REFERENCE_BASE.m,
                     help="vaccination supply rate (default %(default)s)")
    grp.add_argument("--mu", type=float, default=REFERENCE_BASE.mu,
                     help="natural mortality (default %(default)s)")
    grp.add_argument("--d", type=float, default=REFERENCE_BASE.d,
                     help="disease-induced mortality (default %(default)s)")
    grp.add_argument("--g", type=float, default=REFERENCE_BASE.g,
                     help="recovery rate (default %(default)s)")


def _add_point_args(parser) -> None:
    grp = parser.add_argument_group("parameter point")
    grp.add_argument("--beta", type=float, default=None,
                     help="transmission rate (overrides --r0)")
    grp.add_argument("--r0", type=float, default=None,
                     help="basic reproduction number; sets beta = r0*(mu+d+g)/A")
    grp.add_argument("--p", type=float, default=0.0,
                     help="vaccination level in [0, 1] (default %(default)s)")


def _io_parent(integrates: bool) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    grp = parent.add_argument_group("run control")
    grp.add_argument("--config", metavar="FILE", default=None,
                     help="JSON file of flag defaults for this subcommand")
    grp.add_argument("--out", metavar="DIR", default=None,
                     help="output directory (default: current directory)")
    grp.add_argument("--format", action="append", choices=_FORMATS,
                     metavar="FMT", default=None,
                     help="output format (csv/json/svg); repeatable, "
                          "default: all that apply")
    if integrates:
        grp.add_argument("--tol", type=float, default=None,
                         help=f"integration tolerance in [{TOL_RANGE[0]:g}, "
                              f"{TOL_RANGE[1]:g}] (command-specific default)")
    grp.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for independent rows "
                          "(default %(default)s)")
    return parent


def build_parser():
    top = argparse.ArgumentParser(
        prog="sirbif",
        description="Bifurcation toolkit for a vaccinated logistic-SIR "
                    "planar system.",
        epilog="File schemas are documented in FORMAT.md.")
    top.add_argument("--version", action="version",
                     version=f"sirbif {__version__}")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")
    io, io_tol = _io_parent(False), _io_parent(True)

    ap = sub.add_parser(
        "equilibria", parents=[io],
        help="list equilibria, eigenvalues, and stability classes",
        description="Print every equilibrium with its eigenvalues and "
                    "stability class. CSV columns: id,S,I,eig1_re,eig1_im,"
                    "eig2_re,eig2_im,class.")
    _add_base_args(ap)
    _add_point_args(ap)
    ap.set_defaults(func=cmd_equilibria)

    ap = sub.add_parser(
        "atlas", parents=[io],
        help="emit bifurcation curves, region grid, and SVG diagram",
        description="Sample the five bifurcation/transition curves and "
                    "classify a (R0, p) grid. CSV schemas: atlas_curves.csv "
                    "r0,p_sn,p_t,p_h,p_bt1,p_bt2,p_het (empty cell = outside "
                    "domain); atlas_regions.csv r0,p,label.")
    _add_base_args(ap)
    ap.add_argument("--r0-min", type=float, default=1.0)
    ap.add_argument("--r0-max", type=float, default=4.0)
    ap.add_argument("--p-min", type=float, default=0.0)
    ap.add_argument("--p-max", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=400,
                    help="points per curve (default %(default)s)")
    ap.add_argument("--grid", type=int, default=200,
                    help="region grid resolution per axis (default %(default)s)")
    ap.set_defaults(func=cmd_atlas)

    ap = sub.add_parser(
        "portraits", parents=[io_tol],
        help="phase-portrait evidence packs for the open regions",
        description="Integrate an initial-condition fan for each requested "
                    "region at its documented representative parameters, "
                    "classifying every trajectory's forward limit. CSV "
                    "schemas: portrait_<R>.csv traj,t,S,I; "
                    "portrait_<R>_outcomes.csv traj,S0,I0,outcome,detail,"
                    "t_end,S_end,I_end. Passing --r0/--beta runs a single "
                    "custom portrait instead.")
    _add_base_args(ap)
    _add_point_args(ap)
    ap.add_argument("--region", action="append", metavar="R", default=None,
                    help="region label (A..H, het, or all); repeatable "
                         "(default: all)")
    ap.add_argument("--horizon", type=float, default=800.0,
                    help="integration horizon per trajectory "
                         "(default %(default)s)")
    ap.add_argument("--max-samples", type=int, default=400,
                    help="cap on CSV samples per trajectory "
                         "(default %(default)s)")
    ap.set_defaults(func=cmd_portraits)

    ap = sub.add_parser(
        "simulate", parents=[io_tol],
        help="integrate one trajectory and reconstruct the removed class",
        description="Integrate from (--S0, --I0), reporting the terminal "
                    "event and the reconstructed removed-compartment series. "
                    "CSV columns: t,S,I,R.")
    _add_base_args(ap)
    _add_point_args(ap)
    ap.add_argument("--S0", type=float, required=True, help="initial S")
    ap.add_argument("--I0", type=float, required=True, help="initial I")
    ap.add_argument("--r-init", type=float, default=0.0,
                    help="initial removed-class value (default %(default)s)")
    ap.add_argument("--t-end", type=float, default=100.0,
                    help="integration horizon (default %(default)s)")
    ap.set_defaults(func=cmd_simulate)

    ap = sub.add_parser(
        "het-table", parents=[io_tol],
        help="heteroclinic connection table (embedded or freshly shot)",
        description="Emit the connection-curve table. Default: the embedded "
                    "13-row reference table. With --shoot, locate each "
                    "connection by Brent's method on the manifold splitting "
                    "below the Hopf value. CSV columns: r0,p_het,"
                    "splitting_residual,delta_vs_reference,error (empty "
                    "cells where not applicable).")
    _add_base_args(ap)
    ap.add_argument("--shoot", action="store_true",
                    help="recompute the table by shooting instead of using "
                         "the embedded rows")
    ap.add_argument("--r0-list", default=None, metavar="LIST",
                    help="comma-separated abscissae (requires --shoot)")
    ap.set_defaults(func=cmd_het_table)

    ap = sub.add_parser(
        "het-fit", parents=[io_tol],
        help="power-law fit p_het(r0) = a*r0^b + c",
        description="Fit the three-parameter power law to a connection "
                    "table: the embedded rows (default), a CSV with r0 and "
                    "p_het columns (--table), or a freshly shot table "
                    "(--shoot). JSON payload: a,b,c,rss,corr.")
    _add_base_args(ap)
    ap.add_argument("--table", default=None, metavar="FILE",
                    help="CSV file with r0 and p_het columns")
    ap.add_argument("--shoot", action="store_true",
                    help="shoot a fresh table at the embedded abscissae")
    ap.set_defaults(func=cmd_het_fit)

    ap = sub.add_parser(
        "cycle", parents=[io_tol],
        help="locate the unstable periodic orbit around the endemic focus",
        description="Find the unstable cycle around the stable focus E2 at "
                    "(--r0 > 2, --p) between the connection and Hopf curves; "
                    "exit 3 if its loop does not close, as below the "
                    "connection. CSV columns: t,S,I over one period; JSON "
                    "adds period, return residual and Floquet multiplier "
                    "exp(loop integral of div f).")
    _add_base_args(ap)
    ap.add_argument("--r0", type=float, default=2.6)
    ap.add_argument("--p", type=float, default=0.48)
    ap.set_defaults(func=cmd_cycle)

    ap = sub.add_parser(
        "dz", parents=[io],
        help="double-zero certificate and curve concurrence",
        description="Evaluate the Jacobian at the organizing double-zero "
                    "point (R0, p) = (2, A^2/(4m)) and check that all curves "
                    "pass through it.")
    _add_base_args(ap)
    ap.set_defaults(func=cmd_dz)

    return top, sub.choices


# ----------------------------------------------------------------------
# config files and entry point


def _config_tokens(path: str, subparser, flags) -> list:
    """The file's JSON object as the flags it stands for: ``{"k": v}`` is
    ``--k=v`` (so a value beginning with ``-`` stays a value), a list the
    repeated flag, true/false the switch or nothing.  ``flags`` is the
    command line parsed without the file: a repeated flag given there
    replaces the file's list instead of adding to it."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    # not --help: as a token it would print the help instead of running
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    tokens = []
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r} for this command")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            tokens += [flag] if value else []
            continue
        repeated = isinstance(action, argparse._AppendAction)
        items = value if repeated and isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, bool) or not isinstance(item, (str, int, float)):
                raise ValueError(f"config key {key!r}: {item!r} is not a flag value")
        if not (repeated and getattr(flags, action.dest) is not None):
            tokens += [f"{flag}={item}" for item in items]
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    top, parsers = build_parser()
    try:
        ns = top.parse_args(argv)
        if ns.config is not None:
            # the file's flags come first, so explicit flags still win
            tokens = _config_tokens(ns.config, parsers[ns.command], ns)
            ns = top.parse_args([*argv[:1], *tokens, *argv[1:]])
        if ns.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {ns.jobs}")
        tol = getattr(ns, "tol", None)
        if tol is not None and not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
            raise ValueError(f"--tol must lie in [{TOL_RANGE[0]:g}, "
                             f"{TOL_RANGE[1]:g}], got {tol}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        print(f"sirbif: {exc}", file=sys.stderr)
        return 2

    try:
        return int(ns.func(ns) or 0)
    except (RuntimeError, ArithmeticError) as exc:
        print(f"sirbif: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"sirbif: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
