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
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .atlas import (
    BelyakovDomainError,
    CurveDomainError,
    RegionFlagError,
    classify_region,
    curve_values_at,
    dz_point,
    p_bt2,
    p_h,
    p_sn,
    p_t,
    region_fan,
)
from .connections import (
    REFERENCE_HET_POINTS,
    build_het_table,
    find_periodic_orbit,
    fit_reference_curve,
    power_fit,
)
from .equilibria import StabilityClass, disease_free, endemic
from .integrate import (
    integrate,
    manifold_shoot,
    omega_limit_estimate,
    recover_recovered,
)
from .model import (
    REFERENCE_BASE,
    BaseParams,
    ModelParams,
    ReducedPoint,
    invariant_region_bound,
    r0_of,
    reduced_to_params,
)
from .svgplot import PALETTE, Canvas

_FORMATS = ("csv", "json", "svg")
_REGION_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H", "het")


# ----------------------------------------------------------------------
# run configuration and artifact writers


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one subcommand invocation."""

    command: str
    settings: dict

    def to_json_dict(self) -> dict:
        return {"command": self.command, "tool": "sirbif",
                "version": __version__, "settings": self.settings}

    def compact(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(float(value))
    return str(value)


def _quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, config: RunConfig, columns, rows) -> None:
    with path.open("w") as fh:
        fh.write(f"# sirbif {__version__}\n# config {config.compact()}\n"
                 + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_quote(_cell(v)) for v in row) + "\n")


def _write_json(path: Path, config: RunConfig, payload: dict) -> None:
    doc = dict(payload)
    doc["config"] = config.to_json_dict()
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit(ns, config: RunConfig, artifacts) -> None:
    """Write the artifacts whose format was selected, in the given order.

    ``artifacts`` holds ``(file name, producer)`` pairs and the file suffix
    picks the writer: a ``.csv`` producer returns ``(columns, rows)``, a
    ``.json`` producer the payload and an ``.svg`` producer a Canvas.  The
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
    return BaseParams(A=ns.A, m=ns.m, mu=ns.mu, d=ns.d, g=ns.g)


def _resolve_params(ns) -> ModelParams:
    base = _resolve_base(ns)
    if getattr(ns, "beta", None) is not None:
        return ModelParams(A=ns.A, beta=ns.beta, m=ns.m, mu=ns.mu, d=ns.d,
                           g=ns.g, p=ns.p)
    if getattr(ns, "r0", None) is not None:
        return reduced_to_params(ReducedPoint(ns.r0, ns.p, base))
    raise ValueError("give either --beta or --r0 to fix the transmission rate")


def _base_of(params: ModelParams) -> BaseParams:
    return BaseParams(A=params.A, m=params.m, mu=params.mu, d=params.d,
                      g=params.g)


def _formats(ns) -> tuple:
    chosen = ns.format or list(_FORMATS)
    return tuple(f for f in _FORMATS if f in chosen)


def _effective_tol(ns, default: float) -> float:
    return default if ns.tol is None else ns.tol


def _config_for(ns, command: str, extra: dict, tol: float) -> RunConfig:
    settings = {"tol": tol, "jobs": ns.jobs, "seed": ns.seed,
                "formats": list(_formats(ns))}
    settings.update(extra)
    return RunConfig(command, settings)


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
    params = _resolve_params(ns)
    base = _base_of(params)
    tol = _effective_tol(ns, 1e-8)
    config = _config_for(ns, "equilibria", {"params": params.to_dict()}, tol)

    dfe = disease_free(params)
    e2 = endemic(params)
    print(f"parameters: A={params.A!r} beta={params.beta!r} m={params.m!r} "
          f"mu={params.mu!r} d={params.d!r} g={params.g!r} p={params.p!r}")
    print(f"R0 = {r0_of(params)!r}")
    if not dfe:
        print(f"no disease-free equilibria (p = {params.p!r} exceeds "
              f"p_SN = {p_sn(2.0, base)!r})")
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
                                         "eig2_re", "eig2_im", "class"), rows)),
            ("equilibria.json", lambda: {
                "r0": r0_of(params),
                "equilibria": [eq.to_json_dict() for eq in [*dfe, e2]],
            }),
        ])
    return 0


# ----------------------------------------------------------------------
# dz certificate


def cmd_dz(ns) -> int:
    base = _resolve_base(ns)
    config = _config_for(ns, "dz", {"base": base.to_dict()},
                         _effective_tol(ns, 1e-8))
    cert = dz_point(base)
    r0s, ps = cert.point
    conc = {
        "p_sn": p_sn(r0s, base),
        "dev_t": abs(p_sn(r0s, base) - p_t(r0s, base)),
        "dev_h": abs(p_sn(r0s, base) - p_h(r0s, base)),
        "dev_bt2": abs(p_sn(r0s, base) - p_bt2(r0s, base)),
    }
    jac = [[float(v) for v in row] for row in cert.jacobian]
    print(f"double-zero point: (R0, p) = ({r0s!r}, {ps!r})")
    print(f"E2 location there: S={cert.location[0]!r} I={cert.location[1]!r}")
    print(f"Jacobian: {jac!r}")
    print(f"expected: {[list(row) for row in cert.expected]!r}")
    print(f"max entry error: {float(cert.max_entry_error)!r}")
    print(f"eigenvalue moduli: {[float(v) for v in cert.eig_moduli]!r}")
    print(f"curve concurrence at R0=2: p_SN={conc['p_sn']!r} "
          f"|p_SN-p_T|={conc['dev_t']!r} |p_SN-p_H|={conc['dev_h']!r} "
          f"|p_SN-p_Bt2|={conc['dev_bt2']!r}")
    print(f"certificate ok: {cert.ok}")
    if ns.out is not None:
        _emit(ns, config, [("dz.json", lambda: {
            "point": {"r0": r0s, "p": ps},
            "location": {"S": cert.location[0], "I": cert.location[1]},
            "jacobian": jac,
            "max_entry_error": float(cert.max_entry_error),
            "eig_moduli": [float(v) for v in cert.eig_moduli],
            "endemic_location_error": cert.endemic_location_error,
            "concurrence": conc,
            "ok": cert.ok,
        })])
    return 0 if cert.ok else 3


# ----------------------------------------------------------------------
# atlas


_CURVE_COLUMNS = ("sn", "t", "h", "bt1", "bt2", "het")


def _atlas_rows(base: BaseParams, het, r0_min: float, r0_max: float,
                n: int) -> list:
    rows = []
    for i in range(n):
        r0 = r0_min + (r0_max - r0_min) * i / (n - 1)
        vals = curve_values_at(r0, base, het=het)
        rows.append((r0,) + tuple(vals.get(k) for k in _CURVE_COLUMNS))
    return rows


def _region_label_anchors(base: BaseParams, het) -> list:
    """(label, r0, p) anchors for the open regions, computed from the curves
    so they stay inside their bands under any base."""
    anchors = []

    def mid(lo, hi):
        return 0.5 * (lo + hi)

    try:
        anchors.append(("A", 2.2, mid(p_sn(2.2, base), min(1.0, 1.12 * p_sn(2.2, base)))))
        anchors.append(("B", 1.55, mid(p_t(1.55, base), p_sn(1.55, base))))
        anchors.append(("C", 1.16, 0.45 * p_t(1.16, base)))
        anchors.append(("D", 2.35, 0.5 * het(2.35)))
        anchors.append(("E", 3.0, mid(het(3.0), p_h(3.0, base))))
        anchors.append(("F", 2.8, mid(p_h(2.8, base), p_bt2(2.8, base))))
        anchors.append(("G", 3.2, mid(p_bt2(3.2, base), p_t(3.2, base))))
        anchors.append(("H", 3.0, mid(p_t(3.0, base), p_sn(3.0, base))))
    except (CurveDomainError, BelyakovDomainError):
        pass
    return anchors


def _atlas_svg(base: BaseParams, rows, het, config: RunConfig,
               window) -> Canvas:
    r0_min, r0_max, p_min, p_max = window
    canvas = Canvas(720, 540, (r0_min, r0_max), (p_min, p_max),
                    title="(R0, p) bifurcation atlas", desc=config.compact())
    names = {"sn": "saddle-node", "t": "transcritical", "h": "Hopf",
             "bt2": "node-focus", "het": "heteroclinic"}
    for idx, key in enumerate(_CURVE_COLUMNS):
        if key == "bt1":
            continue  # second node-focus root is negative throughout the window
        pts = [(row[0], row[1 + idx]) for row in rows if row[1 + idx] is not None]
        dash = "6,3" if key in ("bt2", "het") else ""
        canvas.polyline(pts, PALETTE[key], width=1.8, dash=dash)
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
    canvas.legend([(names[k], PALETTE[k]) for k in
                   ("sn", "t", "h", "bt2", "het")])
    return canvas


def cmd_atlas(ns) -> int:
    base = _resolve_base(ns)
    if not (0.0 < ns.r0_min < ns.r0_max < math.inf
            and 0.0 <= ns.p_min < ns.p_max <= 1.0):
        raise ValueError("atlas window must satisfy 0 < r0-min < r0-max "
                         "(finite) and 0 <= p-min < p-max <= 1")
    if ns.samples < 2 or ns.grid < 2:
        raise ValueError("--samples and --grid must be at least 2")
    het = fit_reference_curve()
    tol = _effective_tol(ns, 1e-8)
    config = _config_for(ns, "atlas", {
        "base": base.to_dict(),
        "window": [ns.r0_min, ns.r0_max, ns.p_min, ns.p_max],
        "samples": ns.samples, "grid": ns.grid,
    }, tol)

    rows = _atlas_rows(base, het, ns.r0_min, ns.r0_max, ns.samples)

    def regions():
        grid_rows = []
        for i in range(ns.grid):
            r0 = ns.r0_min + (ns.r0_max - ns.r0_min) * i / (ns.grid - 1)
            for j in range(ns.grid):
                p = ns.p_min + (ns.p_max - ns.p_min) * j / (ns.grid - 1)
                try:
                    label = classify_region(r0, p, base, het=het).value
                except (RegionFlagError, CurveDomainError, BelyakovDomainError):
                    # corner cases sitting exactly on a degenerate locus
                    label = "boundary"
                grid_rows.append((r0, p, label))
        return ("r0", "p", "label"), grid_rows

    curves = {key: [[row[0], row[1 + idx]] for row in rows
                    if row[1 + idx] is not None]
              for idx, key in enumerate(_CURVE_COLUMNS)}
    _emit(ns, config, [
        ("atlas_curves.csv", lambda: (("r0", "p_sn", "p_t", "p_h", "p_bt1",
                                       "p_bt2", "p_het"), rows)),
        ("atlas_regions.csv", regions),
        ("atlas.json", lambda: {"dz": {"r0": 2.0, "p": p_sn(2.0, base)},
                                "curves": curves}),
        ("atlas.svg", lambda: _atlas_svg(
            base, rows, het, config,
            (ns.r0_min, ns.r0_max, ns.p_min, ns.p_max))),
    ])
    return 0


# ----------------------------------------------------------------------
# portraits


@dataclass(frozen=True)
class PortraitPack:
    region: str
    params: ModelParams
    n_boundary: int
    n_ring: int
    note: str


def _builtin_packs() -> dict:
    base = REFERENCE_BASE
    het = fit_reference_curve()

    def red(r0, p):
        return reduced_to_params(ReducedPoint(r0, p, base))

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
        "het": PortraitPack("het", red(2.6, round(float(het(2.6)), 6)), 12, 8,
                            "near the saddle-to-saddle connection"),
    }


def _marker_kind(eq) -> str:
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


def _phase_figure(params: ModelParams, title: str, config: RunConfig, paths,
                  *, start=None, labels: bool = True) -> Canvas:
    """(S, I) phase plane: the dashed invariant wedge, every path of
    ``paths`` as ``(path, sample cap, colour, width, opacity)``, an optional
    open start marker, the equilibrium markers (named when ``labels``) and
    the axes."""
    A, bound = params.A, invariant_region_bound(params)
    canvas = Canvas(560, 520, (-0.02 * A, 1.04 * A),
                    (-0.02 * bound, 1.02 * bound), title=title,
                    desc=config.compact())
    canvas.polyline([(0.0, 0.0), (A, 0.0), (A, bound - A), (0.0, bound),
                     (0.0, 0.0)], PALETTE["boundary"], width=1.0, dash="4,3")
    for path, cap, color, width, opacity in paths:
        idx = _downsample(len(path.t), cap)
        canvas.polyline([(path.states[i, 0], path.states[i, 1]) for i in idx],
                        color, width=width, opacity=opacity)
    if start is not None:
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
    params = pack.params
    base = _base_of(params)
    r0 = r0_of(params)
    config = _config_for(ns, "portraits", {
        "region": pack.region, "params": params.to_dict(),
        "horizon": ns.horizon, "max_samples": ns.max_samples,
        "note": pack.note,
    }, tol)

    fan = region_fan(params, n_boundary=pack.n_boundary, n_ring=pack.n_ring)
    results = [omega_limit_estimate(x0, params, horizon=ns.horizon, tol=tol)
               for x0 in fan]

    cycle = None
    cycle_error = ""
    if pack.region == "E":
        het = fit_reference_curve()
        try:
            cycle = find_periodic_orbit(r0, params.p, base,
                                        het_p=float(het(r0)))
        except (ValueError, RuntimeError) as exc:
            cycle_error = str(exc)

    legs = []
    if pack.region == "het":
        e0, e1 = disease_free(params)
        legs.append(manifold_shoot(e1, "unstable", 1e-6, params,
                                   ns.horizon, tol=tol))
        legs.append(manifold_shoot(e0, "stable", 1e-6, params,
                                   ns.horizon, tol=tol))

    outcome_rows = []
    for k, (x0, res) in enumerate(zip(fan, results)):
        fin = res.trajectory.final_state
        outcome_rows.append((k, x0[0], x0[1], res.outcome, res.detail,
                             res.trajectory.t[-1], fin[0], fin[1]))
    counts: dict = {}
    for res in results:
        counts[res.outcome] = counts.get(res.outcome, 0) + 1

    def samples():
        rows = []
        for k, res in enumerate(results):
            traj = res.trajectory
            for i in _downsample(len(traj.t), ns.max_samples):
                rows.append((k, traj.t[i], traj.states[i, 0], traj.states[i, 1]))
        return ("traj", "t", "S", "I"), rows

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
             "I_end"), outcome_rows)),
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
    tol = _effective_tol(ns, 1e-8)
    if ns.max_samples < 1:
        raise ValueError("--max-samples must be at least 1")

    if getattr(ns, "beta", None) is not None or getattr(ns, "r0", None) is not None:
        params = _resolve_params(ns)
        base = _base_of(params)
        label = "custom"
        try:
            het = fit_reference_curve() if base == REFERENCE_BASE else None
            label = classify_region(r0_of(params), params.p, base,
                                    het=het).value
        except (RegionFlagError, CurveDomainError, BelyakovDomainError):
            pass
        packs = [PortraitPack(label, params, 12, 8, "custom parameter point")]
    else:
        builtin = _builtin_packs()
        wanted = ns.region or ["all"]
        if "all" in wanted:
            wanted = list(_REGION_NAMES)
        for name in wanted:
            if name not in builtin:
                raise ValueError(f"unknown region {name!r}; choose from "
                                 f"{', '.join(_REGION_NAMES)} or 'all'")
        packs = [builtin[name] for name in dict.fromkeys(wanted)]

    for pack in packs:
        _run_portrait(pack, ns, tol)
    return 0


# ----------------------------------------------------------------------
# simulate


def cmd_simulate(ns) -> int:
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
    print(f"integrated to t = {float(traj.t[-1])!r} ({len(traj.t)} samples); "
          f"terminal: {term.kind}" + (f" [{term.detail}]" if term.detail else ""))

    _emit(ns, config, [
        ("trajectory.csv", lambda: (("t", "S", "I", "R"), [
            (traj.t[i], traj.states[i, 0], traj.states[i, 1],
             float(recovered[i])) for i in range(len(traj.t))])),
        ("trajectory.json", lambda: {**traj.to_json_dict(),
                                     "R": [float(v) for v in recovered]}),
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


def cmd_het_table(ns) -> int:
    base = _resolve_base(ns)
    tol = _effective_tol(ns, 1e-10)
    if ns.r0_list and not ns.shoot:
        raise ValueError("--r0-list only makes sense with --shoot; "
                         "the embedded table has fixed abscissae")
    abscissae = (_parse_r0_list(ns.r0_list) if ns.r0_list
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
        ("het_table.csv", lambda: (columns, rows)),
        ("het_table.json", lambda: {
            "rows": [dict(zip(columns, row)) for row in rows]}),
    ])
    failed = sum(1 for r in rows if r[4])
    return 3 if failed == len(rows) else 0


def _read_points_csv(path: Path) -> list:
    points = []
    with path.open(newline="") as handle:
        rows = [row for row in _csvmod.reader(handle)
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = [cell.strip() for cell in rows[0]]
    try:
        i_r0, i_p = header.index("r0"), header.index("p_het")
    except ValueError:
        raise ValueError(f"{path}: header must name 'r0' and 'p_het' columns")
    for row in rows[1:]:
        if len(row) <= max(i_r0, i_p) or not row[i_p].strip():
            continue
        points.append((float(row[i_r0]), float(row[i_p])))
    return points


def cmd_het_fit(ns) -> int:
    base = _resolve_base(ns)
    tol = _effective_tol(ns, 1e-10)
    if ns.table and ns.shoot:
        raise ValueError("--table and --shoot are mutually exclusive")
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
    print(f"p_het(r0) ~ a*r0^b + c with a = {fit.a!r}, b = {fit.b!r}, "
          f"c = {fit.c!r}")
    print(f"rss = {fit.rss!r}, corr = {fit.corr!r}, "
          f"iterations = {fit.iterations}")

    payload = {"a": fit.a, "b": fit.b, "c": fit.c, "rss": fit.rss,
               "corr": fit.corr, "iterations": fit.iterations,
               "grad_norm": fit.grad_norm, "n_points": len(points)}
    _emit(ns, config, [
        ("het_fit.json", lambda: {"fit": payload}),
        ("het_fit.csv", lambda: (tuple(payload), [tuple(payload.values())])),
    ])
    return 0


# ----------------------------------------------------------------------
# periodic orbit


def cmd_cycle(ns) -> int:
    base = _resolve_base(ns)
    tol = _effective_tol(ns, 1e-10)
    het_p = ns.het_p
    if het_p is None:
        het_p = float(fit_reference_curve()(ns.r0))
    config = _config_for(ns, "cycle", {
        "base": base.to_dict(), "r0": ns.r0, "p": ns.p, "het_p": het_p,
    }, tol)

    orbit = find_periodic_orbit(ns.r0, ns.p, base, het_p=het_p, tol=tol)
    print(f"unstable cycle at (R0, p) = ({ns.r0!r}, {ns.p!r}): "
          f"period = {orbit.period!r}, Floquet multiplier = {orbit.floquet!r}")
    print(f"section point: S = {orbit.section_S!r}, I = {orbit.section_I!r} "
          f"(return residual {orbit.return_residual!r})")

    def figure():
        params = reduced_to_params(ReducedPoint(ns.r0, ns.p, base))
        return _phase_figure(params, f"unstable cycle: R0={ns.r0:g}, p={ns.p:g}",
                             config, [(orbit, 1200, PALETTE["cycle"], 2.0, 1.0)])

    _emit(ns, config, [
        ("cycle.csv", lambda: (("t", "S", "I"), zip(
            orbit.t, orbit.states[:, 0], orbit.states[:, 1]))),
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


def _io_parent() -> argparse.ArgumentParser:
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
    grp.add_argument("--tol", type=float, default=None,
                     help="integration tolerance (command-specific default)")
    grp.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for independent rows "
                          "(default %(default)s)")
    grp.add_argument("--seed", type=int, default=0,
                     help="seed recorded in the run configuration "
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
    io = _io_parent()
    parsers = {}

    ap = sub.add_parser(
        "equilibria", parents=[io],
        help="list equilibria, eigenvalues, and stability classes",
        description="Print every equilibrium with its eigenvalues and "
                    "stability class. CSV columns: id,S,I,eig1_re,eig1_im,"
                    "eig2_re,eig2_im,class.")
    _add_base_args(ap)
    _add_point_args(ap)
    ap.set_defaults(func=cmd_equilibria)
    parsers["equilibria"] = ap

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
    parsers["atlas"] = ap

    ap = sub.add_parser(
        "portraits", parents=[io],
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
    parsers["portraits"] = ap

    ap = sub.add_parser(
        "simulate", parents=[io],
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
    parsers["simulate"] = ap

    ap = sub.add_parser(
        "het-table", parents=[io],
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
    parsers["het-table"] = ap

    ap = sub.add_parser(
        "het-fit", parents=[io],
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
    parsers["het-fit"] = ap

    ap = sub.add_parser(
        "cycle", parents=[io],
        help="locate the unstable periodic orbit around the endemic focus",
        description="Find the unstable cycle at (--r0, --p) inside the band "
                    "between the connection and Hopf curves. CSV columns: "
                    "t,S,I over one period; JSON payload includes period and "
                    "Floquet multiplier.")
    _add_base_args(ap)
    ap.add_argument("--r0", type=float, default=2.6)
    ap.add_argument("--p", type=float, default=0.48)
    ap.add_argument("--het-p", type=float, default=None,
                    help="connection value p_het(r0) (default: embedded fit)")
    ap.set_defaults(func=cmd_cycle)
    parsers["cycle"] = ap

    ap = sub.add_parser(
        "dz", parents=[io],
        help="double-zero certificate and curve concurrence",
        description="Evaluate the Jacobian at the organizing double-zero "
                    "point (R0, p) = (2, A^2/(4m)) and check that all curves "
                    "pass through it.")
    _add_base_args(ap)
    ap.set_defaults(func=cmd_dz)
    parsers["dz"] = ap

    return top, parsers


# ----------------------------------------------------------------------
# config-file preloading and entry point


def _config_value(action, key: str, value):
    """The value ``--key value`` gives on the command line, so that a config
    file and the flags agree on what they accept and on the bytes they
    echo.  A list stands for a repeated flag, true/false for a switch."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise ValueError(f"config key {key!r} must be true or false")
    repeated = isinstance(action, argparse._AppendAction)
    values = []
    for item in (value if repeated and isinstance(value, list) else [value]):
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ValueError(f"config key {key!r}: {item!r} is not a flag value")
        try:
            item = (action.type or str)(str(item))
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid value {item!r}") from None
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"config key {key!r}: {item!r} is not one of "
                             f"{', '.join(action.choices)}")
        values.append(item)
    return values if repeated else values[0]


def _load_config_defaults(path: str, subparser, flags) -> None:
    """Make the file's values the subcommand's defaults.  ``flags`` is the
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
    actions = {action.dest: action for action in subparser._actions}
    clean = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"unknown config key {key!r} for this command")
        value = _config_value(actions[dest], key, value)
        if not (isinstance(value, list) and getattr(flags, dest) is not None):
            clean[dest] = value
    subparser.set_defaults(**clean)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    top, parsers = build_parser()
    try:
        ns = top.parse_args(argv)
        if ns.config is not None:
            # file values become defaults, so explicit flags still win
            _load_config_defaults(ns.config, parsers[ns.command], ns)
            ns = top.parse_args(argv)
        if ns.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {ns.jobs}")
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
