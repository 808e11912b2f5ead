"""The ``portraits``, ``simulate`` and ``cycle`` subcommands: phase-plane
runs, each drawn by one figure writer."""
from __future__ import annotations

import math

from .cli_common import (
    compact,
    config_for,
    csv_text,
    effective_tol,
    emit,
    new_subparser,
    resolve_base,
    resolve_params,
)
from .model import (
    REFERENCE_BASE,
    ModelParams,
    _Record,
    invariant_region_bound,
    r0_of,
    reduced_to_params,
)

#: the het pack's legs run for this many periods 2*pi/omega of E2's focus
_HET_LEG_TURNS = 8


def add_parser(sub, name: str, help_line: str) -> None:
    if name == "portraits":
        ap = new_subparser(
            sub, name, help_line,
            "Integrate an initial-condition fan for each requested region at "
            "its documented representative parameters, classifying every "
            "trajectory's forward limit. CSV schemas: portrait_<R>.csv "
            "traj,t,S,I; portrait_<R>_outcomes.csv traj,S0,I0,outcome,detail,"
            "t_end,S_end,I_end. Passing --r0/--beta runs a single custom "
            "portrait instead.", integrates=True, point=True)
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
    elif name == "simulate":
        ap = new_subparser(
            sub, name, help_line,
            "Integrate from (--S0, --I0), reporting the terminal event and "
            "the reconstructed removed-compartment series. CSV columns: "
            "t,S,I,R.", integrates=True, point=True)
        ap.add_argument("--S0", type=float, help="initial S (required)")
        ap.add_argument("--I0", type=float, help="initial I (required)")
        ap.add_argument("--r-init", type=float, default=0.0,
                        help="initial removed-class value (default %(default)s)")
        ap.add_argument("--t-end", type=float, default=100.0,
                        help="integration horizon (default %(default)s)")
        ap.set_defaults(func=cmd_simulate)
    else:
        ap = new_subparser(
            sub, name, help_line,
            "Find the unstable cycle around the stable focus E2 at (--r0 > 2, "
            "--p) between the connection and Hopf curves; exit 3 if its loop "
            "does not close, as below the connection. CSV columns: t,S,I over "
            "one period; JSON adds period, return residual and Floquet "
            "multiplier exp(loop integral of div f).",
            integrates=True, point=False)
        ap.add_argument("--r0", type=float, default=2.6)
        ap.add_argument("--p", type=float, default=0.48)
        ap.set_defaults(func=cmd_cycle)


class PortraitPack(_Record):
    region: str
    params: ModelParams
    n_boundary: int
    n_ring: int
    note: str


def _builtin_packs() -> dict:
    from .atlas import fit_reference_curve

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
    from .equilibria import _SINKS, StabilityClass

    if eq.stability in _SINKS:
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
    canvas = Canvas(560, 520, xlim, ylim, title=title, desc=compact(config))
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


# ----------------------------------------------------------------------
# portraits


def _run_portrait(pack: PortraitPack, ns, tol: float) -> None:
    from .atlas import region_fan
    from .equilibria import disease_free, endemic
    from .integrate import manifold_shoot, omega_limit_estimate
    from .svgplot import PALETTE

    params = pack.params
    r0, base = r0_of(params), params.base
    config = config_for(ns, "portraits", {
        "region": pack.region, "params": params.to_dict(),
        "horizon": ns.horizon, "max_samples": ns.max_samples,
        "note": pack.note,
    }, tol)

    fan = region_fan(params, n_boundary=pack.n_boundary, n_ring=pack.n_ring)
    results = [omega_limit_estimate(x0, params, horizon=ns.horizon, tol=tol)
               for x0 in fan]

    cycle, cycle_error = None, ""
    if pack.region == "E":
        from .connections import find_periodic_orbit
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
        return ("traj", "t", "S", "I"), csv_text(
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
    emit(ns, config, [
        (f"{stem}.csv", samples),
        (f"{stem}_outcomes.csv", lambda: (
            ("traj", "S0", "I0", "outcome", "detail", "t_end", "S_end",
             "I_end"), csv_text(outcome_rows))),
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
    from .atlas import RegionFlagError, classify_region, fit_reference_curve

    tol = effective_tol(ns, 1e-8)
    if ns.max_samples < 1:
        raise ValueError("--max-samples must be at least 1")

    if ns.beta is not None or ns.r0 is not None:
        params = resolve_params(ns)
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

    # checked here, not by argparse, so that a --config file can give them
    missing = [f"--{k}" for k in ("S0", "I0") if getattr(ns, k) is None]
    if missing:
        raise ValueError("the following arguments are required: "
                         + ", ".join(missing))
    params = resolve_params(ns)
    if ns.t_end <= 0.0:
        raise ValueError("--t-end must be positive")
    if not math.isfinite(ns.r_init):
        raise ValueError(f"--r-init must be finite, got {ns.r_init}")
    tol = effective_tol(ns, 1e-8)
    config = config_for(ns, "simulate", {
        "params": params.to_dict(), "x0": [ns.S0, ns.I0],
        "r_init": ns.r_init, "t_end": ns.t_end,
    }, tol)

    traj = integrate((ns.S0, ns.I0), params, ns.t_end, tol=tol)
    recovered = recover_recovered(traj, ns.r_init)
    term = traj.terminal
    print(f"integrated to t = {traj.t[-1]!r} ({len(traj.t)} samples); "
          f"terminal: {term.kind}" + (f" [{term.detail}]" if term.detail else ""))

    emit(ns, config, [
        ("trajectory.csv", lambda: (("t", "S", "I", "R"), csv_text(
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
# periodic orbit


def cmd_cycle(ns) -> int:
    from .connections import find_periodic_orbit
    from .svgplot import PALETTE

    base = resolve_base(ns)
    tol = effective_tol(ns, 1e-10)
    config = config_for(ns, "cycle", {"base": base.to_dict(), "r0": ns.r0,
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

    emit(ns, config, [
        ("cycle.csv", lambda: (("t", "S", "I"), csv_text(
            (t, S, I) for t, (S, I) in zip(orbit.t, orbit.states)))),
        ("cycle.json", orbit.to_json_dict),
        ("cycle.svg", figure),
    ])
    return 0
