"""Global structures: the heteroclinic connection and the unstable cycle.

For r0 > 2 and p below the transcritical value both disease-free equilibria
are saddles; the axis segment between them is always a connection, and the
interior connection W^u(E1) -> W^s(E0) exists only on a curve p = p_het(r0),
located here by shooting both manifolds onto the section S = S2 and
solving for the zero of the signed gap between them by Brent's method on
a bracket topped by the Hopf value. A bundled 13-row (r0, p) table is
embedded for fit validation, and ``power_fit`` recovers the
y = a*x^b + c law through any such table by damped Gauss-Newton.

Between the heteroclinic and Hopf values of p the broken cycle leaves an
unstable periodic orbit around the (still stable) focus E2;
``find_periodic_orbit`` finds it as the attracting fixed point of the
time-reversed return map on the same section, then measures its period and
nontrivial Floquet multiplier in original time.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import BaseParams, ModelParams, ReducedPoint, invariant_region_bound, reduced_to_params
from . import atlas
from . import equilibria as eqmod
from .equilibria import StabilityClass
from .integrate import (
    SectionEvent,
    Trajectory,
    integrate,
    manifold_shoot,
)

__all__ = [
    "REFERENCE_HET_POINTS",
    "NoCrossingError",
    "SameSignBracketError",
    "NotInRegionEError",
    "MislabeledRegionError",
    "FitSingularError",
    "FitNonConvergence",
    "HetResult",
    "HetRow",
    "PowerFit",
    "PeriodicOrbit",
    "splitting",
    "find_het_p",
    "build_het_table",
    "power_fit",
    "fit_reference_curve",
    "find_periodic_orbit",
]

#: Bundled (r0, p) table for the reference base A=1.1, m=0.35,
#: mu=d=0.175, g=0.35, kept as the golden of the power fit. It is not the
#: model's connection locus: the shot connection lies 0.02 % (r0 = 2.0725)
#: to 11.9 % (r0 = 3.6667) below it, the gap growing with r0.
REFERENCE_HET_POINTS = (
    (2.0725, 0.793486),
    (2.2000, 0.686625),
    (2.2698, 0.636156),
    (2.4237, 0.541135),
    (2.6000, 0.453994),
    (2.6981, 0.413374),
    (2.8039, 0.374719),
    (2.9184, 0.338027),
    (3.0426, 0.303294),
    (3.1778, 0.270517),
    (3.3256, 0.239692),
    (3.4878, 0.210816),
    (3.6667, 0.183883),
)

_SHOOT_OFFSET = 1e-6
_SHOOT_TOL = 1e-10
_SHOOT_HORIZON = 900.0
_SOLVE_TOL = 1e-7          # Brent stops once its bracket is this narrow
_LOOP_HORIZON = 800.0      # time allowed for one traversal of the return map
_FIT_ROUNDS = 500


class NoCrossingError(RuntimeError):
    """A manifold shot ended (horizon/escape) without reaching the section."""


class SameSignBracketError(ValueError):
    """The splitting does not change sign on the heteroclinic bracket."""


class NotInRegionEError(ValueError):
    """p is outside the open band between the Hopf and heteroclinic values."""


class MislabeledRegionError(RuntimeError):
    """Reversed integration escaped: no attracting reversed cycle here."""


class FitSingularError(ValueError):
    """Normal equations singular even under heavy damping (collinear data)."""


class FitNonConvergence(RuntimeError):
    """Gauss-Newton did not meet the step/gradient criteria in 500 rounds."""


# ----------------------------------------------------------------------
# splitting and its root


def _saddle_pair(params: ModelParams):
    dfe = eqmod.disease_free(params)
    if len(dfe) != 2:
        raise ValueError("disease-free pair does not exist at this p")
    e0, e1 = dfe
    for e in (e0, e1):
        if e.stability is not StabilityClass.SADDLE:
            raise ValueError(
                f"{e.ident} is {e.stability.value}, not a saddle: outside "
                "the connection regime")
    return e0, e1


def splitting(r0: float, p: float, base: BaseParams, *,
              offset: float = _SHOOT_OFFSET,
              tol: float = _SHOOT_TOL) -> float:
    """Signed gap I_u - I_s between the manifolds on the section S = S2.

    Shoots W^u(E1) forward and W^s(E0) in reversed time to their first
    crossings of S = S2 with original-field dS/dt < 0. Requires r0 > 2 and
    0 < p < p_t(r0) so that E0, E1 are interior-facing saddles and E2
    (hence the section) is interior. The gap is negative below the
    connection, positive above it (W^u(E1) passes above/outside W^s(E0))
    and smooth in p, which is the premise of the bracketing root solver.
    """
    if r0 <= 2.0:
        raise ValueError(f"splitting needs r0 > 2, got {r0}")
    if not 0.0 < p < atlas.p_t(r0, base):
        raise ValueError(f"splitting needs 0 < p < p_t(r0) = "
                         f"{atlas.p_t(r0, base):.6g}, got {p}")
    params = reduced_to_params(ReducedPoint(r0, p, base))
    e0, e1 = _saddle_pair(params)
    s2 = eqmod.endemic(params).S

    unstable = manifold_shoot(
        e1, "unstable", offset, params, _SHOOT_HORIZON, tol=tol,
        sections=(SectionEvent(s2, -1, terminal=True, name="split-u"),),
        record=False)
    if unstable.terminal.kind != "crossed-section":
        raise NoCrossingError(
            f"W^u(E1) missed the section at (r0, p) = ({r0}, {p}): "
            f"{unstable.terminal.kind} ({unstable.terminal.detail})")

    # stable shot runs in reversed time: original dS/dt < 0 is direction +1
    stable = manifold_shoot(
        e0, "stable", offset, params, _SHOOT_HORIZON, tol=tol,
        sections=(SectionEvent(s2, +1, terminal=True, name="split-s"),),
        record=False)
    if stable.terminal.kind != "crossed-section":
        raise NoCrossingError(
            f"W^s(E0) missed the section at (r0, p) = ({r0}, {p}): "
            f"{stable.terminal.kind} ({stable.terminal.detail})")

    return unstable.terminal.state[1] - stable.terminal.state[1]


@dataclass(frozen=True)
class HetResult:
    r0: float
    p_het: float
    splitting_residual: float
    iterations: int


def _brent(f, a: float, b: float, fa: float, fb: float) -> tuple:
    """Brent's zeroin on a bracket with fa*fb < 0 (Brent 1973, ch. 4).

    Each step takes inverse quadratic interpolation through the last three
    iterates (a secant when only two differ) and falls back to bisection
    when that step would leave the bracket or shrink it too slowly, so the
    bracket always holds the root and convergence is superlinear on a
    smooth f. Stops once the root is bracketed to ``_SOLVE_TOL`` (the
    relative term of Brent's stopping test is below 1e-15 for p in [0, 1]
    and is left out); returns the best iterate b, f(b) and the number of
    evaluations of f.
    """
    tol1 = 0.5 * _SOLVE_TOL
    c, fc = b, fb
    d = e = b - a
    iterations = 0
    while True:
        if fb * fc > 0.0:              # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):          # b is the best iterate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, fb, iterations
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        iterations += 1


def find_het_p(r0: float, base: BaseParams, *,
               offset: float = _SHOOT_OFFSET,
               tol: float = _SHOOT_TOL) -> HetResult:
    """Locate the heteroclinic p at this r0 by Brent's method on the
    splitting.

    The bracket is (0.05*p_sn, min(p_h, 1)): for r0 > 2 the connection
    lies below the Hopf value, which lies below p_t. If the splitting has
    the same sign at both ends the connection lies outside the bracket
    (for instance above p = 1) and SameSignBracketError is raised; a
    NoCrossingError at either end propagates.

    The solver stops once the root is bracketed to 1e-7. ``p_het`` is its
    best iterate, ``splitting_residual`` the absolute splitting there and
    ``iterations`` its evaluations after the two ends.
    """
    def split(p: float) -> float:
        return splitting(r0, p, base, offset=offset, tol=tol)

    lo = 0.05 * atlas.p_sn(r0, base)
    hi = min(atlas.p_h(r0, base), 1.0)
    if not lo < hi:
        raise ValueError(f"empty bracket ({lo}, {hi})")
    s_lo, s_hi = split(lo), split(hi)
    if s_lo * s_hi > 0.0:
        raise SameSignBracketError(
            f"splitting keeps sign {math.copysign(1, s_lo):+.0f} on "
            f"({lo:.6g}, {hi:.6g}) at r0 = {r0}")
    p_het, s_het, iterations = _brent(split, lo, hi, s_lo, s_hi)
    return HetResult(r0, p_het, abs(s_het), iterations)


@dataclass(frozen=True)
class HetRow:
    r0: float
    p_het: float               # nan when the row failed
    splitting_residual: float
    error: str = ""


def _het_worker(args) -> HetRow:
    r0, base, tol = args
    try:
        res = find_het_p(r0, base, tol=tol)
        return HetRow(r0, res.p_het, res.splitting_residual)
    except (NoCrossingError, ValueError) as exc:
        return HetRow(r0, float("nan"), float("nan"), error=str(exc))


def build_het_table(r0_list, base: BaseParams, *, jobs: int = 1,
                    tol: float = _SHOOT_TOL) -> list:
    """Solve the heteroclinic location for each r0; failures become rows
    with NaN and an error message rather than aborting the sweep. With
    jobs > 1 rows are solved in separate processes."""
    tasks = [(float(r0), base, tol) for r0 in r0_list]
    if not tasks:
        return []
    if jobs <= 1 or len(tasks) == 1:
        return [_het_worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_het_worker, tasks))


# ----------------------------------------------------------------------
# power-law fit


@dataclass(frozen=True)
class PowerFit:
    a: float
    b: float
    c: float
    rss: float
    corr: float                  # R^2 of the fit against the data
    iterations: int
    grad_norm: float             # ||grad rss|| at the returned parameters

    def __call__(self, x: float) -> float:
        return self.a * x ** self.b + self.c


def power_fit(points) -> PowerFit:
    """Least-squares fit of y = a*x^b + c by damped Gauss-Newton.

    Initialisation: c0 = min(y) - 0.01, then log-log regression of y - c0
    on x for (a0, b0). Each round solves (J^T J + lam*I) delta = J^T r with
    the analytic Jacobian [x^b, a*x^b*ln x, 1]; lam starts at 1e-3, grows
    tenfold on a rejected step and shrinks tenfold on an accepted one.
    Converged when the step norm is <= 1e-12 or ||grad rss|| <= 1e-10.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    x = np.array([q[0] for q in pts])
    y = np.array([q[1] for q in pts])
    if np.any(x <= 0.0):
        raise ValueError("all x must be positive")

    c = float(np.min(y)) - 0.01
    lx = np.log(x)
    lz = np.log(y - c)
    n = len(x)
    sx, sz = lx.sum(), lz.sum()
    sxx, sxz = (lx * lx).sum(), (lx * lz).sum()
    denom = n * sxx - sx * sx
    if abs(denom) <= 1e-9 * max(1.0, n * sxx + sx * sx):
        raise FitSingularError("x values do not spread")
    b = (n * sxz - sx * sz) / denom
    a = math.exp((sz - b * sx) / n)

    def residuals(av, bv, cv):
        with np.errstate(over="ignore", invalid="ignore"):
            model = av * np.power(x, bv) + cv
        return y - model

    def gradient_norm(av, bv, cv, rv):
        with np.errstate(over="ignore", invalid="ignore"):
            xb = np.power(x, bv)
        jac = np.column_stack([xb, av * xb * lx, np.ones_like(x)])
        return jac, 2.0 * float(np.linalg.norm(jac.T @ rv))

    r = residuals(a, b, c)
    rss = float(r @ r)
    lam = 1e-3
    iterations = 0
    while iterations < _FIT_ROUNDS:
        iterations += 1
        jac, grad = gradient_norm(a, b, c, r)
        if grad <= 1e-10:
            break
        jtr = jac.T @ r
        jtj = jac.T @ jac
        accepted = False
        while lam <= 1e10:
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(3), jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = (a + delta[0], b + delta[1], c + delta[2])
            r_new = residuals(*trial)
            rss_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else math.inf
            if rss_new < rss:
                a, b, c = trial
                r, rss = r_new, rss_new
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            raise FitSingularError(
                "no descent direction under maximal damping (collinear data)")
        if float(np.linalg.norm(delta)) <= 1e-12:
            break
    else:
        raise FitNonConvergence(
            f"no convergence after {_FIT_ROUNDS} rounds (rss={rss:.3e})")

    _, grad = gradient_norm(a, b, c, r)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    corr = 1.0 - rss / ss_tot if ss_tot > 0.0 else 1.0
    return PowerFit(float(a), float(b), float(c), rss, corr, iterations, grad)


def fit_reference_curve() -> PowerFit:
    """Power fit through the embedded reference table."""
    return power_fit(REFERENCE_HET_POINTS)


# ----------------------------------------------------------------------
# the unstable periodic orbit (between the Hopf and heteroclinic values)


@dataclass(frozen=True)
class PeriodicOrbit:
    r0: float
    p: float
    section_S: float             # the section S = S2
    section_I: float             # fixed point of the return map (top crossing)
    period: float
    floquet: float               # nontrivial multiplier, > 1: unstable
    return_residual: float
    t: np.ndarray                # one full loop, forward-time orientation
    states: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "r0": self.r0, "p": self.p,
            "section": {"S": self.section_S, "I": self.section_I},
            "period": self.period,
            "floquet": self.floquet,
            "return_residual": self.return_residual,
            "loop": {"t": [float(v) for v in self.t],
                     "S": [float(v) for v in self.states[:, 0]],
                     "I": [float(v) for v in self.states[:, 1]]},
        }


def _return_map(I_value: float, params: ModelParams, s2: float, *,
                reverse: bool, tol: float, record: bool = False) -> Trajectory:
    """One traversal of the section-to-section map starting at (S2, I).

    Top-half crossings have original dS/dt < 0, which the reversed field
    sees as +1; the crossing's I is the mapped value.
    """
    direction = +1 if reverse else -1
    return integrate((s2, I_value), params, _LOOP_HORIZON, tol=tol,
                     reverse_time=reverse,
                     sections=(SectionEvent(s2, direction, terminal=True,
                                            name="return"),),
                     record=record)


def find_periodic_orbit(r0: float, p: float, base: BaseParams, *,
                        het_p: float | None = None, tol: float = 1e-10,
                        return_tol: float = 1e-9) -> PeriodicOrbit:
    """Find the unstable cycle around E2 for p strictly between the Hopf
    and heteroclinic values at this r0.

    In reversed time the cycle attracts everything between E2 and itself,
    so iterating the reversed return map on S = S2 from a ladder of start
    heights converges to its section height; a secant refinement then
    polishes the fixed point to ``return_tol``. The period is read off the
    converged loop and the Floquet multiplier from a centred difference
    (step 1e-6) of the original-time return map, which must exceed 1.

    ``het_p`` skips re-solving the heteroclinic location when the caller
    already has it (otherwise find_het_p runs first).
    """
    ph = atlas.p_h(r0, base)
    if het_p is None:
        het_p = find_het_p(r0, base).p_het
    lo, hi = sorted((ph, float(het_p)))
    if not lo < p < hi:
        raise NotInRegionEError(
            f"p = {p} is not inside the cycle band ({lo:.6g}, {hi:.6g}) "
            f"at r0 = {r0}")
    params = reduced_to_params(ReducedPoint(r0, p, base))
    e2 = eqmod.endemic(params)
    if e2.stability is not StabilityClass.SINK_FOCUS:
        raise NotInRegionEError(
            f"E2 is {e2.stability.value} here, not the stable focus the "
            "cycle surrounds")
    s2, i2 = e2.S, e2.I
    headroom = invariant_region_bound(params) - s2 - i2
    if headroom <= 0.0:
        raise MislabeledRegionError("no interior headroom above E2")

    def rev_map(I_value: float, record: bool = False) -> Trajectory:
        return _return_map(I_value, params, s2, reverse=True, tol=tol,
                           record=record)

    fixed = None
    for frac in (0.2, 0.05, 0.01, 1e-3, 1e-4):
        I_cur = i2 + frac * headroom
        ok = True
        prev = None
        for _ in range(300):
            traj = rev_map(I_cur)
            if traj.terminal.kind != "crossed-section":
                ok = False
                break
            I_next = traj.terminal.state[1]
            if abs(I_next - I_cur) <= return_tol:
                prev = (I_cur, I_next - I_cur)
                I_cur = I_next
                break
            prev = (I_cur, I_next - I_cur)
            I_cur = I_next
        if not ok or prev is None:
            continue
        # secant polish on g(I) = P(I) - I; the loop recorded from I_b is
        # kept with it, so the converged cycle is not integrated again
        I_a, g_a = prev
        I_b = I_cur
        loop = rev_map(I_b, record=True)
        if loop.terminal.kind != "crossed-section":
            continue
        g_b = loop.terminal.state[1] - I_b
        for _ in range(40):
            if abs(g_b) <= return_tol:
                break
            if g_b == g_a or I_a == I_b:
                break
            I_new = I_b - g_b * (I_b - I_a) / (g_b - g_a)
            if not i2 < I_new < i2 + headroom:
                break
            traj = rev_map(I_new, record=True)
            if traj.terminal.kind != "crossed-section":
                break
            I_a, g_a = I_b, g_b
            I_b, loop = I_new, traj
            g_b = traj.terminal.state[1] - I_new
        if abs(g_b) <= max(return_tol, 1e-8):
            fixed = (I_b, abs(g_b), loop)
            break
    if fixed is None:
        raise MislabeledRegionError(
            f"no attracting reversed cycle found at (r0, p) = ({r0}, {p}); "
            "every start escaped or failed to return")

    I_star, residual, loop = fixed
    period = loop.terminal.t

    step = min(1e-6, 0.1 * (I_star - i2))
    up = _return_map(I_star + step, params, s2, reverse=False, tol=tol)
    dn = _return_map(I_star - step, params, s2, reverse=False, tol=tol)
    if up.terminal.kind != "crossed-section" or dn.terminal.kind != "crossed-section":
        raise MislabeledRegionError(
            "forward return map undefined next to the cycle (no crossing)")
    floquet = (up.terminal.state[1] - dn.terminal.state[1]) / (2.0 * step)

    # present the loop in forward-time orientation
    t_rev = loop.t
    t_fwd = (period - t_rev)[::-1].copy()
    states_fwd = loop.states[::-1].copy()
    return PeriodicOrbit(
        r0=r0, p=p, section_S=s2, section_I=I_star, period=period,
        floquet=float(floquet), return_residual=residual,
        t=t_fwd, states=states_fwd)
