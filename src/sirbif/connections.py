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
time-reversed return map on the same section, the zero of its gap
P(I) - I, solved by the same Brent iteration on one bracket between E2 and
the invariant region's edge. The cycle certifies itself: its loop must
close to a small residual, which fails below the connection, and its
nontrivial Floquet multiplier is the loop integral of div f (Liouville's
formula), so no heteroclinic value is needed.
"""
from __future__ import annotations

import math

from .model import BaseParams, ModelParams, ReducedPoint, _Record, invariant_region_bound, reduced_to_params
from . import atlas
from . import equilibria as eqmod
from .equilibria import StabilityClass
from .integrate import (
    SectionEvent,
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

_SHOOT_TOL = 1e-10
_SHOOT_HORIZON = 900.0
_SOLVE_TOL = 1e-7          # Brent stops once its bracket is this narrow
_LOOP_HORIZON = 800.0      # time allowed for one traversal of the return map
_RETURN_TOL = 1e-9         # fixed-point tolerance of the return map
_CLOSE_TOL = 10 * _RETURN_TOL   # largest return residual of a certified cycle
_FIT_ROUNDS = 500


class NoCrossingError(RuntimeError):
    """A manifold shot ended (horizon/escape) without reaching the section."""


class SameSignBracketError(ValueError):
    """The splitting does not change sign on the heteroclinic bracket."""


class NotInRegionEError(ValueError):
    """No cycle band here: r0 <= 2, or E2 is not the stable focus inside it."""


class MislabeledRegionError(RuntimeError):
    """The reversed return map brackets no cycle, or its loop does not close."""


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

    # the stable shot runs in reversed time: original dS/dt < 0 is +1 there
    heights = []
    for eq, kind, sign, name in ((e1, "unstable", -1, "W^u(E1)"),
                                 (e0, "stable", +1, "W^s(E0)")):
        shot = manifold_shoot(
            eq, kind, params, _SHOOT_HORIZON, tol=tol,
            sections=(SectionEvent(s2, sign, name="split"),))
        if shot.terminal.kind != "crossed-section":
            raise NoCrossingError(
                f"{name} missed the section at (r0, p) = ({r0}, {p}): "
                f"{shot.terminal.kind} ({shot.terminal.detail})")
        heights.append(shot.terminal.state[1])
    return heights[0] - heights[1]


class HetResult(_Record):
    r0: float
    p_het: float               # nan when a table row failed
    splitting_residual: float
    iterations: int
    error: str = ""


def _brent(f, a: float, b: float, fa: float, fb: float, tol: float,
           stop=None) -> tuple:
    """Brent's zeroin on a bracket with fa*fb < 0 (Brent 1973, ch. 4).

    Each step takes inverse quadratic interpolation through the last three
    iterates (a secant when only two differ) and falls back to bisection
    when that step would leave the bracket or shrink it too slowly, so the
    bracket always holds the root and convergence is superlinear on a
    smooth f. Stops once the root is bracketed to ``tol`` (the relative
    term of Brent's stopping test is below 1e-15 for arguments of order 1
    and is left out), or earlier once ``stop(b, fb, c, fc)`` is true of the
    bracket [b, c]; returns the best iterate b, f(b) and the number of
    evaluations of f.
    """
    tol1 = 0.5 * tol
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
        if abs(xm) <= tol1 or fb == 0.0 or (stop and stop(b, fb, c, fc)):
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
               tol: float = _SHOOT_TOL) -> HetResult:
    """Locate the heteroclinic p at this r0 by Brent's method on the
    splitting.

    The bracket is (0.05*hi, hi) with hi = min(p_h, 1): for r0 > 2 the
    connection lies below the Hopf value, which lies below p_t. If the
    splitting has the same sign at both ends the connection lies outside
    the bracket (for instance above p = 1) and SameSignBracketError is
    raised; a NoCrossingError at either end propagates.

    The solver stops once the root is bracketed to 1e-7. ``p_het`` is its
    best iterate, ``splitting_residual`` the absolute splitting there and
    ``iterations`` its evaluations after the two ends.
    """
    def split(p: float) -> float:
        return splitting(r0, p, base, tol=tol)

    hi = min(atlas.p_h(r0, base), 1.0)
    lo = 0.05 * hi
    s_lo, s_hi = split(lo), split(hi)
    if s_lo * s_hi > 0.0:
        raise SameSignBracketError(
            f"splitting keeps sign {math.copysign(1, s_lo):+.0f} on "
            f"({lo:.6g}, {hi:.6g}) at r0 = {r0}")
    p_het, s_het, iterations = _brent(split, lo, hi, s_lo, s_hi, _SOLVE_TOL)
    return HetResult(r0, p_het, abs(s_het), iterations)


def _het_worker(args) -> HetResult:
    r0, base, tol = args
    try:
        return find_het_p(r0, base, tol=tol)
    except (NoCrossingError, ValueError) as exc:
        return HetResult(r0, float("nan"), float("nan"), 0, error=str(exc))


def build_het_table(r0_list, base: BaseParams, *, jobs: int = 1,
                    tol: float = _SHOOT_TOL) -> list:
    """Solve the heteroclinic location for each r0; failures become rows
    with NaN and an error message rather than aborting the sweep. With
    jobs > 1 rows are solved in separate processes."""
    tasks = [(float(r0), base, tol) for r0 in r0_list]
    if jobs <= 1 or len(tasks) <= 1:
        return [_het_worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_het_worker, tasks))


# ----------------------------------------------------------------------
# power-law fit


class PowerFit(_Record):
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
    x, y = [q[0] for q in pts], [q[1] for q in pts]
    if not all(math.isfinite(v) for v in x + y):
        raise ValueError("all x and y must be finite")
    if min(x) <= 0.0:
        raise ValueError("all x must be positive")

    c = min(y) - 0.01
    if c == min(y):
        raise FitSingularError("y values too large to fit: min(y) - 0.01 "
                               f"rounds to min(y) = {c!r}")
    lx = [math.log(v) for v in x]
    lz = [math.log(v - c) for v in y]
    n = len(x)
    sx, sz = sum(lx), sum(lz)
    sxx, sxz = sum(v * v for v in lx), sum(u * v for u, v in zip(lx, lz))
    denom = n * sxx - sx * sx
    if abs(denom) <= 1e-9 * max(1.0, n * sxx + sx * sx):
        raise FitSingularError("x values do not spread")
    b = (n * sxz - sx * sz) / denom
    a = math.exp((sz - b * sx) / n)

    def residuals(av, bv, cv):
        # (r, rss); a non-finite r, or x**b overflowing, is an infinite rss
        try:
            rv = [yi - (av * xi ** bv + cv) for xi, yi in zip(x, y)]
        except OverflowError:
            return None, math.inf
        ss = sum(v * v for v in rv)
        return rv, ss if math.isfinite(ss) else math.inf

    def normal_equations(av, bv, rv):
        # J^T J and J^T r for the Jacobian rows [x^b, a*x^b*ln x, 1]
        jac = [(xb, av * xb * li, 1.0)
               for xb, li in zip((xi ** bv for xi in x), lx)]
        return ([[sum(u[i] * u[j] for u in jac) for j in range(3)]
                 for i in range(3)],
                [sum(u[i] * ri for u, ri in zip(jac, rv)) for i in range(3)])

    r, rss = residuals(a, b, c)
    if r is None:
        raise FitSingularError("x**b overflows at the log-log start")
    lam = 1e-3
    iterations = 0
    while iterations < _FIT_ROUNDS:
        iterations += 1
        jtj, jtr = normal_equations(a, b, r)
        if 2.0 * math.hypot(*jtr) <= 1e-10:
            break
        accepted = False
        while lam <= 1e10:
            delta = _solve3(jtj, jtr, lam)
            if delta is None:
                lam *= 10.0
                continue
            trial = (a + delta[0], b + delta[1], c + delta[2])
            r_new, rss_new = residuals(*trial)
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
        if math.hypot(*delta) <= 1e-12:
            break
    else:
        raise FitNonConvergence(
            f"no convergence after {_FIT_ROUNDS} rounds (rss={rss:.3e})")

    grad = 2.0 * math.hypot(*normal_equations(a, b, r)[1])
    mean = sum(y) / n
    ss_tot = sum((v - mean) ** 2 for v in y)
    corr = 1.0 - rss / ss_tot if ss_tot > 0.0 else 1.0
    return PowerFit(a, b, c, rss, corr, iterations, grad)


def _solve3(m, v, lam: float):
    """Solve (m + lam*I) z = v for a 3x3 m by Gaussian elimination with
    partial pivoting; None when a pivot is exactly zero (a singular matrix)."""
    rows = [[*mi, vi] for mi, vi in zip(m, v)]
    for k in range(3):
        rows[k][k] += lam
    for k in range(3):
        piv = max(range(k, 3), key=lambda i: abs(rows[i][k]))
        if rows[piv][k] == 0.0:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [u - f * w for u, w in zip(row[k:], rows[k][k:])]
    z = [0.0, 0.0, 0.0]
    for i in (2, 1, 0):
        z[i] = (rows[i][3] - sum(rows[i][j] * z[j] for j in range(i + 1, 3))
                ) / rows[i][i]
    return z


def fit_reference_curve() -> PowerFit:
    """Power fit through the embedded reference table."""
    return power_fit(REFERENCE_HET_POINTS)


# ----------------------------------------------------------------------
# the unstable periodic orbit (between the Hopf and heteroclinic values)


class PeriodicOrbit(_Record):
    r0: float
    p: float
    section_S: float             # the section S = S2
    section_I: float             # fixed point of the return map (top crossing)
    period: float
    floquet: float               # nontrivial multiplier, > 1: unstable
    return_residual: float
    t: tuple                     # one full loop, forward-time orientation
    states: tuple                # (S, I) float pairs, one per t

    def to_json_dict(self) -> dict:
        return {
            "r0": self.r0, "p": self.p,
            "section": {"S": self.section_S, "I": self.section_I},
            "period": self.period,
            "floquet": self.floquet,
            "return_residual": self.return_residual,
            "loop": {"t": list(self.t),
                     "S": [x[0] for x in self.states],
                     "I": [x[1] for x in self.states]},
        }


def find_periodic_orbit(r0: float, p: float, base: BaseParams, *,
                        tol: float = 1e-10) -> PeriodicOrbit:
    """Find the unstable cycle around E2 for p strictly between the
    heteroclinic and Hopf values at this r0.

    Without a band here (r0 <= 2, or E2 not a stable focus)
    NotInRegionEError is raised. The cycle's section height I* is the zero
    of the gap P(I) - I of the reversed return map P on S = S2, found by
    Brent's method to 1e-9 on the bracket [I2 + 1e-4 h, I2 + h], with h the
    headroom between E2 and the invariant region's edge. The gap is
    positive at the bottom (E2 repels in reversed time) and negative at the
    top (outside the cycle a reversed orbit returns lower or escapes); an
    escape counts as -h, which may slow a Brent step but cannot lose the
    sign change. A reversed run escapes when it crosses S = A, since it can
    never return into the forward-invariant region, or when it leaves the
    domain. Without that sign change MislabeledRegionError is raised.

    The period and ``return_residual`` = |P(I*) - I*| are read from the run
    Brent made at I*. Below the connection the gap jumps over zero without a
    root, so a residual above 10 times the bracket raises
    MislabeledRegionError too. Brent stops closing in on such a jump once
    the return from its lower end lies above its escaping upper end by more
    than that bound: P is increasing, so no point left in the bracket can
    close. The Floquet multiplier is exp of the loop integral of div f
    (Liouville's formula for a planar cycle), exact on the recorded Hermite
    steps because div f is linear in the state.
    """
    if not r0 > 2.0:
        raise NotInRegionEError(
            f"no cycle band at r0 = {r0}: the band needs r0 > 2")
    params = reduced_to_params(ReducedPoint(r0, p, base))
    e2 = eqmod.endemic(params)
    if e2.stability is not StabilityClass.SINK_FOCUS:
        raise NotInRegionEError(
            f"p = {p} is not inside the cycle band at r0 = {r0}: E2 is "
            f"{e2.stability.value}, not the stable focus the cycle surrounds")
    s2, i2 = e2.S, e2.I
    headroom = invariant_region_bound(params) - s2 - i2
    if headroom <= 0.0:
        raise MislabeledRegionError("no interior headroom above E2")

    # reversed, the top-half crossings (original dS/dt < 0) have direction +1;
    # the invariant region M = {0 <= S <= A, S + I <= bound} is forward
    # invariant, so a reversed run that leaves it across S = A never returns
    sections = (SectionEvent(s2, +1, name="return"),
                SectionEvent(params.A, +1, name="escape"))

    runs = {}                    # the return map's run from each live start

    def gap(I_value: float) -> float:
        traj = runs[I_value] = integrate(
            (s2, I_value), params, _LOOP_HORIZON, tol=tol, reverse_time=True,
            sections=sections)
        if traj.terminal.section != "return":
            return -headroom     # escaped: the start lies outside the cycle
        return traj.terminal.state[1] - I_value

    bottom, top = i2 + 1e-4 * headroom, i2 + headroom
    g_bottom, g_top = gap(bottom), gap(top)
    if not g_bottom > 0.0 > g_top:
        raise MislabeledRegionError(
            f"reversed return map does not bracket a cycle at (r0, p) = "
            f"({r0}, {p}): gap {g_bottom:.3e} at I = {bottom:.6g} and "
            f"{g_top:.3e} at I = {top:.6g}")

    def no_cycle_left(b, fb, c, fc):
        # every later bracket end, the returned I* among them, is b, c or a
        # point not yet evaluated, so no other run can still be read
        for I_value in runs.keys() - {b, c}:
            del runs[I_value]
        # P is increasing (orbits in the plane do not cross), so any J above
        # the positive end lo that returns has a gap above P(lo) - J. Once
        # P(lo) lies beyond an escaping end by more than the closing gate's
        # tolerance, no iterate left in the bracket can pass the gate.
        lo, g_lo, hi, g_hi = (b, fb, c, fc) if fb > 0.0 else (c, fc, b, fb)
        return g_hi == -headroom and lo + g_lo - hi > _CLOSE_TOL

    I_star, g_star, _ = _brent(gap, bottom, top, g_bottom, g_top,
                               _RETURN_TOL, stop=no_cycle_left)
    loop = runs[I_star]
    if loop.terminal.section != "return":
        raise MislabeledRegionError(
            f"the loop from the cycle's section point I = {I_star!r} does "
            f"not return at (r0, p) = ({r0}, {p}): "
            f"{loop.terminal.section or loop.terminal.kind}")
    residual = abs(g_star)
    if residual > _CLOSE_TOL:
        raise MislabeledRegionError(
            f"no cycle at (r0, p) = ({r0}, {p}): the loop from I = "
            f"{I_star!r} misses its start by {residual:.3e} > {_CLOSE_TOL:g} "
            "(as when p lies below the heteroclinic connection)")
    period = loop.terminal.t

    # Liouville: the multiplier is exp of the loop integral of div f =
    # (A - u) + (beta - 2) S - beta I, integrated exactly on each Hermite step
    t, x, f = loop.t, loop.states, loop.derivs
    steps = [(t[k + 1] - t[k], k) for k in range(len(t) - 1)]
    int_S, int_I = (sum(0.5 * h * (x[k][i] + x[k + 1][i])
                        + h * h / 12.0 * (f[k][i] - f[k + 1][i])
                        for h, k in steps) for i in (0, 1))
    floquet = math.exp((params.A - params.removal) * period
                       + (params.beta - 2.0) * int_S - params.beta * int_I)

    # present the loop in forward-time orientation
    return PeriodicOrbit(
        r0=r0, p=p, section_S=s2, section_I=I_star, period=period,
        floquet=floquet, return_residual=residual,
        t=tuple(period - v for v in reversed(t)), states=x[::-1])
