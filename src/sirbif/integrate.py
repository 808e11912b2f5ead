"""Adaptive Runge-Kutta integration of the planar field with events.

The stepper is an explicit Dormand-Prince 5(4) pair (FSAL) with
proportional-integral step-size control and a mixed absolute/relative error
norm, err_i / (atol + rtol*|x_i|) with atol = rtol = tol. Dense output is
cubic Hermite on each accepted step and is used to localise the section
crossing that stops a run to |residual| <= 1e-10.

The step runs as one fused kernel on scalar locals: each stage evaluates
the same field expressions as the closure f, inline, and the error norm,
the step clamp and the controller of an accepted step compare floats
instead of calling max, min and abs.
Every float operation keeps its order, so the result is bit-identical to
calling f on a tuple per stage; those calls and tuples cost about a third
of a step. f itself serves the cold paths: the first step, the wall test at
the start, the I clamp and the state at a section hit.

Every section lies on S, so the event scan works on the S-cubic of each
step in Bernstein form (Lane & Riesenfeld, IEEE PAMI 3, 1981; Hairer,
Nørsett & Wanner, Solving ODEs I, sec. II.6). A section outside the hull of
the step's four control ordinates cannot be crossed in the step and is
skipped after two comparisons; the few steps whose hull straddles a section
are cut at the cubic's turning points into pieces monotone in S, and the
earliest piece whose end values change sign in the section's direction is
bisected (see _bracket_roots).

Two model-specific behaviours live here:

* the absorbing S = 0 wall, met only in forward time (reversed, dS/dt =
  +p*m >= 0 there): a run whose step crosses S = 1e-12 going down is trimmed
  to the crossing, S is clamped to 0, and the rest of the run is the closed
  form of the wall flow dS/dt = 0, dI/dt = -(sigma+g)I, one sample at t_end.
  The wall is scanned like any other section, ahead of the caller's.
* shooting from a saddle off a series parameterization of its manifold,
  forward along the unstable one or in reversed time (field negated) along
  the stable one.

Trajectories are immutable once returned; independent integrations share
nothing and may run concurrently.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

from .model import TOL_RANGE, ModelParams, _Record, invariant_region_bound
from . import equilibria as eqmod
from .equilibria import _SINKS, Equilibrium, StabilityClass, _jacobian_entries

__all__ = [
    "SectionEvent",
    "TerminalEvent",
    "Crossing",
    "IntegrationStats",
    "Trajectory",
    "StepFailure",
    "integrate",
    "omega_limit_estimate",
    "OmegaLimitResult",
    "manifold_shoot",
    "recover_recovered",
    "WALL_CLAMP",
    "TOL_RANGE",
]

#: S below this, going down in forward time, is clamped to the wall
WALL_CLAMP = 1e-12

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is f at the endpoint).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# b - bhat: weights of the embedded error estimate (includes the FSAL stage)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_ALPHA = 0.17          # err exponent in the PI controller
_BETA = 0.04           # memory exponent
_FAC_MIN, _FAC_MAX = 0.2, 5.0
_MAX_STEPS = 2_000_000

# the event scan's hull prefilter (see _hull) widens the hull by this, in
# units of the largest |ordinate|
_HULL_PAD = 2.0 ** -46


class StepFailure(RuntimeError):
    """Raised when ``integrate`` exhausts its step budget, and when
    ``omega_limit_estimate`` meets a 'step-failure' terminal (a step-size
    underflow or I undershooting the axis), which only ends other runs."""


class SectionEvent(_Record):
    """The section S = value, detected and localised in one direction.

    direction: -1 for crossings with S decreasing, +1 for S increasing
    (the sign of dS/dt in the active, possibly negated, field). The run
    stops at the first such crossing.
    """
    value: float
    direction: int
    name: str = "section"

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError(f"direction must be -1 or +1, got {self.direction}")


# scanned ahead of the caller's sections in forward runs
_WALL = SectionEvent(WALL_CLAMP, -1, name="wall")


class Crossing(_Record):
    name: str
    t: float
    state: tuple
    direction: int               # -1 or +1, sign of dS/dt


class TerminalEvent(_Record):
    kind: str                    # time-horizon | crossed-section | trapped |
                                 # left-domain | step-failure
    t: float
    state: tuple
    section: str | None = None
    direction: int = 0
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "t": self.t,
               "state": {"S": self.state[0], "I": self.state[1]}}
        if self.section is not None:
            out["section"] = self.section
            out["direction"] = self.direction
        if self.detail:
            out["detail"] = self.detail
        return out


class IntegrationStats(_Record):
    steps_accepted: int
    steps_rejected: int
    max_error_estimate: float
    field_evals: int


class Trajectory(_Record):
    """An integration result: samples, crossings, terminal event, stats.

    t is strictly increasing (elapsed integration time; for reversed runs it
    is elapsed *backward* time). interpolate() evaluates the cubic Hermite
    dense output; at the wall point the stored derivative is the wall-side
    one. After it a forward run has one more sample, the end, and in between
    it is the exact wall decay I_w exp(-(sigma+g)(t - t_w)).
    """
    t: tuple                     # floats
    states: tuple                # (S, I) float pairs, one per t
    derivs: tuple                # (S, I) pairs, active-field derivatives
    crossings: tuple             # the wall crossing, if any; the stop is terminal
    terminal: TerminalEvent
    stats: IntegrationStats
    params: ModelParams
    reversed_time: bool
    tol: float

    @property
    def final_state(self) -> tuple:
        return self.states[-1]

    @property
    def on_wall(self) -> bool:
        return self.states[-1][0] == 0.0

    @property
    def _wall_tail(self) -> bool:
        # only the wall point and the closed-form end have S == 0 going forward
        return not self.reversed_time and all(x[0] == 0.0 for x in self.states[-2:])

    def interpolate(self, t_query: float) -> tuple:
        t = self.t
        if not t[0] <= t_query <= t[-1]:
            raise ValueError(f"t={t_query} outside [{t[0]}, {t[-1]}]")
        j = min(max(bisect_right(t, t_query), 1), len(t) - 1)
        t0 = t[j - 1]
        h = t[j] - t0
        if h == 0.0:
            return self.states[j]
        if j == len(t) - 1 and self._wall_tail:
            decay = math.exp(-self.params.removal * (t_query - t0))
            return (0.0, self.states[j - 1][1] * decay)
        theta = (t_query - t0) / h
        (S0, I0), (S1, I1) = self.states[j - 1], self.states[j]
        (fS0, fI0), (fS1, fI1) = self.derivs[j - 1], self.derivs[j]
        return (_hermite(theta, h, S0, fS0, S1, fS1),
                _hermite(theta, h, I0, fI0, I1, fI1))

    def to_json_dict(self) -> dict:
        return {
            "t": list(self.t),
            "S": [x[0] for x in self.states],
            "I": [x[1] for x in self.states],
            "crossings": [
                {"name": c.name, "t": c.t, "S": c.state[0], "I": c.state[1],
                 "direction": c.direction}
                for c in self.crossings
            ],
            "terminal": self.terminal.to_json_dict(),
            "stats": dict(vars(self.stats)),
            "reversed_time": self.reversed_time,
            "tol": self.tol,
            "params": self.params.to_dict(),
        }


def _hermite(theta, h, x0, f0, x1, f1):
    """Cubic Hermite interpolant of one float component at theta in [0, 1]."""
    t2 = theta * theta
    h00 = (1.0 + 2.0 * theta) * (1.0 - theta) * (1.0 - theta)
    h10 = theta * (1.0 - theta) * (1.0 - theta)
    h01 = t2 * (3.0 - 2.0 * theta)
    h11 = t2 * (theta - 1.0)
    return h00 * x0 + h10 * h * f0 + h01 * x1 + h11 * h * f1


def _initial_step(f, x0, f0, t_span, atol, rtol):
    w0 = (atol + rtol * abs(x0[0]), atol + rtol * abs(x0[1]))
    d0 = math.sqrt(((x0[0] / w0[0]) ** 2 + (x0[1] / w0[1]) ** 2) / 2.0)
    d1 = math.sqrt(((f0[0] / w0[0]) ** 2 + (f0[1] / w0[1]) ** 2) / 2.0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    x1 = (x0[0] + h0 * f0[0], x0[1] + h0 * f0[1])
    f1 = f(x1)
    d2 = math.sqrt((((f1[0] - f0[0]) / w0[0]) ** 2
                    + ((f1[1] - f0[1]) / w0[1]) ** 2) / 2.0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_span)


def integrate(x0, params: ModelParams, t_end: float, *, tol: float = 1e-8,
              reverse_time: bool = False, sections=(), traps=()) -> Trajectory:
    """Integrate from x0 over [0, t_end] (elapsed time; the field is negated
    when reverse_time is set).

    The run stops with 'crossed-section' at the first crossing of any of the
    SectionEvents in sections, found in each step by the exact hull scan
    (_hull, _bracket_roots); the scan never changes a step. A forward run
    scans the downward wall section S = WALL_CLAMP ahead of them, and a tie
    goes to the section scanned first, so to the wall; once it crosses
    the wall, or if it starts there, it takes no more steps and ends with a
    'time-horizon' sample at t_end, (0, I_w exp(-(sigma+g)(t_end - t_w))).
    The run ends with 'left-domain' once max(|S|, |I|) exceeds 50 times the
    invariant-region height, which only reversed runs ever reach, or at
    t = 0 with no step taken when a start off the wall already lies beyond
    it.

    traps holds ellipses (centre, P, level), centre an (S, I) pair and P a
    symmetric 2x2 ((pSS, pSI), (pSI, pII)). The run ends with 'trapped' as
    soon as its state x, at a start off the wall or after an accepted step
    that crossed no section, has (x - centre)^T P (x - centre) < level for
    one of them; that state is its last sample. omega_limit_estimate arms
    the Lyapunov ellipses of the sinks, which a run never leaves once
    inside.

    The step size underflowing 1e-14*max(1, t) yields a 'step-failure'
    terminal rather than an exception.
    """
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"tol must lie in {TOL_RANGE}, got {tol}")
    S0, I0 = float(x0[0]), float(x0[1])
    if not (math.isfinite(S0) and math.isfinite(I0)):
        raise ValueError(f"non-finite initial state {x0}")
    if S0 < -1e-12 or I0 < -1e-12:
        raise ValueError(f"initial state outside the closed quadrant: {x0}")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"need finite t_end > t0 = 0, got {t_end}")

    A = params.A
    beta = params.beta
    u = params.removal
    pm = params.p * params.m
    sgn = -1.0 if reverse_time else 1.0
    bound = 50.0 * max(1.0, invariant_region_bound(params))

    def f(x):
        S, I = x
        return (sgn * (S * (A - S) - beta * I * S - pm),
                sgn * (beta * I * S - u * I))

    # only a forward run meets the wall: reversed, S' = +pm >= 0 at S = 0
    on_wall = not reverse_time and (
        S0 == 0.0 or (S0 < WALL_CLAMP and f((S0, I0))[0] < 0.0))
    # any other start beyond the bound ends there: its first error norm
    # can overflow
    far = not on_wall and max(abs(S0), abs(I0)) > bound
    t, x = 0.0, ((0.0, I0) if on_wall else (S0, I0))
    fx = (0.0, -u * I0) if on_wall else f(x)
    evals = 0 if on_wall else 1
    ts, xs, fs = [t], [x], [fx]
    crossings: list = []
    terminal: TerminalEvent | None = None
    accepted = rejected = 0
    max_err = 0.0
    armed = tuple(sections) if reverse_time else (_WALL, *sections)

    if far:
        terminal = TerminalEvent("left-domain", t, x,
                                 detail=f"|x| exceeded {bound:g}")
    elif not on_wall and traps and any(_in_trap(trap, x) for trap in traps):
        terminal = TerminalEvent("trapped", t, x)
    elif not on_wall:
        h = _initial_step(f, x, fx, t_end, tol, tol)
        evals += 1
    facold = 1e-4
    t_last = t_end - 1e-14 * max(1.0, t_end)

    while terminal is None and not on_wall:
        if accepted + rejected > _MAX_STEPS:
            raise StepFailure(f"step budget exhausted ({_MAX_STEPS}) at t={t}")
        if h < 1e-14 * (t if t > 1.0 else 1.0):
            terminal = TerminalEvent("step-failure", t, x,
                                     detail=f"step size underflow h={h:.3e}")
            break
        rest = t_end - t
        if rest < h:
            h = rest
        last = t + h >= t_last

        S, I = x
        k1S, k1I = fx
        Sa = S + h * _A21 * k1S
        Ia = I + h * _A21 * k1I
        k2S = sgn * (Sa * (A - Sa) - beta * Ia * Sa - pm)
        k2I = sgn * (beta * Ia * Sa - u * Ia)
        Sa = S + h * (_A31 * k1S + _A32 * k2S)
        Ia = I + h * (_A31 * k1I + _A32 * k2I)
        k3S = sgn * (Sa * (A - Sa) - beta * Ia * Sa - pm)
        k3I = sgn * (beta * Ia * Sa - u * Ia)
        Sa = S + h * (_A41 * k1S + _A42 * k2S + _A43 * k3S)
        Ia = I + h * (_A41 * k1I + _A42 * k2I + _A43 * k3I)
        k4S = sgn * (Sa * (A - Sa) - beta * Ia * Sa - pm)
        k4I = sgn * (beta * Ia * Sa - u * Ia)
        Sa = S + h * (_A51 * k1S + _A52 * k2S + _A53 * k3S + _A54 * k4S)
        Ia = I + h * (_A51 * k1I + _A52 * k2I + _A53 * k3I + _A54 * k4I)
        k5S = sgn * (Sa * (A - Sa) - beta * Ia * Sa - pm)
        k5I = sgn * (beta * Ia * Sa - u * Ia)
        Sa = S + h * (_A61 * k1S + _A62 * k2S + _A63 * k3S + _A64 * k4S
                      + _A65 * k5S)
        Ia = I + h * (_A61 * k1I + _A62 * k2I + _A63 * k3I + _A64 * k4I
                      + _A65 * k5I)
        k6S = sgn * (Sa * (A - Sa) - beta * Ia * Sa - pm)
        k6I = sgn * (beta * Ia * Sa - u * Ia)
        Sn = S + h * (_B1 * k1S + _B3 * k3S + _B4 * k4S + _B5 * k5S
                      + _B6 * k6S)
        In = I + h * (_B1 * k1I + _B3 * k3I + _B4 * k4I + _B5 * k5I
                      + _B6 * k6I)
        k7 = (sgn * (Sn * (A - Sn) - beta * In * Sn - pm),
              sgn * (beta * In * Sn - u * In))
        evals += 6

        eS = h * (_E1 * k1S + _E3 * k3S + _E4 * k4S + _E5 * k5S
                  + _E6 * k6S + _E7 * k7[0])
        eI = h * (_E1 * k1I + _E3 * k3I + _E4 * k4I + _E5 * k5I
                  + _E6 * k6I + _E7 * k7[1])
        # abs and max by comparisons; max(a, b) is b if b > a else a
        aS, aSn = (-S if S < 0.0 else S), (-Sn if Sn < 0.0 else Sn)
        aI, aIn = (-I if I < 0.0 else I), (-In if In < 0.0 else In)
        wS = tol + tol * (aSn if aSn > aS else aS)
        wI = tol + tol * (aIn if aIn > aI else aI)
        err = math.sqrt(((eS / wS) ** 2 + (eI / wI) ** 2) / 2.0)

        if err > 1.0:
            rejected += 1
            h *= max(_FAC_MIN, min(1.0, _SAFETY * err ** (-_ALPHA)))
            continue

        accepted += 1
        if err > max_err:
            max_err = err
        t_new = t_end if last else t + h
        x_new = (Sn, In)
        f_new = k7

        # quadrant housekeeping: clamp a tiny numerical undershoot of I = 0
        if In < 0.0:
            if In < -1e-9:
                terminal = TerminalEvent(
                    "step-failure", t_new, x_new,
                    detail=f"I undershot the axis: {In:.3e}")
                break
            x_new = (Sn, 0.0)
            f_new = f(x_new)
            evals += 1

        # the earliest crossing in the step, the first section winning a tie;
        # a section outside the hull of the step's S-cubic cannot be crossed
        dt = t_new - t
        lo, hi, c1, c2 = _hull(S, k1S, Sn, f_new[0], dt)
        hit = None
        for sec in armed:
            if lo <= sec.value <= hi:
                found = _bracket_roots(t, x, fx, x_new, f_new, dt, c1, c2, sec)
                if found and (hit is None or found[0] < hit[0]):
                    hit = found
        if hit:
            t, x_hit, sec = hit
            if sec is _WALL:
                x = (0.0, max(x_hit[1], 0.0))
                on_wall = True
                crossings.append(Crossing("wall", t, x, -1))
                ts.append(t), xs.append(x), fs.append((0.0, -u * x[1]))
                break
            x = x_hit
            fx = f(x)
            evals += 1
            terminal = TerminalEvent("crossed-section", t, x,
                                     section=sec.name, direction=sec.direction)
            break

        t, x, fx = t_new, x_new, f_new
        ts.append(t), xs.append(x), fs.append(fx)

        if (aIn if aIn > aSn else aSn) > bound:
            terminal = TerminalEvent("left-domain", t, x,
                                     detail=f"|x| exceeded {bound:g}")
            break
        if traps and any(_in_trap(trap, x) for trap in traps):
            terminal = TerminalEvent("trapped", t, x)
            break
        if last:
            terminal = TerminalEvent("time-horizon", t, x)
            break

        fac = _SAFETY * err ** (-_ALPHA) * facold ** _BETA if err > 0.0 else _FAC_MAX
        fac = fac if fac > _FAC_MIN else _FAC_MIN
        h *= fac if fac < _FAC_MAX else _FAC_MAX
        facold = 1e-4 if 1e-4 > err else err

    if on_wall:
        # the wall is absorbing: S' = 0 and I' = -(sigma+g)I for the rest of
        # the run, so its end is closed-form rather than stepped
        I_end = x[1] * math.exp(-u * (t_end - t))
        t, x, fx = t_end, (0.0, I_end), (0.0, -u * I_end)
        terminal = TerminalEvent("time-horizon", t, x)
    if ts[-1] != t or xs[-1] != x:
        ts.append(t), xs.append(x), fs.append(fx)
    return Trajectory(
        t=tuple(ts),
        states=tuple(xs),
        derivs=tuple(fs),
        crossings=tuple(crossings),
        terminal=terminal,
        stats=IntegrationStats(accepted, rejected, max_err, evals),
        params=params,
        reversed_time=reverse_time,
        tol=tol,
    )


def _in_trap(trap, x) -> bool:
    """Whether x lies inside the ellipse trap = (centre, P, level)."""
    (cS, cI), ((pSS, pSI), (_, pII)), level = trap
    yS, yI = x[0] - cS, x[1] - cI
    return pSS * yS * yS + 2.0 * pSI * yS * yI + pII * yI * yI < level


def _hull(S0, fS0, S1, fS1, h):
    """The Bernstein form of one step's S-cubic, for the event scan.

    The cubic Hermite S(theta), theta in [0, 1], with ends S0, S1 and slopes
    h*fS0, h*fS1 has the control ordinates S0, c1 = S0 + h*fS0/3,
    c2 = S1 - h*fS1/3 and S1, and lies between their min and max (convex hull
    property; Lane & Riesenfeld, IEEE PAMI 3, 1981). Returns (lo, hi, c1,
    c2): the hull widened by 64 ulps of the largest |ordinate|. That is over
    twice the rounding of c1, c2 and of any computed Hermite value, so a
    section outside [lo, hi] has every computed sample of the step strictly
    on one side of it.
    """
    c1 = S0 + h * fS0 / 3.0
    c2 = S1 - h * fS1 / 3.0
    # min and max of the four by comparisons: this runs on every step
    lo, hi = (S0, S1) if S0 < S1 else (S1, S0)
    inner_lo, inner_hi = (c1, c2) if c1 < c2 else (c2, c1)
    if inner_lo < lo:
        lo = inner_lo
    if inner_hi > hi:
        hi = inner_hi
    pad = _HULL_PAD * (hi if hi > -lo else -lo)
    return lo - pad, hi + pad, c1, c2


def _turning_points(S0, c1, c2, S1):
    """The turning points inside (0, 1), ascending, of the cubic with the
    Bernstein ordinates S0, c1, c2, S1: where its slope changes sign.

    The slope is 3 times the quadratic with the Bernstein ordinates
    d0 = c1 - S0, d1 = c2 - c1 and d2 = S1 - c2, that is
    d0 + 2(d1 - d0) theta + (d0 - 2 d1 + d2) theta^2, which keeps one sign on
    [0, 1] when the three do.
    """
    d0, d1, d2 = c1 - S0, c2 - c1, S1 - c2
    if min(d0, d1, d2) >= 0.0 or max(d0, d1, d2) <= 0.0:
        return ()
    a, b = d0 - 2.0 * d1 + d2, d1 - d0
    disc = b * b - a * d0
    if disc <= 0.0:
        return ()
    # the roots q/a and d0/q without cancellation; a = 0 leaves only d0/q
    q = -(b + math.copysign(math.sqrt(disc), b))
    roots = sorted((q / a, d0 / q)) if a else (d0 / q,)
    return tuple(r for r in roots if 0.0 < r < 1.0)


def _bracket_roots(t, x, fx, x_new, f_new, h, c1, c2, sec):
    """The earliest crossing of S = sec.value in sec.direction inside one
    step, as (t, (S, I), sec), or None.

    c1, c2 are the inner Bernstein ordinates of the step's S-cubic, from the
    _hull call whose range the caller found to hold the section. The cubic
    is cut at 0, 1 and its turning points (_turning_points) into pieces on
    each of which S is monotone. On such a piece g = S - value has at most
    one root, so the signs of g at its ends tell exactly whether it crosses
    the section, and in which direction: the scan is exact, with no cap. A
    grazing pair of crossings, both step ends on one side, straddles the
    turning point between them, so each crossing falls on its own piece. The
    earliest piece whose end values change sign in sec.direction is bisected
    to |residual| <= 1e-12 (well inside the 1e-10 contract). A start exactly
    on the section is no crossing, and a root exactly at a cut belongs to
    the earlier piece.
    """
    value, direction = sec.value, sec.direction
    S0, S1 = x[0], x_new[0]
    fS0, fS1 = fx[0], f_new[0]

    def g(theta):
        return _hermite(theta, h, S0, fS0, S1, fS1) - value

    lo, glo = 0.0, g(0.0)
    for hi in (*_turning_points(S0, c1, c2, S1), 1.0):
        ghi = g(hi)
        if ((glo == 0.0 and lo == 0.0) or glo * ghi > 0.0
                or (glo * ghi == 0.0 and ghi != 0.0)
                or (-1 if glo > ghi else 1) != direction):
            lo, glo = hi, ghi
            continue
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if abs(gm) <= 1e-12:
                lo = mid
                break
            if glo * gm <= 0.0:
                hi = mid
            else:
                lo, glo = mid, gm
        theta_hit = 0.5 * (lo + hi) if abs(g(lo)) > 1e-12 else lo
        I_hit = _hermite(theta_hit, h, x[1], fx[1], x_new[1], f_new[1])
        return (t + theta_hit * h, (g(theta_hit) + value, I_hit), sec)
    return None

# ----------------------------------------------------------------------
# omega-limit estimation


class OmegaLimitResult(_Record):
    outcome: str                 # E0 | E1 | E2 | boundary-axis | undecided
    trajectory: Trajectory
    detail: str = ""


#: a trap's level is this fraction of the certified lambda_min(P) r^2, a
#: margin for the rounding of P and of V
_TRAP_SAFETY = 0.9


def omega_limit_estimate(x0, params: ModelParams, horizon: float = 10000.0,
                         tol: float = 1e-8) -> OmegaLimitResult:
    """Estimate the forward limit set of the trajectory through x0 from one
    run over the horizon, ended early once the run enters the Lyapunov
    ellipse of E2 as a sink. No cycle: the Hopf one is unstable.

    The verdict is E2 if the run entered its ellipse, with the detail
    "entered the Lyapunov ellipse of E2 at t = ..."; else 'undecided' if it
    left the domain, 'boundary-axis' on the S = 0 wall, else the admissible
    equilibrium within 1e-3 of the end state (a sink on I = 0, which has no
    ellipse, E2 if the run did not enter its ellipse, or a saddle reached
    along its stable manifold, as on I = 0), or 'undecided'.

    The ellipse certifies its verdict (Khalil, Nonlinear Systems, 3rd ed.,
    2002, secs. 4.3 and 8.2). About a hyperbolic sink x*, with y = x - x*,
    the field is exactly f = J y + Q(y), with
    Q(y) = (-yS^2 - beta yS yI, beta yS yI), so
    |Q(y)|^2 = yS^2 ((yS + beta yI)^2 + beta^2 yI^2) <= (1 + 2 beta^2) |y|^4.
    P solves J^T P + P J = -I (in closed form, see _lyapunov_trap), so
    V = y^T P y has
    dV/dt = -|y|^2 + 2 y^T P Q(y) <= -|y|^2 (1 - 2 lmax(P) s |y|),
    s = sqrt(1 + 2 beta^2), which is negative on 0 < |y| < r with
    r = 1 / (2 lmax(P) s). The ellipse V < lmin(P) r^2 lies in that ball, so
    a run that enters it never leaves and converges to x*. r is capped at
    x*'s distance to the S = 0 wall and to I = 0, so the ellipse lies in the
    open quadrant, clear of the wall; a sink on I = 0 gets no ellipse and
    keeps the horizon rule. The level is _TRAP_SAFETY times lmin(P) r^2.
    """
    equilibria, trap = _limit_sets(params)
    traj = integrate(x0, params, horizon, tol=tol,
                     traps=() if trap is None else (trap,))
    term = traj.terminal
    if term.kind == "step-failure":
        raise StepFailure(term.detail)
    if term.kind == "trapped":
        return OmegaLimitResult("E2", traj, detail=(
            f"entered the Lyapunov ellipse of E2 at t = {term.t:.6g}"))
    if term.kind == "left-domain":
        return OmegaLimitResult("undecided", traj, detail="left the domain")
    if traj.on_wall:
        return OmegaLimitResult("boundary-axis", traj,
                                detail="on the wall, I still decaying")
    xf = traj.final_state
    for eq in equilibria:
        if (eq.stability is not StabilityClass.NONEXISTENT
                and math.hypot(xf[0] - eq.S, xf[1] - eq.I) < 1e-3):
            return OmegaLimitResult(eq.ident, traj,
                                    detail="within 1e-3 at horizon end")
    return OmegaLimitResult("undecided", traj)


@lru_cache(maxsize=16)
def _limit_sets(params: ModelParams) -> tuple:
    """(equilibria, trap) at params: E0, E1 and E2 as the horizon rule
    reads them, and E2's Lyapunov ellipse when E2 is a hyperbolic sink,
    else None. E0 and E1 lie on I = 0, where no ellipse has room. Cached,
    because a fan asks at every start for the same params."""
    e2 = eqmod.endemic(params)
    trap = _lyapunov_trap(e2, params) if e2.stability in _SINKS else None
    return (*eqmod.disease_free(params), e2), trap


def _lyapunov_trap(eq: Equilibrium, params: ModelParams):
    """The Lyapunov ellipse (centre, P, level) of the hyperbolic sink eq, as
    derived in omega_limit_estimate, or None when its radius is zero.

    For J = ((a, b), (c, d)) with trace tr < 0 < det, the solution of
    J^T P + P J = -I is P = k ((det + c^2 + d^2, -(ac + bd)),
    (-(ac + bd), det + a^2 + b^2)), k = -1 / (2 tr det) > 0.
    """
    beta = params.beta
    (a, b), (c, d) = _jacobian_entries(eq.S, eq.I, params.A, beta,
                                       params.removal)
    tr, det = a + d, a * d - b * c
    k = -1.0 / (2.0 * tr * det)
    pSS = k * (det + c * c + d * d)
    pSI = -k * (a * c + b * d)
    pII = k * (det + a * a + b * b)
    mean, rad = 0.5 * (pSS + pII), math.hypot(0.5 * (pSS - pII), pSI)
    r = min(1.0 / (2.0 * (mean + rad) * math.sqrt(1.0 + 2.0 * beta * beta)),
            eq.S, eq.I)
    if not r > 0.0:
        return None
    return ((eq.S, eq.I), ((pSS, pSI), (pSI, pII)),
            _TRAP_SAFETY * (mean - rad) * r * r)


# ----------------------------------------------------------------------
# invariant-manifold shooting

#: order N of the manifold series a shot starts on
_SERIES_ORDER = 24
#: the largest series parameter s a shot starts at
_SERIES_CAP = 0.5


def manifold_shoot(equilibrium: Equilibrium, direction: str,
                   params: ModelParams, t_end: float, *,
                   tol: float = 1e-8, sections=()) -> Trajectory:
    """Launch a trajectory off a saddle along its invariant manifold.

    The start is W(s) on the series of order _SERIES_ORDER of the unstable
    (positive eigenvalue) or stable (negative) manifold, see
    _manifold_series, with s from _series_start: as far out as the series'
    last term allows, in the closed quadrant and short of every section in
    sections. 'stable' shots run in reversed time, tracing the stable
    manifold backwards out of the saddle.

    A far start costs no accuracy. Wherever s falls, the left-out tail is
    about 1e-17. The part of that error along the manifold only shifts the
    shot in time; the part transverse to it lies along the stable direction
    off W^u and along the unstable one off W^s, and either contracts, by
    exp(lam_s t) forward or exp(-lam_u t) in the reversed time a W^s shot
    runs in, while the shot leaves the saddle.
    """
    if equilibrium.stability is not StabilityClass.SADDLE:
        raise ValueError(
            f"{equilibrium.ident} is {equilibrium.stability.value}, not a saddle")
    if direction not in ("stable", "unstable"):
        raise ValueError(f"direction must be 'stable' or 'unstable', got {direction!r}")
    lam_s, lam_u = equilibrium.eigenvalues
    lam = lam_u.real if direction == "unstable" else lam_s.real
    coeffs = _manifold_series(equilibrium, lam, params, _SERIES_ORDER)
    _, x0 = _series_start(equilibrium.location, coeffs, sections)
    return integrate(x0, params, t_end, tol=tol,
                     reverse_time=(direction == "stable"),
                     sections=sections)


def _manifold_series(equilibrium: Equilibrium, lam: float,
                     params: ModelParams, order: int) -> list:
    """Taylor coefficients a_1..a_order of W(s) = x* + sum a_k s^k, the
    parameterization of the saddle's manifold with eigenvalue lam that
    solves f(W(s)) = lam s W'(s) (Cabre, Fontich & de la Llave, Indiana
    Univ. Math. J. 52, 2003).

    a_1 = v is the unit eigenvector, oriented to positive I-component
    (falling back to positive S when the I-component vanishes, as on the
    axis equilibria). About x* the field is J y + Q(y, y) with the symmetric
    Q(y, z) = (-yS zS - h, h), h = beta (yS zI + yI zS)/2, so order k is the
    2x2 solve (J - k lam I) a_k = -sum_{i+j=k} Q(a_i, a_j), never singular
    on a planar saddle (k lam_u > lam_u > 0 > lam_s > k lam_s). Q being
    symmetric, the sum is twice its terms with i < j plus the middle one.
    A coefficient that is not finite (as when lam overflows the solve)
    raises ValueError: no start on such a series exists.
    """
    (a, b), (c, d) = eqmod.jacobian(equilibrium.location, params)
    beta = params.beta
    v = (b, lam - a)
    if math.hypot(*v) <= 1e-13 * (1.0 + abs(lam)):
        v = (lam - d, c)
    norm = math.hypot(*v)
    if norm <= 1e-13 * (1.0 + abs(lam)):
        raise ValueError("eigenvector numerically undefined (defective matrix)")
    v = (v[0] / norm, v[1] / norm)
    if v[1] < 0.0 or (v[1] == 0.0 and v[0] < 0.0):
        v = (-v[0], -v[1])
    coeffs = [v]
    for k in range(2, order + 1):
        qs = qi = 0.0
        for i in range(1, (k + 1) // 2):
            (ys, yi), (zs, zi) = coeffs[i - 1], coeffs[k - i - 1]
            h = beta * (ys * zi + yi * zs)
            qs -= 2.0 * ys * zs + h
            qi += h
        if k % 2 == 0:
            ys, yi = coeffs[k // 2 - 1]
            h = beta * ys * yi
            qs -= ys * ys + h
            qi += h
        a11, a22 = a - k * lam, d - k * lam
        det = a11 * a22 - b * c
        coeffs.append(((-qs * a22 + qi * b) / det, (-qi * a11 + qs * c) / det))
        if not all(map(math.isfinite, coeffs[-1])):
            raise ValueError(
                f"manifold series of {equilibrium.ident} has a non-finite "
                f"coefficient at order {k} (eigenvalue {lam!r})")
    return coeffs


def _series_start(x, coeffs: list, sections=()) -> tuple:
    """(s, W(s)): the start of a shot off the saddle x along the series.

    s is where the series' last term |a_N| s^N is 1e-17, about the size of
    the tail it leaves out, but at most _SERIES_CAP, halved until W(s) lies
    in the closed quadrant and strictly on the saddle's side, in S, of every
    section (a start past a section would miss its crossing). With finite
    coefficients, which _manifold_series guarantees, both hold at s = 0,
    where W = x, for a section not through x itself, so the halving stops.
    """
    top = math.hypot(*coeffs[-1])
    s = (min(_SERIES_CAP, (1e-17 / top) ** (1.0 / len(coeffs))) if top
         else _SERIES_CAP)
    values = [sec.value for sec in sections if sec.value != x[0]]
    while True:
        w = _series_point(x, coeffs, s)
        if (w[0] >= 0.0 and w[1] >= 0.0
                and all((w[0] - v) * (x[0] - v) > 0.0 for v in values)):
            return s, w
        s *= 0.5


def _series_point(x, coeffs: list, s: float) -> tuple:
    """W(s) = x + sum a_k s^k by Horner's rule."""
    ws = wi = 0.0
    for cs, ci in reversed(coeffs):
        ws, wi = (ws + cs) * s, (wi + ci) * s
    return (x[0] + ws, x[1] + wi)


# ----------------------------------------------------------------------
# recovered-class reconstruction


def recover_recovered(traj: Trajectory, R0_initial: float) -> list:
    """Solve dR/dt = p*m + g*I(t) - mu*R exactly along the trajectory's grid.

    On each interval of length h, I(t) is the cubic Hermite dense output, so
    variation of constants gives R1 = e^z R0 + h*(p*m*phi_1 + g*(weights .
    Hermite data)) with the phi-functions at z = -mu*h (Hochbruck &
    Ostermann, Acta Numerica 19, 2010); on the wall tail, I_w e^(-(sigma+g)s),
    it is exact too. Returns R at traj.t, as a list of floats.
    """
    if traj.reversed_time:
        raise ValueError("recovered-class reconstruction needs a forward run")
    pm, g, mu = traj.params.p * traj.params.m, traj.params.g, traj.params.mu
    u = traj.params.removal
    wall_tail = traj._wall_tail
    t, I, dI = traj.t, [x[1] for x in traj.states], [f[1] for f in traj.derivs]
    out = [float(R0_initial)]
    for j in range(1, len(t)):
        h = t[j] - t[j - 1]
        z = -mu * h
        ph1, ph2, ph3, ph4 = _phi(z)
        # integral of e^(z(1-theta)) I(h theta) over theta in [0, 1]
        if wall_tail and j == len(t) - 1:  # I_w e^(-u h theta); u - mu = d + g > 0
            I_int = I[j - 1] * math.exp(z) * _phi((mu - u) * h)[0]
        else:
            I_int = ((ph1 - 6.0 * ph3 + 12.0 * ph4) * I[j - 1]
                     + (6.0 * ph3 - 12.0 * ph4) * I[j]
                     + h * ((ph2 - 4.0 * ph3 + 6.0 * ph4) * dI[j - 1]
                            + (6.0 * ph4 - 2.0 * ph3) * dI[j]))
        out.append(math.exp(z) * out[-1] + h * (pm * ph1 + g * I_int))
    return out


def _phi(z: float) -> tuple:
    """phi_1..phi_4 at z, phi_k(z) = sum_n z^n/(n+k)!: the Taylor series of
    phi_4 and phi_k = z*phi_(k+1) + 1/k! for |z| < 1, else expm1(z)/z and
    phi_(k+1) = (phi_k - 1/k!)/z, each stable on its side."""
    if abs(z) < 1.0:
        ph4 = 1.0
        for n in range(20, 4, -1):   # 1 + z/5 (1 + z/6 (...)), to z^16 4!/20!
            ph4 = 1.0 + z * ph4 / n
        ph4 /= 24.0
        ph3 = z * ph4 + 1.0 / 6.0
        ph2 = z * ph3 + 0.5
        return z * ph2 + 1.0, ph2, ph3, ph4
    ph1 = math.expm1(z) / z
    ph2 = (ph1 - 1.0) / z
    ph3 = (ph2 - 0.5) / z
    return ph1, ph2, ph3, (ph3 - 1.0 / 6.0) / z
