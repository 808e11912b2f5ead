"""Adaptive Runge-Kutta integration of the planar field with events.

The stepper is an explicit Dormand-Prince 5(4) pair (FSAL) with
proportional-integral step-size control and a mixed absolute/relative error
norm, err_i / (atol + rtol*|x_i|) with atol = rtol = tol. Dense output is
cubic Hermite on each accepted step and is used to localise section
crossings to |residual| <= 1e-10.

Two model-specific behaviours live here:

* the S = 0 wall: when a step crosses S = 1e-12 going down, integration is
  trimmed to the crossing, S is clamped to 0 and the boundary field
  (dS/dt = 0, dI/dt = -(sigma+g)I) takes over for the rest of the run — the
  non-smooth extension of the flow. The wall is scanned like any other
  section, ahead of the caller's, until the handoff.
* eigenvector-offset shooting from a saddle, forward along the unstable
  direction or in reversed time (field negated) along the stable one.

Trajectories are immutable once returned; independent integrations share
nothing and may run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, vector_field
from . import equilibria as eqmod
from .equilibria import Equilibrium, StabilityClass

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
]

#: S below this is clamped to the wall and the boundary field takes over
WALL_CLAMP = 1e-12

_TOL_RANGE = (1e-13, 1e-3)

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


class StepFailure(RuntimeError):
    """Raised internally; surfaced to callers as a 'step-failure' terminal."""


@dataclass(frozen=True)
class SectionEvent:
    """The section S = value, detected and localised in one direction.

    direction: -1 for crossings with S decreasing, +1 for S increasing
    (the sign of dS/dt in the active, possibly negated, field).
    terminal: stop the run at the first such crossing; otherwise every
    crossing is only recorded.
    """
    value: float
    direction: int
    terminal: bool = False
    name: str = "section"

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError(f"direction must be -1 or +1, got {self.direction}")


# scanned ahead of the caller's sections until the run hands off to the wall
_WALL = SectionEvent(WALL_CLAMP, -1, name="wall")


@dataclass(frozen=True)
class Crossing:
    name: str
    t: float
    state: tuple
    direction: int               # -1 or +1, sign of dS/dt


@dataclass(frozen=True)
class TerminalEvent:
    kind: str                    # time-horizon | crossed-section |
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


@dataclass(frozen=True)
class IntegrationStats:
    steps_accepted: int
    steps_rejected: int
    max_error_estimate: float
    field_evals: int


@dataclass(frozen=True)
class Trajectory:
    """An integration result: samples, crossings, terminal event, stats.

    t is strictly increasing (elapsed integration time; for reversed runs it
    is elapsed *backward* time). interpolate() evaluates the cubic Hermite
    dense output; at the sample where the run switched to the wall field the
    stored derivative is the wall-side one, so interpolation is exact on each
    smooth piece and merely continuous at the kink.
    """
    t: np.ndarray
    states: np.ndarray           # shape (n, 2)
    derivs: np.ndarray           # shape (n, 2), active-field derivatives
    crossings: tuple
    terminal: TerminalEvent
    stats: IntegrationStats
    params: ModelParams
    reversed_time: bool
    tol: float

    @property
    def final_state(self) -> tuple:
        return (float(self.states[-1, 0]), float(self.states[-1, 1]))

    @property
    def on_wall(self) -> bool:
        return self.states[-1, 0] == 0.0

    def interpolate(self, t_query: float) -> tuple:
        t = self.t
        if not t[0] <= t_query <= t[-1]:
            raise ValueError(f"t={t_query} outside [{t[0]}, {t[-1]}]")
        j = int(np.searchsorted(t, t_query, side="right"))
        j = min(max(j, 1), len(t) - 1)
        t0, t1 = float(t[j - 1]), float(t[j])
        h = t1 - t0
        if h == 0.0:
            return (float(self.states[j, 0]), float(self.states[j, 1]))
        theta = (t_query - t0) / h
        x0, x1 = self.states[j - 1], self.states[j]
        f0, f1 = self.derivs[j - 1], self.derivs[j]
        out = _hermite(theta, h, x0, f0, x1, f1)
        return (float(out[0]), float(out[1]))

    def to_json_dict(self) -> dict:
        return {
            "t": [float(v) for v in self.t],
            "S": [float(v) for v in self.states[:, 0]],
            "I": [float(v) for v in self.states[:, 1]],
            "crossings": [
                {"name": c.name, "t": c.t, "S": c.state[0], "I": c.state[1],
                 "direction": c.direction}
                for c in self.crossings
            ],
            "terminal": self.terminal.to_json_dict(),
            "stats": {
                "steps_accepted": self.stats.steps_accepted,
                "steps_rejected": self.stats.steps_rejected,
                "max_error_estimate": self.stats.max_error_estimate,
                "field_evals": self.stats.field_evals,
            },
            "reversed_time": self.reversed_time,
            "tol": self.tol,
            "params": self.params.to_dict(),
        }


def _hermite(theta, h, x0, f0, x1, f1):
    """Cubic Hermite basis evaluation (componentwise, numpy or scalars)."""
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
              reverse_time: bool = False, sections=(),
              record: bool = True) -> Trajectory:
    """Integrate from x0 over [0, t_end] (elapsed time; the field is negated
    when reverse_time is set).

    sections are SectionEvents to record or stop at; until the run hands
    off to the wall, the downward wall section S = WALL_CLAMP is scanned
    ahead of them, so a tie goes to the wall. The run ends with
    'left-domain' once max(|S|, |I|) exceeds 50 times the invariant-region
    height, which only reversed runs ever reach.

    The step size underflowing 1e-14*max(1, t) yields a 'step-failure'
    terminal rather than an exception.
    """
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(f"tol must lie in {_TOL_RANGE}, got {tol}")
    S0, I0 = float(x0[0]), float(x0[1])
    if not (math.isfinite(S0) and math.isfinite(I0)):
        raise ValueError(f"non-finite initial state {x0}")
    if S0 < -1e-12 or I0 < -1e-12:
        raise ValueError(f"initial state outside the closed quadrant: {x0}")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"need finite t_end > t0 = 0, got {t_end}")

    A = params.A
    beta = params.beta
    u = params.sigma + params.g
    pm = params.p * params.m
    sgn = -1.0 if reverse_time else 1.0
    bound = 50.0 * max(1.0, A * (u + A) / u)

    def f_interior(x):
        S, I = x
        return (sgn * (S * (A - S) - beta * I * S - pm),
                sgn * (beta * I * S - u * I))

    def f_wall(x):
        return (0.0, sgn * (-u * x[1]))

    on_wall = S0 == 0.0 or (S0 < WALL_CLAMP and f_interior((S0, I0))[0] < 0.0)
    if on_wall:
        S0 = 0.0
    fieldf = f_wall if on_wall else f_interior
    armed = tuple(sections) if on_wall else (_WALL, *sections)

    x = (S0, I0)
    t = 0.0
    fx = fieldf(x)
    evals = 1
    ts, xs, fs = [t], [x], [fx]
    crossings: list = []
    terminal: TerminalEvent | None = None
    accepted = rejected = 0
    max_err = 0.0

    def push(tv, xv, fv):
        # record=False keeps only the initial and the running last sample
        if record or len(ts) < 2:
            ts.append(tv), xs.append(xv), fs.append(fv)
        else:
            ts[-1], xs[-1], fs[-1] = tv, xv, fv

    h = _initial_step(fieldf, x, fx, t_end, tol, tol)
    evals += 1
    facold = 1e-4

    while terminal is None:
        if accepted + rejected > _MAX_STEPS:
            raise StepFailure(f"step budget exhausted ({_MAX_STEPS}) at t={t}")
        if h < 1e-14 * max(1.0, abs(t)):
            terminal = TerminalEvent("step-failure", t, x,
                                     detail=f"step size underflow h={h:.3e}")
            break
        h = min(h, t_end - t)
        last = t + h >= t_end - 1e-14 * max(1.0, t_end)

        S, I = x
        f1 = fx
        k2 = fieldf((S + h * _A21 * f1[0], I + h * _A21 * f1[1]))
        k3 = fieldf((S + h * (_A31 * f1[0] + _A32 * k2[0]),
                     I + h * (_A31 * f1[1] + _A32 * k2[1])))
        k4 = fieldf((S + h * (_A41 * f1[0] + _A42 * k2[0] + _A43 * k3[0]),
                     I + h * (_A41 * f1[1] + _A42 * k2[1] + _A43 * k3[1])))
        k5 = fieldf((S + h * (_A51 * f1[0] + _A52 * k2[0] + _A53 * k3[0]
                              + _A54 * k4[0]),
                     I + h * (_A51 * f1[1] + _A52 * k2[1] + _A53 * k3[1]
                              + _A54 * k4[1])))
        k6 = fieldf((S + h * (_A61 * f1[0] + _A62 * k2[0] + _A63 * k3[0]
                              + _A64 * k4[0] + _A65 * k5[0]),
                     I + h * (_A61 * f1[1] + _A62 * k2[1] + _A63 * k3[1]
                              + _A64 * k4[1] + _A65 * k5[1])))
        Sn = S + h * (_B1 * f1[0] + _B3 * k3[0] + _B4 * k4[0] + _B5 * k5[0]
                      + _B6 * k6[0])
        In = I + h * (_B1 * f1[1] + _B3 * k3[1] + _B4 * k4[1] + _B5 * k5[1]
                      + _B6 * k6[1])
        k7 = fieldf((Sn, In))
        evals += 6

        eS = h * (_E1 * f1[0] + _E3 * k3[0] + _E4 * k4[0] + _E5 * k5[0]
                  + _E6 * k6[0] + _E7 * k7[0])
        eI = h * (_E1 * f1[1] + _E3 * k3[1] + _E4 * k4[1] + _E5 * k5[1]
                  + _E6 * k6[1] + _E7 * k7[1])
        wS = tol + tol * max(abs(S), abs(Sn))
        wI = tol + tol * max(abs(I), abs(In))
        err = math.sqrt(((eS / wS) ** 2 + (eI / wI) ** 2) / 2.0)

        if err > 1.0:
            rejected += 1
            h *= max(_FAC_MIN, min(1.0, _SAFETY * err ** (-_ALPHA)))
            continue

        accepted += 1
        max_err = max(max_err, err)
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
            f_new = fieldf(x_new)
            evals += 1

        hit = _scan_step(t, x, f1, t_new, x_new, f_new, t_new - t, armed,
                         crossings)
        if hit is not None:
            t, x_hit, sec = hit
            if sec is _WALL:
                x = (0.0, max(x_hit[1], 0.0))
                on_wall = True
                fieldf = f_wall
                armed = tuple(sections)
                fx = fieldf(x)
                evals += 1
                crossings.append(Crossing("wall", t, x, -1))
                push(t, x, fx)
                continue
            x = x_hit
            fx = fieldf(x)
            evals += 1
            terminal = TerminalEvent("crossed-section", t, x,
                                     section=sec.name, direction=sec.direction)
            break

        t, x, fx = t_new, x_new, f_new
        push(t, x, fx)

        if max(abs(x[0]), abs(x[1])) > bound:
            terminal = TerminalEvent("left-domain", t, x,
                                     detail=f"|x| exceeded {bound:g}")
            break
        if last:
            terminal = TerminalEvent("time-horizon", t, x)
            break

        fac = _SAFETY * err ** (-_ALPHA) * facold ** _BETA if err > 0.0 else _FAC_MAX
        h *= min(_FAC_MAX, max(_FAC_MIN, fac))
        facold = max(err, 1e-4)

    if ts[-1] != t or xs[-1] != x:
        ts.append(t), xs.append(x), fs.append(fx)
    return Trajectory(
        t=np.asarray(ts, dtype=float),
        states=np.asarray(xs, dtype=float),
        derivs=np.asarray(fs, dtype=float),
        crossings=tuple(crossings),
        terminal=terminal,
        stats=IntegrationStats(accepted, rejected, max_err, evals),
        params=params,
        reversed_time=reverse_time,
        tol=tol,
    )


def _scan_step(t, x, fx, t_new, x_new, f_new, h, sections, crossings):
    """Scan one accepted step for crossings of the sections on the Hermite
    interpolant (4 subintervals per section) and return the first wall or
    terminal hit as (t_hit, x_hit, section), else None. Crossings of other
    sections up to that hit are appended to ``crossings`` in time order;
    the wall's is left to the caller, which clamps it onto S = 0.
    """
    if h <= 0.0:
        return None
    found = []
    for sec in sections:
        found.extend(_bracket_roots(t, x, fx, t_new, x_new, f_new, h, sec))
    if not found:
        return None
    found.sort(key=lambda item: item[0])
    for t_hit, x_hit, sec in found:
        if sec is _WALL:
            return t_hit, x_hit, sec
        crossings.append(Crossing(sec.name, t_hit, x_hit, sec.direction))
        if sec.terminal:
            return t_hit, x_hit, sec
    return None


def _bracket_roots(t, x, fx, t_new, x_new, f_new, h, sec):
    """Find crossings of S = sec.value in sec.direction inside one step via
    sign changes of the Hermite interpolant on 4 subintervals, bisected to
    |residual| <= 1e-12 (well inside the 1e-10 contract)."""
    value = sec.value
    S0, S1 = x[0], x_new[0]
    fS0, fS1 = fx[0], f_new[0]

    def g(theta):
        return _hermite(theta, h, S0, fS0, S1, fS1) - value

    thetas = [i / 4 for i in range(5)]
    vals = [g(th) for th in thetas]
    out = []
    for i in range(4):
        g0, g1 = vals[i], vals[i + 1]
        if g0 == 0.0 and i == 0:
            continue            # starting exactly on the section: not a crossing
        if g0 * g1 > 0.0:
            continue
        lo, hi = thetas[i], thetas[i + 1]
        glo = g0
        if g0 * g1 == 0.0 and g1 != 0.0:
            continue
        if (-1 if g0 > g1 else 1) != sec.direction:
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
        out.append((t + theta_hit * h, (g(theta_hit) + value, I_hit), sec))
    return out


# ----------------------------------------------------------------------
# omega-limit estimation


@dataclass(frozen=True)
class OmegaLimitResult:
    outcome: str                 # E0 | E1 | E2 | cycle | boundary-axis | undecided
    trajectory: Trajectory
    detail: str = ""


def omega_limit_estimate(x0, params: ModelParams, horizon: float = 10000.0,
                         tol: float = 1e-8) -> OmegaLimitResult:
    """Estimate the forward limit set of the trajectory through x0.

    One run with no convergence stop: a run that leaves the domain is
    'undecided', one that ends on the S = 0 wall 'boundary-axis'. 'cycle'
    is reported when, within the last 20% of the horizon, the trajectory
    crosses the section S = S2 (downward) at least 3 times with successive
    gaps and crossing heights each consistent to 1%; crossings whose
    heights have all collapsed to within 1e-3 of I2 are counted as
    convergence to E2 instead of a cycle. Otherwise, when the field at the
    final state is below 1e-6, the verdict is the admissible equilibrium
    within 1e-6 of it, and 'undecided' failing that.
    """
    e2 = eqmod.endemic(params)
    sections = ()
    if e2.I > 0.0:
        sections = (SectionEvent(e2.S, -1, name="omega-S2"),)

    traj = integrate(x0, params, horizon, tol=tol, sections=sections)
    term = traj.terminal
    if term.kind == "step-failure":
        raise StepFailure(term.detail)
    if term.kind == "left-domain":
        return OmegaLimitResult("undecided", traj, detail="left the domain")
    if traj.on_wall:
        return OmegaLimitResult("boundary-axis", traj,
                                detail="on the wall, I still decaying")

    late = [c for c in traj.crossings
            if c.name == "omega-S2" and c.t >= 0.8 * horizon]
    if len(late) >= 3:
        gaps = [late[i + 1].t - late[i].t for i in range(len(late) - 1)]
        heights = [c.state[1] for c in late]
        mean_gap = sum(gaps) / len(gaps)
        mean_height = sum(heights) / len(heights)
        if e2.I > 0.0 and all(abs(ht - e2.I) < 1e-3 for ht in heights):
            # crossing heights hugging I2: the spiral has collapsed, even if
            # phase jitter at the tolerance floor blurs the crossing times
            return OmegaLimitResult(
                "E2", traj, detail="spiral collapsed onto E2")
        gaps_ok = all(abs(gp - mean_gap) <= 0.01 * mean_gap for gp in gaps)
        heights_ok = mean_height > 0.0 and all(
            abs(ht - mean_height) <= 0.01 * mean_height for ht in heights)
        if gaps_ok and heights_ok:
            return OmegaLimitResult(
                "cycle", traj,
                detail=f"period ~ {mean_gap:.6g}, section height ~ {mean_height:.6g}")

    # Final approach: accept proximity at 1e-6 to an equilibrium when the
    # field is already negligible there; a weakly attracting one may still
    # be that far off at the horizon although convergence is unambiguous.
    xf = traj.final_state
    ff = vector_field(xf, params)
    if math.hypot(ff[0], ff[1]) < 1e-6:
        candidates = list(eqmod.disease_free(params))
        if e2.I > 0.0:
            candidates.append(e2)
        for eq in candidates:
            if math.hypot(xf[0] - eq.S, xf[1] - eq.I) < 1e-6:
                return OmegaLimitResult(
                    eq.ident, traj,
                    detail="slow approach, within 1e-6 at horizon end")
    return OmegaLimitResult("undecided", traj)


# ----------------------------------------------------------------------
# invariant-manifold shooting


def manifold_shoot(equilibrium: Equilibrium, direction: str, offset: float,
                   params: ModelParams, t_end: float, *,
                   tol: float = 1e-8, sections=(),
                   record: bool = True) -> Trajectory:
    """Launch a trajectory off a saddle along an eigenvector.

    The start is location + offset*v with v the unit eigenvector of the
    unstable (positive) or stable (negative) eigenvalue; 'stable' shots run
    in reversed time, tracing the stable manifold backwards out of the
    saddle. v is oriented to positive I-component (falling back to
    positive S when the I-component vanishes, as on the axis equilibria).
    """
    if equilibrium.stability is not StabilityClass.SADDLE:
        raise ValueError(
            f"{equilibrium.ident} is {equilibrium.stability.value}, not a saddle")
    if not 1e-8 <= offset <= 1e-4:
        raise ValueError(f"offset must lie in [1e-8, 1e-4], got {offset}")
    if direction not in ("stable", "unstable"):
        raise ValueError(f"direction must be 'stable' or 'unstable', got {direction!r}")

    jac = eqmod.jacobian(equilibrium.location, params)
    lam_s, lam_u = equilibrium.eigenvalues
    lam = lam_u.real if direction == "unstable" else lam_s.real
    (a, b), (c, d) = jac
    v = (b, lam - a)
    if math.hypot(*v) <= 1e-13 * (1.0 + abs(lam)):
        v = (lam - d, c)
    norm = math.hypot(*v)
    if norm <= 1e-13 * (1.0 + abs(lam)):
        raise ValueError("eigenvector numerically undefined (defective matrix)")
    v = (v[0] / norm, v[1] / norm)
    if v[1] != 0.0:
        flip = v[1] < 0.0
    else:
        flip = v[0] < 0.0
    if flip:
        v = (-v[0], -v[1])
    x0 = (equilibrium.S + offset * v[0], equilibrium.I + offset * v[1])
    if x0[1] < 0.0:
        x0 = (x0[0], 0.0)
    return integrate(x0, params, t_end, tol=tol,
                     reverse_time=(direction == "stable"),
                     sections=sections, record=record)


# ----------------------------------------------------------------------
# recovered-class reconstruction


def recover_recovered(traj: Trajectory, R0_initial: float) -> np.ndarray:
    """Solve dR/dt = p*m + g*I(t) - mu*R exactly along the trajectory's grid.

    On each interval of length h, I(t) is the cubic Hermite dense output, so
    variation of constants gives R1 = e^z R0 + h*(p*m*phi_1 + g*(weights .
    Hermite data)) with the phi-functions at z = -mu*h (Hochbruck &
    Ostermann, Acta Numerica 19, 2010). Returns R at traj.t.
    """
    if traj.reversed_time:
        raise ValueError("recovered-class reconstruction needs a forward run")
    pm, g, mu = traj.params.p * traj.params.m, traj.params.g, traj.params.mu
    t = traj.t.tolist()
    I = traj.states[:, 1].tolist()
    dI = traj.derivs[:, 1].tolist()
    out = np.empty(len(t))
    out[0] = R = float(R0_initial)
    for j in range(1, len(t)):
        h = t[j] - t[j - 1]
        z = -mu * h
        ph1, ph2, ph3, ph4 = _phi(z)
        # integral of e^(z(1-theta)) I(h theta) over theta in [0, 1]
        I_int = ((ph1 - 6.0 * ph3 + 12.0 * ph4) * I[j - 1]
                 + (6.0 * ph3 - 12.0 * ph4) * I[j]
                 + h * ((ph2 - 4.0 * ph3 + 6.0 * ph4) * dI[j - 1]
                        + (6.0 * ph4 - 2.0 * ph3) * dI[j]))
        R = math.exp(z) * R + h * (pm * ph1 + g * I_int)
        out[j] = R
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
