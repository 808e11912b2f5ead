"""Adaptive integration: accuracy, events, wall handoff, limit-set
estimation, manifold shooting, and the recovered-class reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sirbif import (
    REFERENCE_BASE,
    BaseParams,
    ModelParams,
    ReducedPoint,
    SectionEvent,
    StabilityClass,
    TerminalEvent,
    Trajectory,
    disease_free,
    endemic,
    find_periodic_orbit,
    integrate,
    invariant_region_bound,
    jacobian,
    manifold_shoot,
    omega_limit_estimate,
    p_h,
    p_t,
    recover_recovered,
    region_fan,
    reduced_to_params,
    vector_field,
)
from sirbif.cli import _builtin_packs
from sirbif.integrate import (
    IntegrationStats,
    _SINKS,
    _bracket_roots,
    _hermite,
    _hull,
    _in_trap,
    _initial_step,
    _limit_sets,
    _manifold_series,
    _series_point,
    _series_start,
    _turning_points,
)


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


@pytest.fixture(scope="module")
def p_zero():
    return ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                       p=0.0)


# ---------------------------------------------------------------------------
# basic trajectory contracts


def test_samples_and_first_derivative(p_zero):
    traj = integrate((0.5, 0.1), p_zero, 10.0, tol=1e-8)
    assert np.asarray(traj.derivs)[0, 0] == vector_field((0.5, 0.1), p_zero)[0]
    assert np.asarray(traj.derivs)[0, 1] == vector_field((0.5, 0.1), p_zero)[1]
    t = traj.t
    assert np.all(np.diff(t) > 0.0)
    assert np.all(np.isfinite(traj.states))
    assert t[0] == 0.0 and t[-1] == 10.0
    assert traj.stats.steps_accepted > 0
    assert traj.stats.field_evals > 0


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_tolerance_scaling(p_zero, tol):
    a = integrate((0.5, 0.1), p_zero, 10.0, tol=tol).final_state
    b = integrate((0.5, 0.1), p_zero, 10.0, tol=tol / 32.0).final_state
    assert dist(a, b) <= 64.0 * tol


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_time_reversal_round_trip(p_zero, tol):
    fwd = integrate((0.5, 0.1), p_zero, 5.0, tol=tol)
    back = integrate(fwd.final_state, p_zero, 5.0, tol=tol, reverse_time=True)
    assert back.reversed_time
    assert dist(back.final_state, (0.5, 0.1)) <= 100.0 * tol


@pytest.mark.parametrize("x0", [(0.9, 1.2), (0.05, 0.01), (1.0, 0.3)])
def test_quadrant_preservation(x0, p_zero):
    tol = 1e-8
    traj = integrate(x0, p_zero, 60.0, tol=tol)
    assert float(np.asarray(traj.states).min()) >= -10.0 * tol


def test_equilibria_are_fixed_points(p_zero):
    e2 = endemic(p_zero)
    traj = integrate(e2.location, p_zero, 50.0, tol=1e-8)
    drift = max(dist(tuple(s), e2.location) for s in traj.states)
    assert drift <= 1e-7
    # (A, 0) is exactly stationary: A - S cancels to floating-point zero
    still = integrate((1.1, 0.0), p_zero, 20.0, tol=1e-8)
    assert all(tuple(s) == (1.1, 0.0) for s in still.states)


def test_input_validation(p_zero):
    with pytest.raises(ValueError, match="tol must lie in"):
        integrate((0.5, 0.1), p_zero, 1.0, tol=1e-2)
    with pytest.raises(ValueError, match="tol must lie in"):
        integrate((0.5, 0.1), p_zero, 1.0, tol=1e-14)
    with pytest.raises(ValueError, match="non-finite"):
        integrate((float("nan"), 0.1), p_zero, 1.0)
    with pytest.raises(ValueError, match="outside the closed quadrant"):
        integrate((-0.1, 0.1), p_zero, 1.0)
    for t_end in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end > t0"):
            integrate((0.5, 0.1), p_zero, t_end)


def test_dense_output_matches_fine_solution(p_zero):
    coarse = integrate((0.5, 0.1), p_zero, 10.0, tol=1e-6)
    fine = integrate((0.5, 0.1), p_zero, 10.0, tol=1e-11)
    for t_query in np.linspace(0.3, 9.7, 17):
        a = coarse.interpolate(float(t_query))
        b = fine.interpolate(float(t_query))
        assert dist(a, b) <= 1e-4
    # interpolation reproduces stored samples at the grid itself
    mid = len(coarse.t) // 2
    at_node = coarse.interpolate(float(coarse.t[mid]))
    assert dist(at_node, tuple(coarse.states[mid])) <= 1e-12


def _reference_dp5(x0, params, t_end, tol, reverse_time):
    """The DP5(4) pair in its plain form, for runs that cross no section:
    the field as a closure on tuples, one tuple per stage, the same error
    norm and PI controller, and the stop beyond the domain bound."""
    A, beta, u = params.A, params.beta, params.removal
    pm = params.p * params.m
    sgn = -1.0 if reverse_time else 1.0
    bound = 50.0 * max(1.0, invariant_region_bound(params))

    def f(x):
        S, I = x
        return (sgn * (S * (A - S) - beta * I * S - pm),
                sgn * (beta * I * S - u * I))

    t, x = 0.0, (float(x0[0]), float(x0[1]))
    fx = f(x)
    h = _initial_step(f, x, fx, t_end, tol, tol)
    ts, xs, fs = [t], [x], [fx]
    accepted = rejected = 0
    evals, max_err, facold = 2, 0.0, 1e-4
    while True:
        h = min(h, t_end - t)
        last = t + h >= t_end - 1e-14 * max(1.0, t_end)
        (S, I), k1 = x, fx
        k2 = f((S + h * (1 / 5) * k1[0], I + h * (1 / 5) * k1[1]))
        k3 = f(tuple(x[i] + h * (3 / 40 * k1[i] + 9 / 40 * k2[i])
                     for i in (0, 1)))
        k4 = f(tuple(x[i] + h * (44 / 45 * k1[i] - 56 / 15 * k2[i]
                                 + 32 / 9 * k3[i]) for i in (0, 1)))
        k5 = f(tuple(x[i] + h * (19372 / 6561 * k1[i] - 25360 / 2187 * k2[i]
                                 + 64448 / 6561 * k3[i] - 212 / 729 * k4[i])
                     for i in (0, 1)))
        k6 = f(tuple(x[i] + h * (9017 / 3168 * k1[i] - 355 / 33 * k2[i]
                                 + 46732 / 5247 * k3[i] + 49 / 176 * k4[i]
                                 - 5103 / 18656 * k5[i]) for i in (0, 1)))
        xn = tuple(x[i] + h * (35 / 384 * k1[i] + 500 / 1113 * k3[i]
                               + 125 / 192 * k4[i] - 2187 / 6784 * k5[i]
                               + 11 / 84 * k6[i]) for i in (0, 1))
        k7 = f(xn)
        evals += 6
        e = [h * (71 / 57600 * k1[i] - 71 / 16695 * k3[i] + 71 / 1920 * k4[i]
                  - 17253 / 339200 * k5[i] + 22 / 525 * k6[i] - 1 / 40 * k7[i])
             / (tol + tol * max(abs(x[i]), abs(xn[i]))) for i in (0, 1)]
        err = math.sqrt((e[0] ** 2 + e[1] ** 2) / 2.0)
        if err > 1.0:
            rejected += 1
            h *= max(0.2, min(1.0, 0.9 * err ** -0.17))
            continue
        accepted += 1
        max_err = max(max_err, err)
        t = t_end if last else t + h
        x, fx = xn, k7
        ts.append(t), xs.append(x), fs.append(fx)
        if last or max(abs(x[0]), abs(x[1])) > bound:
            break
        fac = 0.9 * err ** -0.17 * facold ** 0.04 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, fac))
        facold = max(err, 1e-4)
    return (tuple(ts), tuple(xs), tuple(fs),
            IntegrationStats(accepted, rejected, max_err, evals))


@pytest.mark.parametrize("tol", [1e-8, 1e-5])
@pytest.mark.parametrize("reverse_time", [False, True])
def test_step_kernel_matches_the_plain_loop(tol, reverse_time):
    # bit for bit: the fused kernel keeps every float operation in order
    params = reduced_to_params(ReducedPoint(2.6, 0.3, REFERENCE_BASE))
    traj = integrate((0.5, 0.1), params, 40.0, tol=tol,
                     reverse_time=reverse_time)
    assert traj.crossings == ()
    ref = _reference_dp5((0.5, 0.1), params, 40.0, tol, reverse_time)
    assert (traj.t, traj.states, traj.derivs, traj.stats) == ref


# ---------------------------------------------------------------------------
# events


def test_section_event_localization(p_zero):
    e2 = endemic(p_zero)
    sec = SectionEvent(e2.S, -1, name="test-sec")
    traj = integrate((0.9, 0.3), p_zero, 50.0, tol=1e-8, sections=[sec])
    assert traj.terminal.kind == "crossed-section"
    assert traj.terminal.section == "test-sec"
    assert abs(traj.terminal.state[0] - e2.S) <= 1e-10
    assert traj.terminal.direction == -1
    assert 0.0 < traj.terminal.t == traj.t[-1]
    assert traj.crossings == ()       # the stop is the terminal event alone


def test_directional_crossings_only(p_zero):
    e2 = endemic(p_zero)
    down = SectionEvent(e2.S, -1, name="down")
    traj = integrate((0.9, 0.3), p_zero, 120.0, tol=1e-8, sections=[down])
    assert traj.terminal.section == "down", \
        "spiral toward E2 must cross its section"
    assert traj.terminal.direction == -1
    assert vector_field(traj.terminal.state, p_zero)[0] < -1e-3


@pytest.mark.parametrize("direction", [0, 2])
def test_section_direction_must_be_signed(direction):
    with pytest.raises(ValueError, match="direction must be -1 or \\+1"):
        SectionEvent(0.5, direction)


@pytest.mark.parametrize("mirror", [1.0, -1.0])
@pytest.mark.parametrize("direction", [-1, 1])
def test_grazing_pair_inside_one_step(mirror, direction):
    # one step (h = 1/2) of P(theta) = (theta - 3/8)^2 (theta + 1) + 1/2: its
    # interior minimum 1/2 at theta = 3/8 dips below the section S = 0.501
    # between theta = 0.348 and 0.402, while P at theta = 0, 1/4, 1/2, 3/4
    # and 1 stays above 0.519. Mirrored (S -> -S), a maximum pokes above.
    t, h = 10.0, 0.5
    S0, fS0, S1, fS1 = (mirror * v for v in (0.640625, -1.21875, 1.28125, 5.78125))
    value = mirror * 0.501
    assert all(mirror * (_hermite(th, h, S0, fS0, S1, fS1) - value) > 0.018
               for th in (0.0, 0.25, 0.5, 0.75, 1.0))
    sec = SectionEvent(value, direction, name="graze")
    _, _, c1, c2 = _hull(S0, fS0, S1, fS1, h)
    hit = _bracket_roots(t, (S0, 0.1), (fS0, 0.0), (S1, 0.1), (fS1, 0.0),
                         h, c1, c2, sec)
    assert hit, "the crossing between two quarter samples was missed"
    t_hit, (S_hit, I_hit), found = hit
    assert found is sec and abs(I_hit - 0.1) <= 1e-15
    assert abs(S_hit - value) <= 1e-10
    # the pair straddles theta = 3/8: the crossing that leaves the side the
    # step starts on comes first, the one back second
    first = direction == -mirror
    assert t + 0.25 * h < t_hit < t + 0.5 * h
    assert (t_hit < t + 0.375 * h) == first
    # P - 0.501 = theta^3 + theta^2/4 - 0.609375 theta + 0.139625
    pair = sorted(r.real for r in np.roots([1.0, 0.25, -0.609375, 0.139625])
                  if 0.25 < r.real < 0.5)
    assert abs((t_hit - t) / h - pair[0 if first else 1]) <= 1e-9


def _step_turns(S0, m0, S1, m1):
    """_turning_points of the step's S-cubic with end slopes m0, m1 in theta."""
    _, _, c1, c2 = _hull(S0, m0, S1, m1, 1.0)
    return _turning_points(S0, c1, c2, S1)


def test_turning_points():
    # the grazing test's cubic, P(theta) = (theta - 3/8)^2 (theta + 1) + 1/2:
    # P' = (theta - 3/8)(3 theta + 13/8) turns at 3/8 in the step, and its
    # other critical point -13/24 lies outside
    (turn,) = _step_turns(0.640625, -0.609375, 1.28125, 2.890625)
    assert abs(turn - 0.375) <= 1e-15
    # monotone: theta^3 + theta has P' >= 1
    assert _step_turns(0.0, 1.0, 2.0, 4.0) == ()
    # S-shaped: P' = 6 (theta - 1/4)(theta - 3/4), both turns, ascending
    low, high = _step_turns(0.0, 1.125, 0.125, 1.125)
    assert abs(low - 0.25) <= 1e-15 and abs(high - 0.75) <= 1e-15
    # a linear slope (quadratic coefficient exactly 0): Bernstein ordinates
    # of P' 1, 0, -1 give P' = 3 (1 - 2 theta), one turn at 1/2
    assert _turning_points(0.0, 1.0, 1.0, 0.0) == (0.5,)


def _dense_first_root(g, direction, n=4096):
    """The earliest root of g on (0, 1] in direction, from the sign changes
    of n + 1 samples and bisection to the last bit, or None."""
    theta = np.linspace(0.0, 1.0, n + 1)
    a, b = g(theta[:-1]), g(theta[1:])
    if direction == -1:
        (ks,) = np.nonzero((a > 0.0) & (b <= 0.0))
    else:
        (ks,) = np.nonzero((a < 0.0) & (b >= 0.0))
    if not len(ks):
        return None
    lo, hi = float(theta[ks[0]]), float(theta[ks[0] + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (g(mid) > 0.0) == (direction == -1):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=400)
@given(st.floats(-1.0, 1.0), st.floats(-4.0, 4.0), st.floats(-1.0, 1.0),
       st.floats(-4.0, 4.0), st.floats(1e-3, 1.0), st.floats(-1.2, 1.2),
       st.sampled_from([-1, 1]))
def test_event_scan_matches_dense_reference(S0, m0, S1, m1, h, value, direction):
    # m0, m1 are the end slopes in theta, h*f; the cubic is the step's own
    fS0, fS1 = m0 / h, m1 / h

    def g(theta):
        return _hermite(theta, h, S0, fS0, S1, fS1) - value

    ref = _dense_first_root(g, direction)
    lo, hi, c1, c2 = _hull(S0, fS0, S1, fS1, h)
    if ref is not None:
        assert lo <= value <= hi, "the hull prefilter dropped a crossing step"
    # compare only where the roots are well conditioned: every critical
    # value of the cubic clear of the section, and no root on a flat slope
    dg = np.polynomial.Polynomial(
        [m0, -6.0 * (S0 - S1) - 4.0 * m0 - 2.0 * m1, 6.0 * (S0 - S1) + 3.0 * (m0 + m1)])
    crit = [r.real for r in np.atleast_1d(dg.roots())
            if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0]
    assume(all(abs(g(c)) > 1e-3 for c in crit))
    assume(ref is None or abs(dg(ref)) > 0.05)
    t = 7.0
    sec = SectionEvent(value, direction)
    hit = _bracket_roots(t, (S0, 0.0), (fS0, 0.0), (S1, 0.0), (fS1, 0.0),
                         h, c1, c2, sec)
    if ref is None:
        assert not hit
    else:
        assert hit, f"missed the root at theta = {ref}"
        assert abs(hit[0] - (t + ref * h)) <= 1e-10


def test_left_domain_terminal():
    # in reversed time S runs off to infinity from near the S-axis
    params = reduced_to_params(ReducedPoint(2.6, 0.48, REFERENCE_BASE))
    traj = integrate((0.95, 0.01), params, 50.0, tol=1e-8, reverse_time=True)
    bound = 50.0 * invariant_region_bound(params)
    assert traj.terminal.kind == "left-domain"
    assert traj.terminal.t < 50.0
    assert max(abs(traj.terminal.state[0]), abs(traj.terminal.state[1])) > bound


@pytest.mark.parametrize("x0", [(1e6, 0.2), (1e50, 0.2), (1e150, 0.2),
                                (1e100, 1e300)])
def test_start_beyond_the_bound_ends_at_once(x0):
    # so far out that one step's error norm can overflow or underflow
    params = reduced_to_params(ReducedPoint(2.6, 0.3, REFERENCE_BASE))
    traj = integrate(x0, params, 5.0, tol=1e-8)
    assert traj.terminal.kind == "left-domain"
    assert traj.terminal.t == 0.0 and traj.terminal.state == x0
    assert traj.t == (0.0,) and traj.states == (x0,)
    assert traj.stats.steps_accepted == traj.stats.steps_rejected == 0


def test_wall_start_beyond_the_bound_decays_on_the_wall():
    params = reduced_to_params(ReducedPoint(2.6, 0.3, REFERENCE_BASE))
    traj = integrate((0.0, 1e6), params, 5.0, tol=1e-8)
    assert traj.terminal.kind == "time-horizon" and traj.t == (0.0, 5.0)
    assert traj.states[-1] == (0.0, 1e6 * math.exp(-params.removal * 5.0))


def test_start_inside_the_bound_integrates():
    params = reduced_to_params(ReducedPoint(2.6, 0.3, REFERENCE_BASE))
    traj = integrate((100.0, 0.2), params, 5.0, tol=1e-8)
    assert traj.terminal.kind == "time-horizon" and traj.t[-1] == 5.0


# ---------------------------------------------------------------------------
# wall handoff (S = 0)


def test_wall_handoff_and_decay():
    # p above the fold: S declines to the wall, where the run ends in the
    # closed form of the wall flow, I = I_w exp(-(sigma+g)(t - t_w))
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.9)
    traj = integrate((0.05, 0.5), params, 400.0, tol=1e-8)
    assert traj.on_wall
    assert traj.terminal.kind == "time-horizon"
    assert float(np.asarray(traj.states)[:, 0].min()) >= 0.0
    # two samples on the wall: the handoff point and the end
    (wall,) = traj.crossings
    assert int(np.count_nonzero(np.asarray(traj.states)[:, 0] == 0.0)) == 2
    assert float(traj.t[-2]) == wall.t
    assert tuple(traj.states[-2]) == wall.state
    assert float(traj.t[-1]) == 400.0
    t_w, I_w = wall.t, wall.state[1]

    def exact(t):
        return I_w * math.exp(-params.removal * (t - t_w))

    assert traj.final_state[1] == pytest.approx(exact(400.0), rel=1e-14, abs=0.0)
    assert traj.terminal.state == traj.final_state
    assert tuple(traj.derivs[-1]) == (0.0, -params.removal * traj.final_state[1])
    for t_q in (t_w + 1e-9, t_w + 0.5, 3.0, 37.25, 250.0, 399.999):
        S, I = traj.interpolate(t_q)
        assert S == 0.0
        assert I == pytest.approx(exact(t_q), rel=1e-14, abs=0.0)

    # a section above the wall stops the run before the wall, and arming it
    # leaves the run up to that crossing unchanged
    above = SectionEvent(0.02, -1, name="above-wall")
    cut = integrate((0.05, 0.5), params, 400.0, tol=1e-8, sections=[above])
    assert cut.terminal.kind == "crossed-section"
    assert cut.terminal.section == "above-wall"
    assert abs(cut.terminal.state[0] - 0.02) <= 1e-10
    assert cut.terminal.direction == -1
    assert cut.crossings == ()
    assert [c.name for c in traj.crossings] == ["wall"]
    n = len(cut.t) - 1
    assert np.array_equal(cut.t[:n], traj.t[:n])
    assert np.array_equal(cut.states[:n], traj.states[:n])


def test_start_on_the_wall_takes_no_step():
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.9)
    traj = integrate((0.0, 0.3), params, 50.0, tol=1e-8)
    assert np.asarray(traj.t).tolist() == [0.0, 50.0]
    assert traj.stats.steps_accepted == traj.stats.steps_rejected == 0
    assert traj.crossings == () and traj.terminal.kind == "time-horizon"
    assert traj.final_state == (0.0, 0.3 * math.exp(-params.removal * 50.0))


def test_reversed_run_from_the_wall_enters_the_interior(figure_params):
    # reversed, dS/dt = +pm > 0 at S = 0: nothing holds the run on the wall,
    # so a start on it and one just beside it end together
    params = figure_params(p=0.6)
    on = integrate((0.0, 0.1), params, 2.0, tol=1e-8, reverse_time=True)
    off = integrate((1e-6, 0.1), params, 2.0, tol=1e-8, reverse_time=True)
    assert on.final_state[0] > 0.2
    assert dist(on.final_state, off.final_state) <= 1e-5


def test_reversed_run_on_the_invariant_axis(p_zero):
    # pm = 0: S = 0 is invariant and the interior field there is the wall's,
    # I' = +(sigma+g)I in reversed time, so I grows out of the domain on S = 0
    traj = integrate((0.0, 0.1), p_zero, 50.0, tol=1e-8, reverse_time=True)
    assert bool(np.all(np.asarray(traj.states)[:, 0] == 0.0))
    assert traj.terminal.kind == "left-domain"
    t_end, I_end = traj.terminal.t, traj.terminal.state[1]
    assert 10.0 < t_end < 11.0
    assert I_end == pytest.approx(0.1 * math.exp(p_zero.removal * t_end),
                                  rel=1e-6)


# ---------------------------------------------------------------------------
# limit-set estimation


def test_omega_limit_core_outcomes(p_zero):
    # below the epidemic threshold everything lands on E1
    sub = ModelParams(A=1.1, beta=0.99 * 0.7 / 1.1, m=0.35, mu=0.175,
                      d=0.175, g=0.35, p=0.0)
    assert omega_limit_estimate((0.5, 0.3), sub).outcome == "E1"

    # eradication-by-vaccination band: the larger axis point attracts
    region_b = ModelParams(A=1.0, beta=1.3, m=0.35, mu=0.25, d=0.25, g=0.50,
                           p=0.61)
    assert omega_limit_estimate((0.6, 0.2), region_b).outcome == "E1"

    # interior persistence: stable focus wins below the separatrix
    region_c = ModelParams(A=1.1, beta=0.91, m=0.35, mu=0.175, d=0.175,
                           g=0.35, p=0.60)
    e2 = endemic(region_c)
    assert e2.interior
    start = (e2.S + 0.01, e2.I)
    assert omega_limit_estimate(start, region_c).outcome == "E2"

    # the infected axis is invariant and decays to the origin
    assert omega_limit_estimate((0.0, 0.5), region_c).outcome == "boundary-axis"

    # the susceptible axis I = 0 is invariant too: its points run into the
    # saddle E1, and one that starts on E1 stays there
    assert omega_limit_estimate((0.5, 0.0), sub).outcome == "E1"
    assert disease_free(p_zero)[1].stability is StabilityClass.SADDLE
    assert omega_limit_estimate((0.5, 0.0), p_zero).outcome == "E1"
    assert omega_limit_estimate((1.1, 0.0), p_zero).outcome == "E1"


def test_omega_limit_on_the_unstable_cycle_is_undecided(base):
    # the Hopf cycle repels, so it is no forward limit; a start on the
    # polished orbit still circles it at the horizon, far from E0, E1 and E2
    orbit = find_periodic_orbit(2.6, 0.48, base, tol=1e-12)
    params = reduced_to_params(ReducedPoint(2.6, 0.48, base))
    res = omega_limit_estimate((orbit.section_S, orbit.section_I), params,
                               horizon=300.0, tol=1e-10)
    assert res.trajectory.terminal.kind == "time-horizon"
    assert res.outcome == "undecided"


def test_omega_limit_escape_from_unstable_focus(base):
    # above the Hopf curve the focus repels and the wall absorbs
    params = reduced_to_params(ReducedPoint(2.6, 0.60, base))
    e2 = endemic(params)
    res = omega_limit_estimate((e2.S + 1e-3, e2.I), params)
    assert res.outcome == "boundary-axis"


# ---------------------------------------------------------------------------
# Lyapunov ellipses of the sinks

def _lyapunov_value(trap, x):
    (cS, cI), ((pSS, pSI), (_, pII)), _ = trap
    yS, yI = x[0] - cS, x[1] - cI
    return pSS * yS * yS + 2.0 * pSI * yS * yI + pII * yI * yI


@settings(max_examples=60)
@given(base=st.sampled_from([REFERENCE_BASE,
                             BaseParams(A=1.0, m=0.35, mu=0.25, d=0.25,
                                        g=0.5)]),
       r0=st.floats(1.05, 3.5), frac=st.floats(0.01, 0.99),
       angle=st.floats(0.0, 2.0 * math.pi), depth=st.floats(0.0, 0.999))
def test_run_inside_the_ellipse_stays_and_ends_at_once(base, r0, frac, angle,
                                                       depth):
    # E2 is a stable node or focus in the bands C, D and E: below p_t, and
    # below p_h past r0 = 2
    top = p_h(r0, base) if r0 > 2.0 else p_t(r0, base)
    params = reduced_to_params(ReducedPoint(r0, frac * top, base))
    e2 = endemic(params)
    assume(e2.stability in _SINKS)
    (sink, trap), = _limit_sets(params)[1]
    assert sink == e2
    (cS, cI), P, level = trap
    # P solves J^T P + P J = -I and is positive definite
    J, P = np.array(jacobian(e2.location, params)), np.array(P)
    assert np.allclose(J.T @ P + P @ J, -np.eye(2), atol=1e-9 * np.abs(P).max())
    lmin = np.linalg.eigvalsh(P)[0]
    assert lmin > 0.0 and level > 0.0
    # the ellipse lies in the open quadrant
    assert math.sqrt(level / lmin) < min(cS, cI)
    u = np.array([math.cos(angle), math.sin(angle)])
    reach = math.sqrt(level / (u @ P @ u))
    x0 = (cS + depth * reach * u[0], cI + depth * reach * u[1])
    assert _in_trap(trap, x0)

    trapped = integrate(x0, params, 50.0, traps=[trap])
    assert trapped.terminal.kind == "trapped"
    assert trapped.t == (0.0,) and trapped.states == (x0,)
    assert trapped.stats.steps_accepted == 0

    free = integrate(x0, params, 30.0, tol=1e-10)
    values = [_lyapunov_value(trap, x) for x in free.states]
    assert all(v < level for v in values)
    assert all(b <= a + 1e-12 * level for a, b in zip(values, values[1:]))


def _horizon_verdict(x0, params):
    """The verdict before the ellipses: one run to the horizon 800, then the
    admissible equilibrium within 1e-3 of its end."""
    traj = integrate(x0, params, 800.0)
    if traj.terminal.kind == "left-domain":
        return "undecided"
    if traj.on_wall:
        return "boundary-axis"
    for eq in (*disease_free(params), endemic(params)):
        if (eq.stability is not StabilityClass.NONEXISTENT
                and dist(traj.final_state, eq.location) < 1e-3):
            return eq.ident
    return "undecided"


@pytest.mark.parametrize("region", ["C", "D", "E", "het"])
def test_trapped_verdicts_match_the_horizon_rule(region):
    pack = _builtin_packs()[region]
    params = pack.params
    fan = region_fan(params, n_boundary=pack.n_boundary, n_ring=pack.n_ring)
    verdicts = []
    for x0 in fan:
        res = omega_limit_estimate(x0, params, horizon=800.0)
        assert res.outcome == _horizon_verdict(x0, params), x0
        verdicts.append(res.outcome)
        if res.outcome == "E2":
            term = res.trajectory.terminal
            assert term.kind == "trapped" and term.t < 800.0
            assert res.detail == ("entered the Lyapunov ellipse of E2 at "
                                  f"t = {term.t:.6g}")
    assert "E2" in verdicts


def test_traps_end_a_run_only_inside(p_zero):
    # a sink on I = 0 gets no ellipse: the cap at its distance to I = 0
    # leaves no radius
    region_b = ModelParams(A=1.0, beta=1.3, m=0.35, mu=0.25, d=0.25, g=0.50,
                           p=0.61)
    assert disease_free(region_b)[1].stability in _SINKS
    assert _limit_sets(region_b)[1] == ()
    # an ellipse the run never meets changes nothing
    far = ((0.2, 0.2), ((1.0, 0.0), (0.0, 1.0)), 1e-6)
    plain = integrate((0.5, 0.1), p_zero, 10.0)
    assert integrate((0.5, 0.1), p_zero, 10.0, traps=[far]) == plain
    # the run ends at the first accepted step inside, which is its last
    sixth = (plain.states[5], ((1.0, 0.0), (0.0, 1.0)), 1e-30)
    cut = integrate((0.5, 0.1), p_zero, 10.0, traps=[far, sixth])
    assert cut.terminal.kind == "trapped"
    assert cut.t == plain.t[:6] and cut.states == plain.states[:6]
    # a wall start decays on the wall whatever the traps
    on_wall = ((0.0, 0.3), ((1.0, 0.0), (0.0, 1.0)), 1.0)
    assert integrate((0.0, 0.3), p_zero, 5.0,
                     traps=[on_wall]).terminal.kind == "time-horizon"


# ---------------------------------------------------------------------------
# manifold shooting


def test_unstable_shot_enters_interior(p_zero):
    _, e1 = disease_free(p_zero)
    traj = manifold_shoot(e1, "unstable", p_zero, 30.0)
    assert not traj.reversed_time
    assert np.asarray(traj.states)[0, 1] > 0.0
    assert np.asarray(traj.states)[1, 1] > np.asarray(traj.states)[0, 1]
    assert float(np.asarray(traj.states)[:, 1].max()) > 0.01


def test_stable_shot_traces_backward(base):
    params = reduced_to_params(
        ReducedPoint(1.5, p_t(1.5, base) - 0.02, base))
    e0 = disease_free(params)[0]
    traj = manifold_shoot(e0, "stable", params, 30.0)
    assert traj.reversed_time
    assert np.asarray(traj.states)[0, 1] > 0.0
    # reversed, the stable manifold leads away from the saddle
    assert dist(traj.states[-1], e0.location) > dist(traj.states[0], e0.location)


@pytest.mark.parametrize("r0", [2.6, 1.5])
@pytest.mark.parametrize("order", [8, 12])
def test_series_start_lies_on_the_manifold(base, r0, order):
    # f(W(s)) = lam s W'(s) at the chosen s, for both manifolds of both
    # saddles, to rounding
    params = reduced_to_params(ReducedPoint(r0, p_t(r0, base) - 0.02, base))
    for eq in disease_free(params):
        assert eq.stability is StabilityClass.SADDLE
        for lam in (z.real for z in eq.eigenvalues):
            coeffs = _manifold_series(eq, lam, params, order)
            s = _series_start(coeffs)
            assert 0.0 < s <= 0.05
            w = _series_point(eq.location, coeffs, s)
            dw = [sum(k * a[i] * s ** (k - 1) for k, a in enumerate(coeffs, 1))
                  for i in (0, 1)]
            f = vector_field(w, params)
            assert dist(f, (lam * s * dw[0], lam * s * dw[1])) <= 1e-15
    _, e1 = disease_free(params)
    coeffs = _manifold_series(e1, e1.eigenvalues[1].real, params, 12)
    start = _series_point(e1.location, coeffs, _series_start(coeffs))
    assert manifold_shoot(e1, "unstable", params, 1.0).states[0] == start


def test_shoot_validation(p_zero):
    e2 = endemic(p_zero)          # a sink, not a saddle
    _, e1 = disease_free(p_zero)
    with pytest.raises(ValueError, match="saddle"):
        manifold_shoot(e2, "unstable", p_zero, 1.0)
    with pytest.raises(ValueError, match="direction"):
        manifold_shoot(e1, "sideways", p_zero, 1.0)


# ---------------------------------------------------------------------------
# recovered-class reconstruction


def test_recovered_closed_form_when_no_infection(figure_params):
    params = figure_params(p=0.5)
    traj = integrate((0.5, 0.0), params, 40.0, tol=1e-10)
    assert float(np.abs(np.asarray(traj.states)[:, 1]).max()) == 0.0
    R = recover_recovered(traj, 0.0)
    ratio = params.p * params.m / params.mu
    exact = ratio * (1.0 - np.exp(-params.mu * np.asarray(traj.t)))
    assert float(np.abs(R - exact).max()) <= 1e-14


def test_recovered_exact_for_cubic_infection():
    # I(t) = c0 + c1 t + c2 t^2 + c3 t^3 is its own Hermite interpolant, so
    # R' = pm + g I - mu R has the exact solution P(t) + (R0 - P(0)) e^(-mu t)
    # with P the cubic particular solution.  Steps of 1e-9 to 1.7 have
    # |mu h| < 1 (the series), steps of 7 and 10.5 do not (the recurrence).
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.3)
    pm, g, mu = params.p * params.m, params.g, params.mu
    c = (0.05, 0.02, -0.003, 1e-4)
    t = np.array([0.0, 1e-9, 0.3, 2.0, 9.0, 9.5, 20.0])
    I = c[0] + t * (c[1] + t * (c[2] + t * c[3]))
    dI = c[1] + t * (2.0 * c[2] + t * 3.0 * c[3])
    # P' = pm + g I - mu P for the cubic P = sum q_k t^k
    q3 = g * c[3] / mu
    q2 = (g * c[2] - 3.0 * q3) / mu
    q1 = (g * c[1] - 2.0 * q2) / mu
    q0 = (pm + g * c[0] - q1) / mu
    R_init = 0.2
    exact = (q0 + t * (q1 + t * (q2 + t * q3))
             + (R_init - q0) * np.exp(-mu * t))
    traj = Trajectory(
        t=t, states=np.column_stack([np.full_like(t, 0.5), I]),
        derivs=np.column_stack([np.zeros_like(t), dI]), crossings=(),
        terminal=TerminalEvent("time-horizon", 20.0, (0.5, float(I[-1]))),
        stats=IntegrationStats(6, 0, 0.0, 0), params=params,
        reversed_time=False, tol=1e-8)
    R = recover_recovered(traj, R_init)
    assert float(np.abs(R - exact).max()) <= 1e-13


@pytest.mark.parametrize("t_end", [1.0, 3.0, 40.0])
def test_recovered_exact_on_the_wall_tail(t_end):
    # on the wall I = I_w e^(-u s), so R' = pm + g I - mu R has the closed
    # form below; the tail is 0.84, 2.8 and 40 long, so both branches of
    # _phi meet it
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.9)
    pm, g, mu, u = params.p * params.m, params.g, params.mu, params.removal
    traj = integrate((0.05, 0.5), params, t_end, tol=1e-8)
    assert traj.on_wall
    R = recover_recovered(traj, 0.1)
    h = float(traj.t[-1] - traj.t[-2])
    I_w, R_w = float(np.asarray(traj.states)[-2, 1]), float(R[-2])
    exact = (R_w * math.exp(-mu * h) + pm * -math.expm1(-mu * h) / mu
             + g * I_w * (math.exp(-mu * h) - math.exp(-u * h)) / (u - mu))
    assert float(R[-1]) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_recovered_balances_at_equilibrium(p_zero):
    e2 = endemic(p_zero)
    traj = integrate((0.6, 0.3), p_zero, 200.0, tol=1e-10)
    R = recover_recovered(traj, 0.0)
    want = p_zero.g * e2.I / p_zero.mu
    assert R[-1] == pytest.approx(want, rel=1e-3)
    assert float(np.asarray(R).min()) >= 0.0


def test_recovered_requires_forward_run(p_zero):
    back = integrate((0.5, 0.1), p_zero, 1.0, tol=1e-8, reverse_time=True)
    with pytest.raises(ValueError, match="forward"):
        recover_recovered(back, 0.0)


def test_trajectory_serialization(p_zero):
    traj = integrate((0.5, 0.1), p_zero, 3.0, tol=1e-8)
    d = traj.to_json_dict()
    assert d["terminal"]["kind"] == "time-horizon"
    assert len(d["t"]) == len(traj.t)
    assert d["tol"] == 1e-8
    assert d["reversed_time"] is False
