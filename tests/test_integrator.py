"""Adaptive integration: accuracy, events, wall handoff, limit-set
estimation, manifold shooting, and the recovered-class reconstruction."""

import math

import numpy as np
import pytest

from sirbif import (
    REFERENCE_BASE,
    ModelParams,
    ReducedPoint,
    SectionEvent,
    TerminalEvent,
    Trajectory,
    disease_free,
    endemic,
    find_periodic_orbit,
    fit_reference_curve,
    integrate,
    invariant_region_bound,
    manifold_shoot,
    omega_limit_estimate,
    p_t,
    recover_recovered,
    reduced_to_params,
    vector_field,
)
from sirbif.integrate import IntegrationStats


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
    assert traj.derivs[0, 0] == vector_field((0.5, 0.1), p_zero)[0]
    assert traj.derivs[0, 1] == vector_field((0.5, 0.1), p_zero)[1]
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
    assert float(traj.states.min()) >= -10.0 * tol


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


# ---------------------------------------------------------------------------
# events


def test_section_event_localization(p_zero):
    e2 = endemic(p_zero)
    sec = SectionEvent(e2.S, -1, terminal=True, name="test-sec")
    traj = integrate((0.9, 0.3), p_zero, 50.0, tol=1e-8, sections=[sec])
    assert traj.terminal.kind == "crossed-section"
    assert traj.terminal.section == "test-sec"
    assert abs(traj.terminal.state[0] - e2.S) <= 1e-10
    assert traj.crossings and traj.crossings[-1].name == "test-sec"


def test_directional_crossings_only(p_zero):
    e2 = endemic(p_zero)
    down = SectionEvent(e2.S, -1, name="down")
    traj = integrate((0.9, 0.3), p_zero, 120.0, tol=1e-8, sections=[down])
    named = [c for c in traj.crossings if c.name == "down"]
    assert named, "spiral toward E2 must cross its section"
    assert all(c.direction == -1 for c in named)
    # early crossings are genuinely transversal; late ones sit at the
    # equilibrium where the field has shrunk to the localization floor
    assert vector_field(named[0].state, p_zero)[0] < -1e-3
    for c in named:
        assert vector_field(c.state, p_zero)[0] < 1e-8


@pytest.mark.parametrize("direction", [0, 2])
def test_section_direction_must_be_signed(direction):
    with pytest.raises(ValueError, match="direction must be -1 or \\+1"):
        SectionEvent(0.5, direction)


def test_left_domain_terminal():
    # in reversed time S runs off to infinity from near the S-axis
    params = reduced_to_params(ReducedPoint(2.6, 0.48, REFERENCE_BASE))
    traj = integrate((0.95, 0.01), params, 50.0, tol=1e-8, reverse_time=True)
    bound = 50.0 * invariant_region_bound(params)
    assert traj.terminal.kind == "left-domain"
    assert traj.terminal.t < 50.0
    assert max(abs(traj.terminal.state[0]), abs(traj.terminal.state[1])) > bound


# ---------------------------------------------------------------------------
# wall handoff (S = 0)


def test_wall_handoff_and_decay():
    # p above the fold: S declines to the wall, then I decays exponentially
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.9)
    traj = integrate((0.05, 0.5), params, 400.0, tol=1e-8)
    assert traj.on_wall
    assert traj.final_state[0] == 0.0
    assert float(traj.states[:, 0].min()) >= 0.0
    wall_pos = int(np.argmax(traj.states[:, 0] == 0.0))
    wall_I = traj.states[wall_pos:, 1]
    assert float(wall_I[-1]) <= 1e-6
    # decay is strictly monotone above the absolute-tolerance noise floor
    head = wall_I[wall_I > 1e-7]
    assert len(head) > 3 and np.all(np.diff(head) < 0.0)
    assert float(wall_I.max()) == float(wall_I[0])
    # on-wall decay follows dI/dt = -(sigma+g) I
    t_w = traj.t[wall_pos:]
    predicted = wall_I[0] * np.exp(-params.removal * (t_w - t_w[0]))
    assert float(np.abs(wall_I - predicted).max()) <= 1e-6

    # a recorded section above the wall is crossed first, in time order, and
    # recording it leaves the run itself unchanged
    above = SectionEvent(0.02, -1, name="above-wall")
    both = integrate((0.05, 0.5), params, 400.0, tol=1e-8, sections=[above])
    assert [c.name for c in both.crossings] == ["above-wall", "wall"]
    assert both.crossings[0].t < both.crossings[1].t
    assert abs(both.crossings[0].state[0] - 0.02) <= 1e-10
    assert both.crossings[1].state[0] == 0.0
    assert both.crossings[1].direction == -1
    assert np.array_equal(both.t, traj.t)
    assert np.array_equal(both.states, traj.states)


# ---------------------------------------------------------------------------
# limit-set estimation


def test_omega_limit_core_outcomes(base):
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


def test_omega_limit_detects_cycle(base):
    # start exactly on the tightly polished unstable orbit: for dozens of
    # loops the trajectory revisits the section with consistent period
    het = fit_reference_curve()
    orbit = find_periodic_orbit(2.6, 0.48, base, het_p=float(het(2.6)),
                                tol=1e-12, return_tol=1e-12)
    params = reduced_to_params(ReducedPoint(2.6, 0.48, base))
    res = omega_limit_estimate((orbit.section_S, orbit.section_I), params,
                               horizon=300.0, tol=1e-10)
    assert res.outcome == "cycle"
    reported_period = float(res.detail.split("~")[1].split(",")[0])
    assert reported_period == pytest.approx(orbit.period, abs=2e-2)


def test_omega_limit_escape_from_unstable_focus(base):
    # above the Hopf curve the focus repels and the wall absorbs
    params = reduced_to_params(ReducedPoint(2.6, 0.60, base))
    e2 = endemic(params)
    res = omega_limit_estimate((e2.S + 1e-3, e2.I), params)
    assert res.outcome == "boundary-axis"


# ---------------------------------------------------------------------------
# manifold shooting


def test_unstable_shot_enters_interior(p_zero):
    _, e1 = disease_free(p_zero)
    traj = manifold_shoot(e1, "unstable", 1e-6, p_zero, 30.0)
    assert not traj.reversed_time
    assert traj.states[0, 1] > 0.0
    assert traj.states[1, 1] > traj.states[0, 1]
    assert float(traj.states[:, 1].max()) > 0.01


def test_stable_shot_traces_backward(base):
    params = reduced_to_params(
        ReducedPoint(1.5, p_t(1.5, base) - 0.02, base))
    e0 = disease_free(params)[0]
    traj = manifold_shoot(e0, "stable", 1e-6, params, 30.0)
    assert traj.reversed_time
    assert traj.states[0, 1] > 0.0
    assert traj.states[-1, 1] > traj.states[0, 1]


def test_offset_scaling_is_linear(p_zero):
    _, e1 = disease_free(p_zero)
    d_full = dist(tuple(manifold_shoot(e1, "unstable", 1e-5, p_zero,
                                       1.0).states[0]), e1.location)
    d_half = dist(tuple(manifold_shoot(e1, "unstable", 5e-6, p_zero,
                                       1.0).states[0]), e1.location)
    assert d_full == pytest.approx(1e-5, rel=1e-9)
    assert d_full / d_half == pytest.approx(2.0, rel=1e-9)


def test_shoot_validation(p_zero):
    e2 = endemic(p_zero)          # a sink, not a saddle
    _, e1 = disease_free(p_zero)
    with pytest.raises(ValueError, match="saddle"):
        manifold_shoot(e2, "unstable", 1e-6, p_zero, 1.0)
    with pytest.raises(ValueError, match="direction"):
        manifold_shoot(e1, "sideways", 1e-6, p_zero, 1.0)
    with pytest.raises(ValueError, match="offset"):
        manifold_shoot(e1, "unstable", 1e-9, p_zero, 1.0)
    with pytest.raises(ValueError, match="offset"):
        manifold_shoot(e1, "unstable", 1e-3, p_zero, 1.0)


# ---------------------------------------------------------------------------
# recovered-class reconstruction


def test_recovered_closed_form_when_no_infection(figure_params):
    params = figure_params(p=0.5)
    traj = integrate((0.5, 0.0), params, 40.0, tol=1e-10)
    assert float(np.abs(traj.states[:, 1]).max()) == 0.0
    R = recover_recovered(traj, 0.0)
    ratio = params.p * params.m / params.mu
    exact = ratio * (1.0 - np.exp(-params.mu * traj.t))
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


def test_recovered_balances_at_equilibrium(p_zero):
    e2 = endemic(p_zero)
    traj = integrate((0.6, 0.3), p_zero, 200.0, tol=1e-10)
    R = recover_recovered(traj, 0.0)
    want = p_zero.g * e2.I / p_zero.mu
    assert R[-1] == pytest.approx(want, rel=1e-3)
    assert float(R.min()) >= 0.0


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
