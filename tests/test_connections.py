"""Heteroclinic location by shooting, the power-law fit, and the unstable
periodic orbit."""

import importlib
import math
import weakref

import numpy as np
import pytest

import sirbif.connections as connections
from sirbif import (
    REFERENCE_BASE,
    REFERENCE_HET_POINTS,
    BaseParams,
    MislabeledRegionError,
    NotInRegionEError,
    PowerFit,
    ReducedPoint,
    SameSignBracketError,
    build_het_table,
    endemic,
    find_het_p,
    find_periodic_orbit,
    fit_reference_curve,
    in_invariant_region,
    invariant_region_bound,
    omega_limit_estimate,
    p_h,
    p_sn,
    p_t,
    power_fit,
    reduced_to_params,
    splitting,
)
from sirbif.connections import FitSingularError
from conftest import INDEPENDENT_HET_POINTS


BASE_A13 = BaseParams(A=1.3, m=0.35, mu=0.175, d=0.175, g=0.35)


@pytest.fixture(scope="module")
def reference_fit():
    return fit_reference_curve()


@pytest.fixture(scope="module")
def het26(base):
    return find_het_p(2.6, base)


# ---------------------------------------------------------------------------
# embedded reference table


def test_reference_table_shape():
    assert len(REFERENCE_HET_POINTS) == 13
    r0s = [r for r, _ in REFERENCE_HET_POINTS]
    ps = [p for _, p in REFERENCE_HET_POINTS]
    assert r0s == sorted(r0s) and len(set(r0s)) == 13
    assert ps == sorted(ps, reverse=True)
    assert REFERENCE_HET_POINTS[0] == (2.0725, 0.793486)
    assert REFERENCE_HET_POINTS[-1] == (3.6667, 0.183883)
    assert all(r > 2.0 and 0.0 < p < 1.0 for r, p in REFERENCE_HET_POINTS)


# ---------------------------------------------------------------------------
# splitting function and its root


def test_splitting_signs_straddle_reference(base):
    below = splitting(2.6, 0.40, base)
    above = splitting(2.6, 0.50, base)
    assert below < -0.01
    assert above > 0.01


def test_splitting_validation(base):
    with pytest.raises(ValueError, match="needs r0 > 2"):
        splitting(1.5, 0.3, base)
    with pytest.raises(ValueError, match="needs 0 < p < p_t"):
        splitting(2.6, 0.9, base)


def test_split_function_is_monotone_near_root(base, het26):
    lo = splitting(2.6, het26.p_het - 0.01, base)
    hi = splitting(2.6, het26.p_het + 0.01, base)
    assert lo < 0.0 < hi


def test_find_het_reference_slice(base, het26):
    res = het26
    assert res.r0 == 2.6
    assert res.p_het == pytest.approx(0.4459443, abs=2e-4)
    assert res.splitting_residual <= 1e-4
    assert res.iterations > 0
    assert 0.0 < res.p_het < p_h(2.6, base) < p_t(2.6, base)
    # within 2% of the interpolated reference value at this abscissa
    assert abs(res.p_het - 0.453994) / 0.453994 < 0.02


def test_find_het_series_order_robustness(base, het26, monkeypatch):
    monkeypatch.setattr(importlib.import_module("sirbif.integrate"),
                        "_SERIES_ORDER", 8)
    alt = find_het_p(2.6, base)
    assert abs(alt.p_het - het26.p_het) <= 1e-7


def _dop853_splitting(r0, p, base):
    """I_u - I_s on the section S = A/r0, from the README vector field alone:
    closed-form axis saddles and transverse eigenvectors, scipy DOP853 shots
    of W^u(E1) forward and W^s(E0) backward to their first crossings with
    original-time dS/dt < 0."""
    from scipy.integrate import solve_ivp

    A, m, u = base.A, base.m, base.mu + base.d + base.g
    beta = r0 * u / A

    def field(t, x, sign):
        S, I = x
        return (sign * (S * (A - S) - beta * I * S - p * m),
                sign * (beta * I * S - u * I))

    def section(t, x, sign):
        return x[0] - A / r0

    section.terminal = True

    def first_crossing_I(S_axis, sign):
        # transverse eigenpair at (S_axis, 0): lam = beta*S - u with
        # eigenvector (beta*S, A - 2S - lam), oriented into I > 0
        lam = beta * S_axis - u
        assert lam * sign > 0.0, "axis equilibrium is not a saddle"
        v = np.array([beta * S_axis, A - 2.0 * S_axis - lam])
        v *= math.copysign(1e-6, v[1]) / np.linalg.norm(v)
        section.direction = -sign
        sol = solve_ivp(field, (0.0, 900.0), (S_axis + v[0], v[1]),
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        events=section, args=(sign,))
        assert sol.status == 1, f"no crossing at (r0, p) = ({r0}, {p})"
        return sol.y_events[0][0][1]

    root = math.sqrt(A * A - 4.0 * p * m)
    return (first_crossing_I((A + root) / 2.0, +1.0)
            - first_crossing_I((A - root) / 2.0, -1.0))


def test_independent_het_locus(base):
    pytest.importorskip("scipy")
    from scipy.optimize import brentq

    assert ([r0 for r0, _ in INDEPENDENT_HET_POINTS]
            == [r0 for r0, _ in REFERENCE_HET_POINTS])
    for (r0, p_indep), (_, p_ref) in zip(INDEPENDENT_HET_POINTS,
                                         REFERENCE_HET_POINTS):
        ph = p_h(r0, base)
        p_het = brentq(lambda p: _dop853_splitting(r0, p, base), 0.5 * ph, ph,
                       xtol=1e-10)
        assert abs(p_het - p_indep) <= 1e-7, (r0, p_het, p_indep)
        # the bundled values are not connections of this model
        assert abs(_dop853_splitting(r0, p_ref, base)) > 1e-5, (r0, p_ref)


def test_find_het_same_sign_bracket():
    # at A = 1.3, r0 = 2.15 the connection lies above the bracket top p = 1
    with pytest.raises(SameSignBracketError, match="keeps sign"):
        find_het_p(2.15, BASE_A13)


@pytest.mark.parametrize("A, m, g, r0, want", [
    (0.6, 0.2, 0.1, 6.0, 0.0109140),
    (0.6, 0.35, 0.35, 5.0, 0.0122602),
])
def test_find_het_low_connection(A, m, g, r0, want):
    # connections below 0.05*p_sn: the bottom 0.05*min(p_h, 1) reaches them
    low_base = BaseParams(A=A, m=m, mu=0.175, d=0.175, g=g)
    assert want < 0.05 * p_sn(r0, low_base)
    res = find_het_p(r0, low_base)
    assert res.p_het == pytest.approx(want, abs=1e-7)
    assert 0.0 < res.p_het < p_h(r0, low_base) < p_t(r0, low_base)


@pytest.mark.parametrize("f, root", [
    (lambda x: x ** 3 - 2.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: math.tanh(50.0 * (x - 0.7)), 0.7),
    (lambda x: -1.0 if x < 0.3 else 1.0, 0.3),     # forces bisection steps
])
def test_brent_brackets_root_to_tolerance(f, root):
    # the connection's tolerance and the cycle's
    for tol in (connections._SOLVE_TOL, connections._RETURN_TOL):
        b, fb, iterations = connections._brent(f, 0.0, 2.0, f(0.0), f(2.0),
                                               tol)
        assert abs(b - root) <= tol
        assert fb == f(b)
        assert 0 < iterations < 60


def _count_splitting(monkeypatch):
    calls = []
    real = connections.splitting

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(connections, "splitting", counted)
    return calls


def test_find_het_evaluation_cap(base, monkeypatch):
    calls = _count_splitting(monkeypatch)
    res = find_het_p(2.6, base)
    assert len(calls) <= 10
    assert res.iterations == len(calls) - 2
    assert res.splitting_residual == abs(splitting(2.6, res.p_het, base))


def test_find_het_bracket_capped_at_one():
    # at A = 1.3 the transcritical value exceeds p = 1 at every abscissa,
    # and at r0 = 2.19 the Hopf value does too
    for r0, expected in ((2.19, 0.9718316), (2.2, 0.9611213),
                         (2.6, 0.6306642)):
        res = find_het_p(r0, BASE_A13)
        assert p_t(r0, BASE_A13) > 1.0
        assert 0.0 < res.p_het < p_h(r0, BASE_A13) < p_t(r0, BASE_A13)
        assert res.p_het == pytest.approx(expected, abs=1e-6)
        assert res.splitting_residual <= 1e-6
        assert splitting(r0, res.p_het - 1e-4, BASE_A13) < 0.0
        assert splitting(r0, res.p_het + 1e-4, BASE_A13) > 0.0


@pytest.mark.parametrize("het_base, r0_list", [
    (REFERENCE_BASE, (2.2, 2.6, 3.5)),
    (BASE_A13, (2.19, 2.6)),
    (BaseParams(A=1.0, m=0.35, mu=0.175, d=0.175, g=0.35), (2.6,)),
])
def test_find_het_one_bracket(het_base, r0_list, monkeypatch):
    # the ends (0.05*hi, hi) with hi = min(p_h, 1) are shot first, in that
    # order, and every later shot stays inside them
    calls = _count_splitting(monkeypatch)
    for r0 in r0_list:
        del calls[:]
        find_het_p(r0, het_base)
        hi = min(p_h(r0, het_base), 1.0)
        lo = 0.05 * hi
        assert calls[:2] == [lo, hi]
        assert all(lo <= p <= hi for p in calls)


def test_find_het_connection_above_one(monkeypatch):
    # at r0 = 2.15 the top caps at p = 1 and the connection lies above it:
    # the two ends are shot, then the error
    calls = _count_splitting(monkeypatch)
    with pytest.raises(SameSignBracketError):
        find_het_p(2.15, BASE_A13)
    assert calls == [0.05, 1.0]


def test_het_table_rows_match_single_solves(base, het26):
    rows = build_het_table([2.2, 2.6], base)
    assert [r.r0 for r in rows] == [2.2, 2.6]
    assert all(r.error == "" for r in rows)
    assert rows[1].p_het == pytest.approx(het26.p_het, abs=1e-9)
    assert rows[0].p_het == pytest.approx(0.685397, abs=1e-3)


def test_het_table_failures_become_rows(base):
    rows = build_het_table([2.6], base)
    assert rows[0].error == ""
    bad = build_het_table([float("nan")], base)
    assert len(bad) == 1
    assert bad[0].error != ""
    assert math.isnan(bad[0].p_het)


def test_het_table_parallel_agrees(base):
    seq = build_het_table([2.3, 2.9], base, jobs=1)
    par = build_het_table([2.3, 2.9], base, jobs=2)
    for a, b in zip(seq, par):
        assert a.r0 == b.r0
        assert a.p_het == b.p_het
        assert a.error == b.error == ""


# ---------------------------------------------------------------------------
# power-law fit


def test_power_fit_recovers_exact_parameters():
    a, b, c = 2.0, -1.0, 0.5
    points = [(r0, a * r0 ** b + c) for r0 in np.linspace(2.1, 3.5, 12)]
    fit = power_fit(points)
    assert fit.a == pytest.approx(a, abs=1e-8)
    assert fit.b == pytest.approx(b, abs=1e-8)
    assert fit.c == pytest.approx(c, abs=1e-8)
    assert fit.rss <= 1e-16
    assert fit.corr >= 1.0 - 1e-12
    assert fit(2.5) == pytest.approx(a * 2.5 ** b + c, abs=1e-8)


def test_power_fit_reference_values_pinned():
    # the fit runs in Python floats; it keeps the numpy-era values of the
    # reference table to 1e-14 in a, b and c and the same 22 rounds. rss is
    # held to 1e-13: the 13 residuals are about 3e-4 and each carries up to
    # 6e-17 of rounding, so the computed rss is good to about 1e-13 only (its
    # exact value at the pinned a, b, c is 8.4706869040786110e-07, 7e-14 off)
    fit = power_fit(REFERENCE_HET_POINTS)
    for got, want, rel in ((fit.a, 4.495477591350638, 1e-14),
                           (fit.b, -2.313144396318223, 1e-14),
                           (fit.c, -0.03917162530289507, 1e-14),
                           (fit.rss, 8.470686904079201e-07, 1e-13)):
        assert abs(got - want) <= rel * abs(want), (got, want)
    assert fit.iterations == 22


def test_power_fit_shift_property(reference_fit):
    shifted = power_fit([(r, p + 1.0) for r, p in REFERENCE_HET_POINTS])
    assert shifted.c == pytest.approx(reference_fit.c + 1.0, abs=1e-6)
    assert shifted.a == pytest.approx(reference_fit.a, abs=1e-6)
    assert shifted.b == pytest.approx(reference_fit.b, abs=1e-6)


def test_reference_fit_values(reference_fit):
    fit = reference_fit
    assert fit.a == pytest.approx(4.495, abs=0.01)
    assert fit.b == pytest.approx(-2.313, abs=0.01)
    assert fit.c == pytest.approx(-0.039, abs=0.002)
    assert fit.corr >= 0.99999
    assert fit.iterations < 500
    assert fit.grad_norm <= 1e-8 * (1.0 + fit.rss)
    # the fit is itself the curve r0 -> a*r0^b + c
    assert fit(2.6) == pytest.approx(fit.a * 2.6 ** fit.b + fit.c, rel=1e-12)
    assert fit(2.6) == pytest.approx(0.453869, abs=1e-6)


def test_power_fit_singular_inputs():
    with pytest.raises(ValueError, match="at least 4"):
        power_fit([(2.1, 0.7), (2.5, 0.5)])          # fewer points than parameters
    with pytest.raises(FitSingularError):
        power_fit([(2.4, 0.5)] * 6)                  # no spread in r0
    with pytest.raises(ValueError, match="positive"):
        power_fit([(-2.1, 0.7), (2.2, 0.6), (2.3, 0.55), (2.4, 0.5)])


def test_power_fit_result_is_value_object(reference_fit):
    clone = PowerFit(reference_fit.a, reference_fit.b, reference_fit.c,
                     reference_fit.rss, reference_fit.corr,
                     reference_fit.iterations, reference_fit.grad_norm)
    assert clone == reference_fit


# ---------------------------------------------------------------------------
# the unstable periodic orbit


@pytest.fixture
def integrate_calls(monkeypatch):
    """The start of every integration the cycle search makes."""
    calls = []
    real = connections.integrate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(connections, "integrate", counted)
    return calls


def test_periodic_orbit_reference(base, integrate_calls):
    orbit = find_periodic_orbit(2.6, 0.48, base)
    # two bracket ends and the Brent iterates, nothing else
    assert len(integrate_calls) <= 20
    params = reduced_to_params(ReducedPoint(2.6, 0.48, base))
    e2 = endemic(params)
    assert orbit.section_S == pytest.approx(e2.S, rel=1e-12)
    assert orbit.section_I > e2.I
    assert orbit.period == pytest.approx(17.2508, abs=1e-3)
    assert orbit.floquet == pytest.approx(1.7361, abs=1e-3)
    assert orbit.floquet > 1.0
    assert orbit.return_residual <= 1e-9
    assert len(orbit.t) == len(orbit.states)
    assert all(in_invariant_region(tuple(s), params, tol=1e-9)
               for s in orbit.states)
    assert float(np.min(np.asarray(orbit.states)[:, 1])) > 0.0
    # loop closes: first and last recorded states coincide to the polish tol
    gap = math.hypot(orbit.states[0][0] - orbit.states[-1][0],
                     orbit.states[0][1] - orbit.states[-1][1])
    assert gap <= 1e-6


@pytest.mark.parametrize("r0, p", [(2.6, 0.48), (3.0, 0.305)])
def test_periodic_orbit_integrates_each_start_once(base, r0, p, integrate_calls):
    # the cycle is read from the run Brent made at its section point, so no
    # start is integrated twice: two bracket ends and 17 Brent iterates
    find_periodic_orbit(r0, p, base)
    assert len(set(integrate_calls)) == len(integrate_calls) == 19


@pytest.mark.parametrize("r0, p", [(2.6, 0.48), (3.0, 0.305)])
def test_periodic_orbit_keeps_at_most_three_runs(base, r0, p, monkeypatch):
    # the search drops each return-map run once Brent's bracket has left it
    live, most = weakref.WeakSet(), []
    real = connections.integrate

    def tracked(*args, **kwargs):
        traj = real(*args, **kwargs)
        live.add(traj)
        most.append(len(live))
        return traj

    monkeypatch.setattr(connections, "integrate", tracked)
    orbit = find_periodic_orbit(r0, p, base)
    assert len(most) == 19 and max(most) <= 3
    assert orbit.return_residual <= 1e-9


def _cycle_or_refusal(r0, p, base):
    try:
        return find_periodic_orbit(r0, p, base)
    except MislabeledRegionError as exc:
        return str(exc)


@pytest.mark.parametrize("r0, p", [
    (2.6171, 0.483462), (2.6, 0.48), (2.3, 0.64),
    (3.0, 0.29),       # below the connection: refused
])
def test_escape_section_keeps_the_cycle(base, r0, p, monkeypatch):
    # M = {0 <= S <= A, S + I <= bound} is forward invariant, so a reversed
    # run that crosses S = A never returns; ending it there changes no gap
    # value. A search whose gap arms only the return section finds the same
    # orbit, or refuses with the same message.
    real = connections.integrate
    ends = []

    def recorded(*args, **kwargs):
        traj = real(*args, **kwargs)
        ends.append(traj.terminal.section)
        return traj

    def return_only(*args, sections=(), **kwargs):
        kept = tuple(sec for sec in sections if sec.name == "return")
        return real(*args, sections=kept, **kwargs)

    monkeypatch.setattr(connections, "integrate", recorded)
    got = _cycle_or_refusal(r0, p, base)
    assert "escape" in ends
    monkeypatch.setattr(connections, "integrate", return_only)
    assert got == _cycle_or_refusal(r0, p, base)


@pytest.mark.parametrize("r0, frac", [
    (2.1, 0.5),        # mid-band
    (2.6, 0.98),       # next to the Hopf value, where the map is nearly flat
    (3.5, 0.02),       # next to the connection
])
def test_periodic_orbit_across_band(base, r0, frac, integrate_calls):
    # frac places p in the band from the model's connection to the Hopf value
    het = find_het_p(r0, base).p_het
    p = het + frac * (p_h(r0, base) - het)
    orbit = find_periodic_orbit(r0, p, base)
    params = reduced_to_params(ReducedPoint(r0, p, base))
    e2 = endemic(params)
    headroom = invariant_region_bound(params) - e2.S - e2.I
    assert e2.I < orbit.section_I < e2.I + headroom
    assert orbit.return_residual <= 1e-9
    assert orbit.floquet > 1.0
    gap = math.hypot(orbit.states[0][0] - orbit.states[-1][0],
                     orbit.states[0][1] - orbit.states[-1][1])
    assert gap <= 1e-6
    assert len(integrate_calls) <= 40


def test_periodic_orbit_serialization(base):
    orbit = find_periodic_orbit(2.6, 0.48, base)
    d = orbit.to_json_dict()
    assert d["period"] == orbit.period
    assert d["floquet"] == orbit.floquet
    assert d["section"]["S"] == orbit.section_S


def test_periodic_orbit_band_shrinks_toward_hopf(base):
    # closer to the Hopf value the cycle is smaller and faster
    near_het = find_periodic_orbit(2.6, 0.48, base)
    near_hopf = find_periodic_orbit(2.6, 0.50, base)
    e2_48 = endemic(reduced_to_params(ReducedPoint(2.6, 0.48, base)))
    e2_50 = endemic(reduced_to_params(ReducedPoint(2.6, 0.50, base)))
    amp_48 = near_het.section_I - e2_48.I
    amp_50 = near_hopf.section_I - e2_50.I
    assert amp_50 < amp_48
    assert near_hopf.period < near_het.period


def test_periodic_orbit_rejects_outside_band(base):
    # above Hopf E2 is an unstable focus: no band
    with pytest.raises(NotInRegionEError, match="cycle band"):
        find_periodic_orbit(2.6, 0.60, base)
    # below the connection the loop does not close
    with pytest.raises(MislabeledRegionError, match="misses its start"):
        find_periodic_orbit(2.6, 0.40, base)
    for r0 in (2.0, 1.5, -1.0, math.nan):
        with pytest.raises(NotInRegionEError, match="cycle band"):
            find_periodic_orbit(r0, 0.5, base)


@pytest.mark.parametrize("r0", [2.1, 2.6, 3.0, 3.5])
def test_periodic_orbit_certifies_band(base, r0, integrate_calls):
    # no heteroclinic value goes in: the E2 class, the bracket and the
    # closing residual place the band's lower edge at the model's connection
    het = find_het_p(r0, base).p_het
    width = p_h(r0, base) - het
    for p in (het + 1e-5, het + 1e-3 * width, het + 5e-3 * width,
              het + 1e-2 * width):
        orbit = find_periodic_orbit(r0, p, base)
        assert orbit.floquet > 1.0, (r0, p)
        assert orbit.return_residual <= 1e-9, (r0, p)
    for offset in (1e-5, 1e-4, 1e-3, 0.03):
        integrate_calls.clear()
        with pytest.raises(MislabeledRegionError, match="misses its start"):
            find_periodic_orbit(r0, het - offset, base)
        # the search stops once no point left in its bracket can close, so a
        # refusal costs no more than a success
        assert len(integrate_calls) <= 40, (r0, offset)


def _dop853_cycle_multiplier(r0, p, base):
    """exp of the loop integral of div f over the unstable cycle, found from
    the README vector field alone: brentq on the reversed return map to
    S = S2, each traversal a pair of scipy DOP853 legs (bottom crossing, then
    top crossing) with the integral L' = div f carried along."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    A, m, u = base.A, base.m, base.mu + base.d + base.g
    beta = r0 * u / A
    S2 = u / beta
    I2 = (S2 * (A - S2) - p * m) / (beta * S2)
    bound = A * (u + A) / u
    headroom = bound - S2 - I2

    def field(t, x):
        S, I, _ = x
        return (-(S * (A - S) - beta * I * S - p * m),
                -(beta * I * S - u * I),
                (A - u) + (beta - 2.0) * S - beta * I)

    def section(t, x):
        return x[0] - S2

    def escape(t, x):
        return 50.0 * bound - max(abs(x[0]), abs(x[1]))

    section.terminal = escape.terminal = True

    def leg(x0, direction):
        section.direction = direction
        sol = solve_ivp(field, (0.0, 800.0), x0, method="DOP853", rtol=1e-13,
                        atol=1e-15, events=(section, escape))
        return sol.y_events[0][0] if len(sol.t_events[0]) else None

    def loop(I_value):
        bottom = leg((S2, I_value, 0.0), -1)
        return None if bottom is None else leg(bottom, +1)

    def gap(I_value):
        end = loop(I_value)
        return -headroom if end is None else end[1] - I_value

    I_star = brentq(gap, I2 + 1e-4 * headroom, I2 + headroom, xtol=1e-14)
    return math.exp(loop(I_star)[2])


def test_independent_floquet_multiplier(base):
    pytest.importorskip("scipy")
    points = [(2.6, 0.48)]
    for r0, frac in ((2.1, 0.5), (3.0, 0.5), (3.5, 0.02)):
        het = find_het_p(r0, base).p_het
        points.append((r0, het + frac * (p_h(r0, base) - het)))
    for r0, p in points:
        want = _dop853_cycle_multiplier(r0, p, base)
        for tol, bound in ((1e-12, 1e-6), (1e-10, 1e-5)):
            got = find_periodic_orbit(r0, p, base, tol=tol).floquet
            assert abs(got - want) <= bound * want, (r0, p, tol, got, want)


def test_cycle_separates_basins(base):
    # inside the unstable orbit trajectories sink to E2; outside they reach
    # the wall and the infection dies out
    p = 0.48
    params = reduced_to_params(ReducedPoint(2.6, p, base))
    orbit = find_periodic_orbit(2.6, p, base)
    e2 = endemic(params)
    inside_I = 0.5 * (e2.I + orbit.section_I)
    inside = omega_limit_estimate((orbit.section_S, inside_I), params)
    assert inside.outcome == "E2"
    outside_I = orbit.section_I + 0.5 * (orbit.section_I - e2.I)
    bound = invariant_region_bound(params)
    assert orbit.section_S + outside_I < bound
    outside = omega_limit_estimate((orbit.section_S, outside_I), params)
    assert outside.outcome == "boundary-axis"
