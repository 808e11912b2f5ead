"""Acceptance battery: ten headline claims, one test each, at pinned
tolerances.  Run `pytest -v tests/test_acceptance.py` for a one-line
verdict per claim.

Criterion 06 shoots the connection locus at the 13 abscissae of the bundled
reference table and requires, at every row, the ordering
0 < p_het < p_h < p_t (the unstable cycle born at Hopf dies on the
connection) and agreement to 1e-5 with a locus computed independently of
sirbif (scipy DOP853, see conftest.INDEPENDENT_HET_POINTS). The shot and
independent loci agree to 3.5e-7. The bundled table is not a locus of this
model: it lies 0.02 % (r0 = 2.0725) to 11.9 % (r0 = 3.6667) above it, and
the manifold splitting at its p values is 3.2e-5 to 4.7e-2, against shot
residuals of at most 5.4e-7. It stays the golden of the power fit
(criterion 05) only."""

import math
import random
import time

import numpy as np
import pytest

from sirbif import (
    ModelParams,
    REFERENCE_HET_POINTS,
    belyakov_r0_zero_p,
    build_het_table,
    classify_region,
    dz_point,
    endemic,
    find_periodic_orbit,
    fit_reference_curve,
    gronwall_envelope,
    hopf_certificate,
    integrate,
    invariant_region_bound,
    omega_limit_estimate,
    p_bt2,
    p_h,
    p_sn,
    p_t,
    r0_of,
    reduced_to_params,
    region_fan,
)
from conftest import INDEPENDENT_HET_POINTS


def test_criterion_01_double_zero_certificate(base):
    cert = dz_point(base)
    assert cert.point == (2.0, pytest.approx(0.8642857142857144, rel=1e-15))
    expected = ((0.0, -0.7), (0.0, 0.0))
    for i in range(2):
        for j in range(2):
            assert abs(cert.jacobian[i][j] - expected[i][j]) <= 1e-12, (
                f"J[{i}][{j}] = {cert.jacobian[i][j]} differs from "
                f"{expected[i][j]} by more than 1e-12")
    assert cert.max_entry_error <= 1e-12
    assert max(cert.eig_moduli) <= 1e-10, (
        f"eigenvalue moduli {cert.eig_moduli} exceed 1e-10")
    assert cert.ok


def test_criterion_02_curve_concurrence_at_fold(base):
    anchor = p_sn(2.0, base)
    assert abs(anchor - p_t(2.0, base)) <= 1e-12
    assert abs(anchor - p_h(2.0, base)) <= 1e-12
    assert abs(anchor - p_bt2(2.0, base)) <= 1e-9


def test_criterion_03_curve_ordering_random_sweep(base):
    rng = random.Random(20260817)
    for _ in range(100):
        r0 = rng.uniform(2.0, 10.0)
        ph, pt, psn = p_h(r0, base), p_t(r0, base), p_sn(r0, base)
        assert ph < pt < psn, (
            f"ordering broken at r0={r0}: p_h={ph}, p_t={pt}, p_sn={psn}")
    for _ in range(100):
        r0 = rng.uniform(1.0, 2.0)
        pt, psn = p_t(r0, base), p_sn(r0, base)
        assert pt < psn, (
            f"ordering broken at r0={r0}: p_t={pt}, p_sn={psn}")


def test_criterion_04_hopf_certificates(base):
    for r0 in (2.5, 3.0, 3.5):
        cert = hopf_certificate(r0, base)
        assert abs(cert.trace) <= 1e-10, (
            f"trace at (r0={r0}, p_h) is {cert.trace}")
        want = base.A / (2.0 * r0 * r0)
        assert cert.transversality == pytest.approx(want, rel=1e-12)
        assert cert.determinant > 0.0 and cert.omega > 0.0
        assert cert.ok


def test_criterion_05_power_fit_on_reference_table():
    t0 = time.perf_counter()
    fit = fit_reference_curve()
    elapsed = time.perf_counter() - t0
    assert fit.a == pytest.approx(4.495, abs=0.01)
    assert fit.b == pytest.approx(-2.313, abs=0.01)
    assert fit.c == pytest.approx(-0.039, abs=0.002)
    assert fit.corr >= 0.99999
    assert elapsed < 1.0, f"fit took {elapsed:.2f}s"


def test_criterion_06_heteroclinic_reproduction(base):
    t0 = time.perf_counter()
    rows = build_het_table([r0 for r0, _ in REFERENCE_HET_POINTS], base)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"table took {elapsed:.0f}s"
    # A sign change of the manifold splitting was located at every abscissa.
    for row in rows:
        assert row.error == "", f"r0={row.r0}: {row.error}"
        assert math.isfinite(row.p_het) and 0.0 < row.p_het < 1.0
        assert row.splitting_residual <= 1e-4

    # Each row reproduces the independently computed locus and sits in the
    # verified ordering 0 < p_het < p_h < p_t: the unstable cycle born at
    # Hopf lives in p_het < p < p_h and dies on the connection.
    offending = []
    for row, (r0, p_indep) in zip(rows, INDEPENDENT_HET_POINTS):
        assert row.r0 == r0
        ph, pt = p_h(r0, base), p_t(r0, base)
        if not (abs(row.p_het - p_indep) <= 1e-5
                and 0.0 < row.p_het < ph < pt):
            offending.append(f"r0={r0}: shot p_het={row.p_het:.7f}, "
                             f"independent {p_indep:.7f}, p_h={ph:.7f}, "
                             f"p_t={pt:.7f}")
    assert not offending, (
        "rows off the independent locus (|p_het - p_indep| > 1e-5) or out of "
        "the ordering 0 < p_het < p_h < p_t:\n  " + "\n  ".join(offending))


def test_criterion_07_threshold_and_node_focus(base):
    # (a) subthreshold regime: every orbit sheds the infection
    params = ModelParams(A=1.1, beta=0.99 * 0.7 / 1.1, m=0.35, mu=0.175,
                         d=0.175, g=0.35, p=0.0)
    bound = invariant_region_bound(params)
    rng = random.Random(7)
    for _ in range(20):
        S0 = rng.uniform(0.0, bound)
        I0 = rng.uniform(0.0, bound - S0)
        res = omega_limit_estimate((S0, I0), params, horizon=20000.0)
        assert res.outcome == "E1", (
            f"start ({S0:.4f}, {I0:.4f}) reached {res.outcome} "
            f"({res.detail})")
    # (b) node-to-focus transition of the endemic state at p = 0
    r0_star = belyakov_r0_zero_p(base)
    eigs_node = endemic(
        reduced_to_params(r0_star - 0.05, 0.0, base)
    ).eigenvalues
    assert all(ev.imag == 0.0 for ev in eigs_node), (
        f"expected real eigenvalues below the transition, got {eigs_node}")
    eigs_focus = endemic(
        reduced_to_params(r0_star + 0.05, 0.0, base)
    ).eigenvalues
    assert all(ev.imag != 0.0 for ev in eigs_focus), (
        f"expected complex eigenvalues above the transition, got "
        f"{eigs_focus}")


def _fan_outcomes(params, *, n_boundary, n_ring):
    results = []
    for seed in region_fan(params, n_boundary=n_boundary, n_ring=n_ring):
        res = omega_limit_estimate(seed, params)
        results.append((seed, res))
    return results


def test_criterion_08_region_behaviour_pack(base):
    t0 = time.perf_counter()
    het = fit_reference_curve()

    def at(r0, p):
        return reduced_to_params(r0, p, base)

    # region B: the infection dies out along every fan trajectory
    params_b = ModelParams(A=1.0, beta=1.3, m=0.35, mu=0.25, d=0.25, g=0.50,
                           p=0.61)
    assert classify_region(r0_of(params_b), params_b.p,
                           params_b.base).value == "B"
    for seed, res in _fan_outcomes(params_b, n_boundary=20, n_ring=0):
        assert res.trajectory.final_state[1] < 1e-6, (
            f"B: start {seed} kept I = {res.trajectory.final_state[1]:.2e} "
            f"({res.outcome})")

    # regions C and D: bistability — some orbits keep the disease, some lose it
    params_c = ModelParams(A=1.1, beta=0.91, m=0.35, mu=0.175, d=0.175,
                           g=0.35, p=0.60)
    for region, params in (("C", params_c), ("D", at(2.6, 0.30))):
        outcomes = [res.outcome
                    for _, res in _fan_outcomes(params, n_boundary=12,
                                                n_ring=8)]
        assert "E2" in outcomes, f"{region}: no orbit settled on E2 {outcomes}"
        assert any(o in ("E0", "E1", "boundary-axis") for o in outcomes), (
            f"{region}: no orbit escaped to the axis {outcomes}")
    assert classify_region(2.6, 0.30, base, het=het).value == "D"

    # region E: unstable cycle separating the endemic basin
    assert classify_region(2.6, 0.48, base, het=het).value == "E"
    orbit = find_periodic_orbit(2.6, 0.48, base)
    assert orbit.floquet > 1.0
    e2 = endemic(at(2.6, 0.48))
    inside = (orbit.section_S, 0.5 * (e2.I + orbit.section_I))
    res_in = omega_limit_estimate(inside, at(2.6, 0.48))
    assert res_in.outcome == "E2", (
        f"E: inside start reached {res_in.outcome} ({res_in.detail})")
    outside = (orbit.section_S,
               orbit.section_I + 0.5 * (orbit.section_I - e2.I))
    res_out = omega_limit_estimate(outside, at(2.6, 0.48))
    assert res_out.outcome != "E2", "E: outside start fell back onto E2"

    # regions F and G: endemic state repels, nothing settles on it
    for region, p in (("F", 0.60), ("G", 0.805)):
        assert classify_region(2.6, p, base, het=het).value == region
        e2 = endemic(at(2.6, p))
        assert max(ev.real for ev in e2.eigenvalues) > 0.0, (
            f"{region}: E2 eigenvalues {e2.eigenvalues} all decay")
        outcomes = [res.outcome
                    for _, res in _fan_outcomes(at(2.6, p), n_boundary=12,
                                                n_ring=8)]
        assert "E2" not in outcomes, f"{region}: an orbit settled on E2"

    # regions A and H: no interior endemic state, extinction everywhere
    for region, p in (("A", 0.90), ("H", 0.84)):
        assert classify_region(2.6, p, base, het=het).value == region
        assert not endemic(at(2.6, p)).interior
        for seed, res in _fan_outcomes(at(2.6, p), n_boundary=20, n_ring=0):
            assert res.trajectory.final_state[1] < 1e-6, (
                f"{region}: start {seed} kept "
                f"I = {res.trajectory.final_state[1]:.2e} ({res.outcome})")

    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"region pack took {elapsed:.0f}s"


def test_criterion_09_flow_invariance_batch():
    rng = np.random.default_rng(20260817)
    t0 = time.perf_counter()
    worst_region = 0.0
    worst_envelope = -math.inf
    for _ in range(1000):
        params = ModelParams(A=float(rng.uniform(0.5, 2.0)),
                             beta=float(rng.uniform(0.2, 2.0)),
                             m=float(rng.uniform(0.1, 0.5)),
                             mu=float(rng.uniform(0.05, 0.4)),
                             d=float(rng.uniform(0.05, 0.4)),
                             g=float(rng.uniform(0.1, 0.6)),
                             p=float(rng.uniform(0.0, 1.0)))
        bound = invariant_region_bound(params)
        S0 = float(rng.uniform(0.0, bound))
        I0 = float(rng.uniform(0.0, bound - S0))
        traj = integrate((S0, I0), params, 100.0)
        states = np.asarray(traj.states)
        total = states[:, 0] + states[:, 1]
        worst_region = max(worst_region,
                           float(np.max(-states)),
                           float(np.max(total - bound)))
        env = np.array([gronwall_envelope(S0 + I0, float(t), params)
                        for t in traj.t])
        worst_envelope = max(worst_envelope, float(np.max(total - env)))
    elapsed = time.perf_counter() - t0
    assert worst_region <= 1e-6, (
        f"invariant region violated by {worst_region:.2e}")
    assert worst_envelope <= 1e-6, (
        f"decay envelope exceeded by {worst_envelope:.2e}")
    assert elapsed <= 60.0, f"batch took {elapsed:.0f}s"


def test_criterion_10_integrator_order_and_reversal():
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.0)
    x0 = (0.8, 0.2)
    for tol in (1e-6, 1e-8, 1e-10):
        end = integrate(x0, params, 10.0, tol=tol).final_state
        fine = integrate(x0, params, 10.0, tol=tol / 32.0).final_state
        drift = math.hypot(end[0] - fine[0], end[1] - fine[1])
        assert drift <= 64.0 * tol, (
            f"tol={tol}: endpoint moved {drift:.2e} > {64 * tol:.2e}")
        forward = integrate(x0, params, 10.0, tol=tol)
        back = integrate(forward.final_state, params, 10.0,
                         reverse_time=True, tol=tol).final_state
        err = math.hypot(back[0] - x0[0], back[1] - x0[1])
        assert err <= 100.0 * tol, (
            f"tol={tol}: round trip missed by {err:.2e} > {100 * tol:.2e}")
