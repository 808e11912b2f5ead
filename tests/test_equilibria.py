"""Equilibria, Jacobians, stability classification, and the node/focus
(Belyakov) discriminant."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sirbif import (
    REFERENCE_BASE,
    BaseParams,
    BelyakovDomainError,
    Equilibrium,
    ModelParams,
    StabilityClass,
    belyakov_r0_zero_p,
    belyakov_roots,
    classify,
    disease_free,
    eigenvalues_2x2,
    endemic,
    jacobian,
    reduced_to_params,
    vector_field,
)

r0s = st.floats(min_value=1.05, max_value=6.0, allow_nan=False)
ps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def at(r0, p):
    return reduced_to_params(r0, p, REFERENCE_BASE)


# ---------------------------------------------------------------------------
# Jacobian and eigenvalue machinery


@given(st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       r0s, ps)
def test_jacobian_matches_finite_differences(S, I, r0, p):
    params = at(r0, p)
    J = jacobian((S, I), params)
    h = 1e-6
    for j, delta in enumerate([(h, 0.0), (0.0, h)]):
        plus = vector_field((S + delta[0], I + delta[1]), params)
        minus = vector_field((S - delta[0], I - delta[1]), params)
        for i in range(2):
            fd = (plus[i] - minus[i]) / (2.0 * h)
            assert J[i][j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


@given(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=4, max_size=4))
def test_eigenvalues_match_numpy(entries):
    matrix = np.array(entries, dtype=float).reshape(2, 2)
    ours = sorted(eigenvalues_2x2(matrix), key=lambda z: (z.real, z.imag))
    ref = sorted(np.linalg.eigvals(matrix), key=lambda z: (z.real, z.imag))
    scale = max(1.0, float(np.abs(matrix).max()))
    for mine, theirs in zip(ours, ref):
        assert abs(mine - complex(theirs)) <= 1e-9 * scale


@given(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=4, max_size=4))
def test_eigenvalues_of_entries_whose_discriminant_overflows(entries):
    # scaled by 2^600 the entries' tr^2 - 4 det overflows; a power of two
    # scales the quadratic formula exactly, so the eigenvalues come back
    # finite and 2^600 times those of the entries
    assume(max(map(abs, entries)) >= 1.0)
    scale = 2.0 ** 600
    a, b, c, d = (x * scale for x in entries)
    huge = eigenvalues_2x2(((a, b), (c, d)))
    small = eigenvalues_2x2(((entries[0], entries[1]),
                             (entries[2], entries[3])))
    for big, lam in zip(huge, small):
        assert math.isfinite(big.real) and math.isfinite(big.imag)
        assert abs(big / scale - lam) <= 1e-15 * max(map(abs, entries))


@pytest.mark.parametrize("eigs,want", [
    ((-1.0 + 0j, 2.0 + 0j), StabilityClass.SADDLE),
    ((-1.0 + 0j, -2.0 + 0j), StabilityClass.SINK_NODE),
    ((-0.5 + 1j, -0.5 - 1j), StabilityClass.SINK_FOCUS),
    ((1.0 + 0j, 2.0 + 0j), StabilityClass.SOURCE_NODE),
    ((0.5 + 1j, 0.5 - 1j), StabilityClass.SOURCE_FOCUS),
    ((0.0 + 0j, -1.0 + 0j), StabilityClass.NON_HYPERBOLIC),
    ((0.0 + 1j, 0.0 - 1j), StabilityClass.NON_HYPERBOLIC),
])
def test_classify_cases(eigs, want):
    assert classify(eigs) is want


# ---------------------------------------------------------------------------
# disease-free equilibria


def test_disease_free_reference(figure_params):
    params = figure_params(p=0.0)
    e0, e1 = disease_free(params)
    assert e0.ident == "E0" and e1.ident == "E1"
    assert e0.location == (0.0, 0.0)
    assert e1.location == (1.1, 0.0)
    assert e0.stability is StabilityClass.SADDLE
    assert e1.stability is StabilityClass.SADDLE
    eig0 = sorted(e0.eigenvalues, key=lambda z: z.real)
    assert eig0[0] == pytest.approx(-0.7) and eig0[1] == pytest.approx(1.1)
    eig1 = sorted(e1.eigenvalues, key=lambda z: z.real)
    assert eig1[0] == pytest.approx(-1.1)
    assert eig1[1] == pytest.approx(1.3 * 1.1 - 0.7)


def test_disease_free_saddle_node_collision(figure_params):
    A, m = 1.1, 0.35
    p_star = A * A / (4.0 * m)
    below = figure_params(p=p_star - 1e-4)
    pair = disease_free(below)
    assert len(pair) == 2 and pair[0].S < pair[1].S
    assert pair[1].S - pair[0].S < 0.05
    merged = disease_free(figure_params(p=p_star))
    assert len(merged) == 2
    assert merged[0].S == merged[1].S == pytest.approx(A / 2.0, abs=1e-12)
    assert all(e.stability is StabilityClass.NON_HYPERBOLIC for e in merged)
    assert disease_free(figure_params(p=min(1.0, p_star + 1e-4))) == []


@given(r0s, ps)
def test_disease_free_residuals_and_order(r0, p):
    params = at(r0, p)
    eqs = disease_free(params)
    if not eqs:
        assert p * params.m > params.A ** 2 / 4.0 - 1e-9
        return
    assert eqs[0].S <= eqs[1].S
    for eq in eqs:
        assert eq.I == 0.0
        assert max(map(abs, vector_field(eq.location, params))) <= 1e-10


@given(st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0), r0s, ps)
def test_disease_free_eigenvalues_are_the_diagonal(A, m, g, r0, p):
    # on I = 0 the Jacobian is upper triangular: its diagonal, ascending
    base = BaseParams(A=A, m=m, mu=0.175, d=0.175, g=g)
    params = reduced_to_params(r0, p, base)
    for eq in disease_free(params):
        diagonal = sorted((params.A - 2.0 * eq.S,
                           params.beta * eq.S - params.removal))
        assert eq.eigenvalues == (complex(diagonal[0], 0.0),
                                  complex(diagonal[1], 0.0))
        assert eq.stability is classify(eq.eigenvalues)


# ---------------------------------------------------------------------------
# endemic equilibrium


def test_endemic_reference(figure_params):
    e2 = endemic(figure_params(p=0.0))
    assert e2.ident == "E2"
    assert e2.S == pytest.approx(0.5384615384615384, abs=1e-15)
    assert e2.I == pytest.approx(0.4319526627218936, abs=1e-15)
    assert e2.stability is StabilityClass.SINK_FOCUS
    eig = sorted(e2.eigenvalues, key=lambda z: z.imag)
    assert eig[1] == pytest.approx(-0.2692307692307692 + 0.5662081913716291j)
    assert e2.interior


def test_endemic_nonexistent_formal_location():
    # r0 < 1 at p = 0: I2 < 0, flagged nonexistent but location still reported
    params = reduced_to_params(0.9, 0.0, REFERENCE_BASE)
    e2 = endemic(params)
    assert e2.stability is StabilityClass.NONEXISTENT
    assert not e2.interior
    assert e2.I <= 0.0
    assert e2.S == pytest.approx(params.removal / params.beta)


@given(r0s, ps)
def test_endemic_residual_when_interior(r0, p):
    params = at(r0, p)
    e2 = endemic(params)
    assume(e2.interior)
    assert max(map(abs, vector_field(e2.location, params))) <= 1e-10
    assert e2.S == pytest.approx(params.removal / params.beta, rel=1e-12)


@given(r0s, ps)
def test_endemic_json_dict_round_keys(r0, p):
    e2 = endemic(at(r0, p))
    d = e2.to_json_dict()
    assert d["id"] == "E2"
    assert d["class"] == e2.stability.value
    assert d["S"] == e2.S and d["I"] == e2.I
    assert len(d["eig"]) == 2
    assert d["eig"][0] == {"re": e2.eigenvalues[0].real,
                           "im": e2.eigenvalues[0].imag}


# ---------------------------------------------------------------------------
# node/focus discriminant


def e2_discriminant(params):
    """E2's eigenvalue discriminant tr^2 - 4 det and its zero-test scale
    tr^2 + 4 |det|, both from the Jacobian at E2."""
    J = jacobian(endemic(params).location, params)
    tr = J[0][0] + J[1][1]
    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    return tr * tr - 4.0 * det, tr * tr + 4.0 * abs(det)


@given(r0s, ps)
def test_delta2_sign_decides_real_vs_complex(r0, p):
    params = at(r0, p)
    e2 = endemic(params)
    assume(e2.interior)
    disc, scale = e2_discriminant(params)
    assume(abs(disc) > 1e-8 * scale)  # away from the transition itself
    has_imag = any(abs(z.imag) > 0.0 for z in e2.eigenvalues)
    assert has_imag == (disc < 0.0)
    # the closed-form Belyakov roots bracket the complex (focus) interval
    try:
        p1, p2 = belyakov_roots(r0, REFERENCE_BASE)
    except BelyakovDomainError:
        p1 = p2 = -math.inf
    assert has_imag == (p1 < p < p2)


def test_belyakov_roots_reference(base):
    p1, p2 = belyakov_roots(2.6, base)
    assert p1 == pytest.approx(-3.1563616429252344, rel=1e-12)
    assert p2 == pytest.approx(0.794569588825488, rel=1e-12)
    assert p1 < p2
    # the upper root annihilates E2's discriminant
    disc, scale = e2_discriminant(reduced_to_params(2.6, p2, base))
    assert abs(disc) <= 1e-12 * scale


def test_belyakov_domain_error(base):
    # beta*(r0 + beta - 2) < 0 for small r0: no real transition
    with pytest.raises(BelyakovDomainError):
        belyakov_roots(1.1, base)
    # boundary of the admissible range still works
    p1, p2 = belyakov_roots(1.3, base)
    assert p1 <= p2


def test_belyakov_zero_p_threshold(base):
    r0_star = belyakov_r0_zero_p(base)
    assert r0_star == pytest.approx(
        0.5 * (1.0 + math.sqrt(1.0 + base.A / base.removal)), rel=1e-15)
    assert r0_star == pytest.approx(1.3017837257372733, abs=1e-15)
    _, p2 = belyakov_roots(r0_star, base)
    assert abs(p2) <= 1e-12
    # p = 0 slice: node below the threshold, focus above
    lo = endemic(reduced_to_params(r0_star - 0.05, 0.0, base))
    hi = endemic(reduced_to_params(r0_star + 0.05, 0.0, base))
    assert all(z.imag == 0.0 for z in lo.eigenvalues)
    assert any(z.imag != 0.0 for z in hi.eigenvalues)
    assert lo.stability is StabilityClass.SINK_NODE
    assert hi.stability is StabilityClass.SINK_FOCUS


def test_equilibrium_is_frozen_value_object(figure_params):
    e2 = endemic(figure_params(p=0.0))
    with pytest.raises(AttributeError):
        e2.S = 0.0
    clone = Equilibrium(e2.ident, e2.S, e2.I, e2.eigenvalues, e2.stability)
    assert clone == e2
