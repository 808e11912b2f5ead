"""Bifurcation curves, certificates, region classification, and sampling."""

import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sirbif import (
    REFERENCE_BASE,
    BaseParams,
    CurveDomainError,
    ModelParams,
    RegionFlagError,
    RegionLabel,
    StabilityClass,
    belyakov_roots,
    curve_values_at,
    classify_column,
    classify_region,
    disease_free,
    dz_point,
    endemic,
    fit_reference_curve,
    hopf_certificate,
    in_invariant_region,
    jacobian,
    omega_limit_estimate,
    p_bt2,
    p_h,
    p_sn,
    p_t,
    reduced_to_params,
    region_fan,
)
from sirbif import atlas
from sirbif.atlas import BOUNDARY_TOL
from sirbif.cli import main

from conftest import assert_close

r0s = st.floats(min_value=1.05, max_value=6.0, allow_nan=False)
ps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.fixture(scope="module")
def het():
    return fit_reference_curve()


# ---------------------------------------------------------------------------
# curve formulas


def test_curve_reference_values(base):
    assert p_sn(2.0, base) == pytest.approx(0.8642857142857144, rel=1e-14)
    assert p_sn(3.7, base) == p_sn(1.3, base)  # constant in r0
    assert p_t(3.0, base) == pytest.approx(0.7682539682539684, rel=1e-13)
    assert p_h(3.0, base) == pytest.approx(0.3841269841269841, rel=1e-13)
    assert p_h(2.0, base) == pytest.approx(p_sn(2.0, base), rel=1e-14)
    assert p_t(2.0, base) == pytest.approx(p_sn(2.0, base), rel=1e-14)
    assert p_bt2(2.0, base) == pytest.approx(p_sn(2.0, base), rel=1e-9)


def test_curve_domains(base):
    with pytest.raises(CurveDomainError):
        p_t(1.0, base)
    with pytest.raises(CurveDomainError):
        p_h(1.9, base)


@given(st.floats(min_value=1.05, max_value=6.0, allow_nan=False))
def test_transcritical_conjugacy(r0):
    # (r0 - 1)/r0^2 is invariant under r0 -> r0/(r0 - 1)
    mirror = r0 / (r0 - 1.0)
    assert_close(p_t(r0, REFERENCE_BASE), p_t(mirror, REFERENCE_BASE),
                 rel=1e-9, label="p_t conjugacy")


def e2_jacobian_trace(r0, p, base):
    """Trace of the Jacobian at E2, read off the Jacobian itself."""
    params = reduced_to_params(r0, p, base)
    J = jacobian(endemic(params).location, params)
    return J[0][0] + J[1][1]


@pytest.mark.parametrize("r0", [2.0, 2.3, 2.6, 3.0, 4.0, 5.5])
def test_trace_vanishes_on_hopf_curve(base, r0):
    assert abs(e2_jacobian_trace(r0, p_h(r0, base), base)) <= 1e-12


# ---------------------------------------------------------------------------
# certificates


def test_dz_certificate(base):
    cert = dz_point(base)
    assert cert.ok
    assert cert.point == (2.0, pytest.approx(0.8642857142857144, rel=1e-14))
    assert cert.location[0] == pytest.approx(0.55, abs=1e-15)
    assert cert.location[1] == 0.0
    want = ((0.0, -0.7), (0.0, 0.0))
    for row, wrow in zip(cert.jacobian, want):
        for entry, wentry in zip(row, wrow):
            assert abs(entry - wentry) <= 1e-12
    assert cert.max_entry_error <= 1e-12
    assert all(mod <= 1e-10 for mod in cert.eig_moduli)
    assert cert.endemic_location_error <= 1e-12


def test_dz_certificate_refuses_an_overflowing_beta():
    # beta(r0 = 2) = 2 (sigma+g)/A overflows: no certificate of inf and NaN
    base = BaseParams(A=1e-10, m=1.0, mu=1e300, d=0.25, g=0.5)
    with pytest.raises(ValueError, match="parameter beta must be a finite"):
        dz_point(base)


@pytest.mark.parametrize("r0", [2.5, 3.0, 3.5])
def test_hopf_certificate(base, r0):
    cert = hopf_certificate(r0, base)
    assert cert.ok
    assert cert.p == pytest.approx(p_h(r0, base), rel=1e-14)
    assert abs(cert.trace) <= 1e-10
    assert cert.determinant > 0.0
    assert cert.omega == pytest.approx(math.sqrt(cert.determinant), rel=1e-12)
    assert_close(cert.transversality, base.A / (2.0 * r0 * r0), rel=1e-12,
                 label="transversality closed form")
    # finite-difference oracle: the fixed-p rate of Re(lambda) = trace/2 is
    # twice the reported transversality
    h = 1e-6
    fd = (e2_jacobian_trace(r0 + h, cert.p, base)
          - e2_jacobian_trace(r0 - h, cert.p, base)) / (2.0 * h) / 2.0
    assert 2.0 * cert.transversality == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# region classification


SWEEP = [
    (1.5, 0.9, RegionLabel.A),
    (1.5, 0.8, RegionLabel.B),
    (1.15, 0.2, RegionLabel.C),
    (1.5, 0.75, RegionLabel.C),
    (1.5, 0.2, RegionLabel.D),
    (2.6, 0.30, RegionLabel.D),
    (2.6, 0.48, RegionLabel.E),
    (2.6, 0.60, RegionLabel.F),
    (2.6, 0.805, RegionLabel.G),
    (2.6, 0.84, RegionLabel.H),
]


@pytest.mark.parametrize("r0,p,want", SWEEP)
def test_classify_region_sweep(base, het, r0, p, want):
    assert classify_region(r0, p, base, het=het) is want


@pytest.mark.parametrize("r0,p,want", SWEEP)
def test_classify_region_locally_constant(base, het, r0, p, want):
    eps = 1e-8
    for dr, dp in [(eps, 0.0), (-eps, 0.0), (0.0, eps), (0.0, -eps)]:
        assert classify_region(r0 + dr, p + dp, base, het=het) is want


def test_classify_region_boundary_and_errors(base, het):
    assert classify_region(3.0, p_h(3.0, base), base, het=het) \
        is RegionLabel.BOUNDARY
    assert classify_region(1.5, p_t(1.5, base) + 1e-9, base, het=het) \
        is RegionLabel.BOUNDARY
    with pytest.raises(RegionFlagError) as info:
        classify_region(2.6, 0.48, base)
    assert str(info.value) == (
        "a heteroclinic curve is required to separate D from E for "
        "r0 > 2 (got r0 = 2.6); pass het=...")
    with pytest.raises(CurveDomainError):
        classify_region(0.0, 0.5, base)
    # left of the fold a stable focus needs no heteroclinic data
    assert classify_region(1.9, 0.2, base) is RegionLabel.D


_STABLE = (StabilityClass.SINK_NODE, StabilityClass.SINK_FOCUS)
_SOURCE = (StabilityClass.SOURCE_NODE, StabilityClass.SOURCE_FOCUS)


def _label_from_flags(r0, p, base, het=None):
    """Reference classifier built from the public equilibrium objects: a
    validated ModelParams, disease_free, endemic and the sorted Hopf/het
    band. classify_region must agree with it label for label."""
    if r0 <= 0.0:
        raise CurveDomainError(f"classification needs r0 > 0, got {r0}")
    for value in curve_values_at(r0, base, het).values():
        if abs(p - value) <= atlas.BOUNDARY_TOL:
            return RegionLabel.BOUNDARY
    params = reduced_to_params(r0, p, base)
    dfe = disease_free(params)
    if not dfe:
        return RegionLabel.A
    e2 = endemic(params)
    if e2.stability is StabilityClass.NONEXISTENT or e2.I <= 0.0:
        e0, e1 = dfe
        if e1.stability in _STABLE:
            return RegionLabel.B
        if e0.stability in _SOURCE:
            return RegionLabel.H
        raise RegionFlagError(
            f"disease-free pair with classes ({e0.stability.value}, "
            f"{e1.stability.value}) matches neither B nor H at (r0, p) = ({r0}, {p})")
    if e2.stability is StabilityClass.SINK_NODE:
        return RegionLabel.C
    if e2.stability is StabilityClass.SINK_FOCUS:
        if r0 <= 2.0:
            return RegionLabel.D
        if het is None:
            raise RegionFlagError(
                "a heteroclinic curve is required to separate D from E for "
                f"r0 > 2 (got r0 = {r0}); pass het=...")
        lo, hi = sorted((p_h(r0, base), float(het(r0))))
        return RegionLabel.E if lo < p < hi else RegionLabel.D
    if e2.stability is StabilityClass.SOURCE_FOCUS:
        return RegionLabel.F
    if e2.stability is StabilityClass.SOURCE_NODE:
        return RegionLabel.G
    raise RegionFlagError(
        f"interior equilibrium is {e2.stability.value} away from every "
        f"declared curve at (r0, p) = ({r0}, {p})")


def _outcome(classifier, r0, p, base, het):
    """The label, or the type and message of the exception raised instead."""
    try:
        return classifier(r0, p, base, het=het)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_parity(r0, p, base, het):
    got = _outcome(classify_region, r0, p, base, het)
    want = _outcome(_label_from_flags, r0, p, base, het)
    assert got == want, f"(r0, p) = ({r0!r}, {p!r}), tol {atlas.BOUNDARY_TOL}"


def _without_band():
    """No boundary band for the duration: points next to a curve keep the
    label their flags give."""
    return mock.patch.object(atlas, "BOUNDARY_TOL", 0.0)


@pytest.mark.parametrize("with_het", [True, False])
def test_classify_region_matches_flag_oracle_on_grid(base, het, with_het):
    # the default atlas window (r0 in [1, 4], p in [0, 1]), spaced as the
    # CLI, and r0 log-spaced over [1e14, 1e18], where beta*S passes 1e16 and
    # the quadratic formula loses E1's small eigenvalue
    curve = het if with_het else None
    windows = ([1.0 + 3.0 * i / 60 for i in range(61)],
               [10.0 ** (14.0 + 4.0 * i / 40) for i in range(41)])
    seen = set()
    for r0s in windows:
        n = len(r0s)
        for r0 in r0s:
            for j in range(n):
                p = j / (n - 1)
                _assert_parity(r0, p, base, curve)
                seen.add(_outcome(classify_region, r0, p, base, curve))
    if with_het:
        assert set(RegionLabel) <= seen


_CURVES = ("sn", "t", "h", "bt1", "bt2", "het")


def _near_curve(base, het, r0, name, offset, ulps):
    """p at ``offset`` from the named curve, then ``ulps`` floats further."""
    values = curve_values_at(r0, base, het)
    assume(name in values)
    p = values[name] + offset
    for _ in range(abs(ulps)):
        p = math.nextafter(p, math.copysign(math.inf, ulps))
    return p


@settings(max_examples=300)
@given(st.floats(min_value=1.02, max_value=4.5), st.sampled_from(_CURVES),
       st.floats(min_value=0.5, max_value=2.0), st.sampled_from((-1.0, 1.0)))
def test_classify_region_matches_flag_oracle_near_curves(base, het, r0, name,
                                                        factor, sign):
    p = _near_curve(base, het, r0, name, sign * factor * BOUNDARY_TOL, 0)
    _assert_parity(r0, p, base, het)


@settings(max_examples=300)
@given(st.floats(min_value=1.02, max_value=4.5), st.sampled_from(_CURVES),
       st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.sampled_from((-1.0, 1.0)),
       st.integers(min_value=-3, max_value=3))
def test_classify_region_matches_flag_oracle_on_curves(base, het, r0, name,
                                                       factor, sign, ulps):
    # without the boundary band the degenerate loci themselves are labelled:
    # the coincident disease-free pair, non-hyperbolic E2, RegionFlagError
    p = _near_curve(base, het, r0, name, sign * factor * BOUNDARY_TOL, ulps)
    with _without_band():
        _assert_parity(r0, p, base, het)


@pytest.mark.parametrize("r0,curve", [(1.5, p_sn), (3.0, p_h), (2.6, p_h)])
def test_classify_region_degenerate_loci_without_band(base, het, r0, curve):
    # one float off the fold the pair is coincident and non-hyperbolic; one
    # float off Hopf E2 is non-hyperbolic (exactly on a curve is BOUNDARY)
    p = math.nextafter(curve(r0, base), 0.0)
    with _without_band():
        with pytest.raises(RegionFlagError):
            classify_region(r0, p, base, het=het)
        _assert_parity(r0, p, base, het)


def test_classify_region_e2_on_the_axis_is_not_interior(base, het):
    # one float below p_t(1.25) E2's I2 rounds to exactly 0: E2 sits on E1
    # and the disease-free pair decides (saddle, non-hyperbolic: no region)
    r0 = 1.25
    p = math.nextafter(p_t(r0, base), 0.0)
    assert endemic(reduced_to_params(r0, p, base)).I == 0.0
    with _without_band():
        with pytest.raises(RegionFlagError, match="disease-free pair"):
            classify_region(r0, p, base, het=het)
        _assert_parity(r0, p, base, het)


@pytest.mark.parametrize("r0,p,exc,message", [
    (0.0, 0.5, CurveDomainError, "classification needs r0 > 0, got 0.0"),
    (-1.0, 0.5, CurveDomainError, "classification needs r0 > 0, got -1.0"),
    (math.nan, 0.5, ValueError, "r0 must be positive and finite, got nan"),
    (math.inf, 0.5, ValueError, "r0 must be positive and finite, got inf"),
    (2.6, -0.1, ValueError, "p must lie in [0, 1], got -0.1"),
    (2.6, 1.1, ValueError, "p must lie in [0, 1], got 1.1"),
    (2.6, math.nan, ValueError, "p must lie in [0, 1], got nan"),
])
def test_classify_region_rejects_invalid_input(base, het, r0, p, exc, message):
    for curve in (het, None):
        with pytest.raises(ValueError) as info:
            classify_region(r0, p, base, het=curve)
        assert type(info.value) is exc and str(info.value) == message


def test_classify_region_builds_no_per_point_objects(base, het, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("classify_region built equilibrium objects")

    monkeypatch.setattr("sirbif.atlas.reduced_to_params", forbidden)
    monkeypatch.setattr("sirbif.equilibria.disease_free", forbidden)
    monkeypatch.setattr("sirbif.equilibria.endemic", forbidden)
    monkeypatch.setattr("sirbif.equilibria.jacobian", forbidden)
    for r0, p, want in SWEEP:
        assert classify_region(r0, p, base, het=het) is want


def test_region_persistence_flags(base, het):
    # persistence labels have an interior equilibrium; eradication ones do not
    for r0, p, want in SWEEP:
        e2 = endemic(reduced_to_params(r0, p, base))
        if want in (RegionLabel.C, RegionLabel.D, RegionLabel.E,
                    RegionLabel.F, RegionLabel.G):
            assert e2.interior
        else:
            assert not e2.interior


def test_fitted_curve_approaches_organising_centre(base, het):
    # the interpolated connection curve meets the other curves near r0 = 2
    assert abs(het(2.05) - p_sn(2.0, base)) <= 0.05


# ---------------------------------------------------------------------------
# bundles and sampling


def test_curve_set_and_values(base, het):
    vals = curve_values_at(1.1, base)
    assert set(vals) == {"sn", "t"}
    vals = curve_values_at(1.5, base)
    assert set(vals) == {"sn", "t", "bt1", "bt2"}
    # Hopf starts at r0 = 2 itself, the connection curve only beyond it
    vals = curve_values_at(2.0, base, het=het)
    assert "h" in vals and "het" not in vals
    vals = curve_values_at(2.6, base, het=het)
    assert set(vals) == {"sn", "t", "h", "bt1", "bt2", "het"}
    assert vals["h"] < vals["t"] < vals["sn"]
    assert vals["het"] == pytest.approx(het(2.6))
    assert vals["bt1"] == pytest.approx(belyakov_roots(2.6, base)[0])


# ---------------------------------------------------------------------------
# column classification


def _per_point(r0, ps, base, het):
    labels = []
    for p in ps:
        try:
            labels.append(classify_region(r0, p, base, het=het))
        except RegionFlagError:
            labels.append(RegionLabel.BOUNDARY)
    return labels


bases = st.builds(BaseParams, A=st.floats(0.5, 1.5), m=st.floats(0.2, 0.5),
                  mu=st.floats(0.05, 0.3), d=st.floats(0.05, 0.3),
                  g=st.floats(0.1, 0.5))


@settings(max_examples=200, deadline=None)
@given(bases, st.floats(0.2, 4.5), st.sampled_from((2, 3, 60)),
       st.booleans(), st.sampled_from(_CURVES), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.booleans())
def test_classify_column_matches_classify_region(het, base, r0, n, narrow,
                                                 name, lo, width, with_het):
    # ``base`` is drawn here, not the reference fixture
    curve = het if with_het else None
    if narrow:
        # narrower than 100 tolerances, straddling a curve value
        values = curve_values_at(r0, base, curve)
        assume(name in values and 0.0 <= values[name] <= 1.0)
        span = 100 * BOUNDARY_TOL * max(width, 1e-3)
        p_min = min(max(values[name] - lo * span, 0.0), 1.0)
        p_max = min(p_min + span, 1.0)
    else:
        p_min = 0.9 * lo
        p_max = p_min + (1.0 - p_min) * max(width, 1e-3)
    ps = [p_min + (p_max - p_min) * j / (n - 1) for j in range(n)]
    if curve is None and r0 > 2.0:
        # per point, only the D/E test raises; the column refuses up front
        with pytest.raises(RegionFlagError, match="needs het"):
            classify_column(r0, ps, base, het=curve)
    else:
        assert classify_column(r0, ps, base, het=curve) == \
            _per_point(r0, ps, base, curve)


def test_classify_column_checks_the_far_end_of_a_run(base, monkeypatch):
    # a run whose last point alone is flagged is classified point by point
    def flag_top(r0, p, base, *, het=None, values=None):
        if p == 0.3:
            raise RegionFlagError("no region matches")
        return RegionLabel.C

    assert p_t(1.25, base) > 0.3 + BOUNDARY_TOL   # one run: no curve inside
    monkeypatch.setattr("sirbif.atlas.classify_region", flag_top)
    assert classify_column(1.25, [0.1, 0.2, 0.3], base, het=None) == [
        RegionLabel.C, RegionLabel.C, RegionLabel.BOUNDARY]


def test_classify_column_splits_a_run_whose_ends_disagree(base, het):
    # p = 0 lies on p_t(1) = 0, a curve curve_values_at omits at r0 = 1, so
    # the run [0, p_sn) has a flagless end and is classified point by point
    with pytest.raises(RegionFlagError):
        classify_region(1.0, 0.0, base, het=het)
    assert classify_column(1.0, [0.0, 0.5, 0.9], base, het=het) == [
        RegionLabel.BOUNDARY, RegionLabel.B, RegionLabel.A]


def test_classify_column_reads_the_curves_once(base, het, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return curve_values_at(*args, **kwargs)

    ps = [i / 199 for i in range(200)]
    want = classify_column(2.6, ps, base, het=het)
    monkeypatch.setattr("sirbif.atlas.curve_values_at", counted)
    assert classify_column(2.6, ps, base, het=het) == want
    assert calls == [2.6]


def test_atlas_classifies_runs_not_points(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classify_region(*args, **kwargs)

    monkeypatch.setattr("sirbif.atlas.classify_region", counted)
    assert main(["atlas", "--format", "csv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 2500      # of the 200 x 200 grid points


def test_region_fan_layouts(base):
    inside = reduced_to_params(2.6, 0.48, base)
    seeds = region_fan(inside)
    assert len(seeds) == 20  # 12 boundary + 8 ring
    assert all(in_invariant_region(s, inside, tol=1e-9) for s in seeds)
    e2 = endemic(inside)
    ring = seeds[12:]
    assert all(math.hypot(s[0] - e2.S, s[1] - e2.I) <= 0.02 + 1e-12
               for s in ring)

    empty = reduced_to_params(1.5, 0.9, base)
    assert len(region_fan(empty)) == 12  # ring omitted without a centre
    assert len(region_fan(empty, n_boundary=20, n_ring=0)) == 20


def test_band_labels_match_their_fans_at_random_bases():
    """The dynamics each band names, read from the fan of one point in the
    middle half of its p-interval, at random bases: no curve is consulted
    but to place the point.  Above r0 = 2 the bands A (p_sn, 1], H (p_t,
    p_sn), G (p_bt2, p_t) and F (p_h, p_bt2) send every fan run to the
    S = 0 wall; below it, C (p_bt2, or 0 where the Belyakov roots are not
    real, to p_t) traps every ring seed at its stable node E2 and sends the
    rest to the wall."""
    rng = random.Random(13)
    disagreements, checked = [], dict.fromkeys("AHGFC", 0)
    for _ in range(40):
        base = BaseParams(A=rng.uniform(0.8, 1.3), m=rng.uniform(0.25, 0.5),
                          mu=rng.uniform(0.05, 0.3), d=rng.uniform(0.05, 0.3),
                          g=rng.uniform(0.1, 0.5))
        r0, r0_c = rng.uniform(2.05, 4.0), rng.uniform(1.1, 1.9)
        v, v_c = curve_values_at(r0, base), curve_values_at(r0_c, base)
        bands = [("A", r0, v["sn"], 1.0), ("H", r0, v["t"], v["sn"]),
                 ("G", r0, v["bt2"], v["t"]), ("F", r0, v["h"], v["bt2"]),
                 ("C", r0_c, v_c.get("bt2", 0.0), v_c["t"])]
        for band, r0_b, lo, hi in bands:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if not lo < hi:
                continue
            p = rng.uniform(lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo))
            label = classify_region(r0_b, p, base).value
            if band == "C" and label != "C":
                continue
            checked[band] += 1
            params = reduced_to_params(r0_b, p, base)
            fan = region_fan(params)
            verdicts = [omega_limit_estimate(x0, params).outcome
                        for x0 in fan]
            if band == "C":
                ring = verdicts[12:]
                ok = (len(ring) == 8 and set(ring) == {"E2"}
                      and set(verdicts) <= {"E2", "boundary-axis"})
            else:
                ok = label == band and set(verdicts) == {"boundary-axis"}
            if not ok:
                disagreements.append((band, label, base, r0_b, p, verdicts))
    assert not disagreements, disagreements
    assert min(checked.values()) >= 25, checked
