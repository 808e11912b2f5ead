"""Core model layer: parameters, vector field, reduced coordinates,
invariant region, and the comparison envelope."""

import importlib
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sirbif import (
    REFERENCE_BASE,
    BaseParams,
    ModelParams,
    gronwall_envelope,
    in_invariant_region,
    invariant_region_bound,
    r0_of,
    reduced_to_params,
    vector_field,
)

from sirbif.atlas import DZCertificate, HopfCertificate, PowerFit
from sirbif.cli_phase import PortraitPack
from sirbif.connections import HetResult, PeriodicOrbit
from sirbif.equilibria import Equilibrium, StabilityClass
from sirbif.integrate import (Crossing, IntegrationStats, OmegaLimitResult,
                              SectionEvent, TerminalEvent, Trajectory)
from sirbif.model import _Record

from conftest import assert_close

positive = st.floats(min_value=1e-3, max_value=10.0,
                     allow_nan=False, allow_infinity=False)
fraction = st.floats(min_value=0.0, max_value=1.0,
                     allow_nan=False, allow_infinity=False)


def params_strategy():
    return st.builds(ModelParams, A=positive, beta=positive, m=positive,
                     mu=positive, d=positive, g=positive, p=fraction)


# ---------------------------------------------------------------------------
# parameter containers


def test_reference_base_values(base):
    assert base.A == 1.1
    assert base.m == 0.35
    assert base.mu == 0.175
    assert base.d == 0.175
    assert base.g == 0.35
    assert_close(base.removal, 0.7, label="removal")


def test_params_derived_rates(figure_params):
    params = figure_params(p=0.5)
    assert_close(params.removal, params.mu + params.d + params.g,
                 label="removal")
    assert_close(r0_of(params), 1.1 * 1.3 / 0.7, label="r0")


@pytest.mark.parametrize("field", ["A", "beta", "m", "mu", "d", "g"])
def test_params_reject_nonpositive(field):
    kwargs = dict(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35, p=0.0)
    kwargs[field] = 0.0
    with pytest.raises(ValueError, match="must be positive"):
        ModelParams(**kwargs)
    kwargs[field] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("bad_p", [-0.1, 1.0000001, 1.5])
def test_params_reject_out_of_range_p(bad_p):
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                    p=bad_p)


@given(params_strategy())
def test_dict_round_trip(params):
    assert ModelParams(**params.to_dict()) == params


def test_base_params_round_trip(base):
    rebuilt = BaseParams(**base.to_dict())
    assert rebuilt == base


# ---------------------------------------------------------------------------
# reduced coordinates


def test_reduced_point_validation(base):
    with pytest.raises(ValueError, match="r0 must be positive"):
        reduced_to_params(0.0, 0.5, base)
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        reduced_to_params(2.0, -0.01, base)


@given(st.floats(min_value=0.05, max_value=8.0, allow_nan=False), fraction)
def test_reduced_round_trip(r0, p):
    params = reduced_to_params(r0, p, REFERENCE_BASE)
    assert_close(r0_of(params), r0, rel=1e-12, label="r0 round trip")
    assert params.p == p
    assert params.base == REFERENCE_BASE


def test_reduced_beta_formula(base):
    params = reduced_to_params(2.6, 0.4, base)
    assert_close(params.beta, 2.6 * base.removal / base.A, label="beta")
    assert params.p == 0.4
    assert params.base == base


# ---------------------------------------------------------------------------
# vector field


def test_vector_field_reference_value(figure_params):
    params = figure_params(p=0.5)
    dS, dI = vector_field((0.5, 0.1), params)
    assert dS == pytest.approx(0.06, abs=1e-13)
    assert dI == pytest.approx(-0.005, abs=1e-13)


@given(params_strategy(),
       st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_vector_field_matches_formula(params, S, I):
    dS, dI = vector_field((S, I), params)
    want_dS = S * (params.A - S) - params.beta * I * S - params.p * params.m
    want_dI = params.beta * I * S - params.removal * I
    assert_close(dS, want_dS, rel=1e-12, abs_=1e-12, label="dS")
    assert_close(dI, want_dI, rel=1e-12, abs_=1e-12, label="dI")


def test_vector_field_rejects_nonfinite(figure_params):
    with pytest.raises(ValueError, match="non-finite"):
        vector_field((float("nan"), 0.1), figure_params())


def test_axis_is_invariant(figure_params):
    # On I = 0 the infected component has zero derivative for any S.
    params = figure_params(p=0.3)
    for S in (0.0, 0.2, 0.9, 1.1):
        _, dI = vector_field((S, 0.0), params)
        assert dI == 0.0


# ---------------------------------------------------------------------------
# invariant region


def test_invariant_region_bound_reference(base, figure_params):
    want = 1.1 * (0.7 + 1.1) / 0.7
    got_base = invariant_region_bound(base)
    got_params = invariant_region_bound(figure_params(p=0.2))
    assert_close(got_base, want, rel=1e-14, label="bound from base")
    assert got_base == got_params
    assert got_base == pytest.approx(2.8285714285714287, abs=5e-15)


def test_in_invariant_region(base, figure_params):
    params = figure_params()
    bound = invariant_region_bound(params)
    assert in_invariant_region((0.0, 0.0), params)
    assert in_invariant_region((1.1, 0.0), params)
    assert in_invariant_region((0.5, bound - 0.5), params)
    assert not in_invariant_region((-1e-3, 0.1), params)
    assert not in_invariant_region((0.5, -1e-3), params)
    assert not in_invariant_region((1.2, 0.0), params)
    assert not in_invariant_region((0.5, bound), params)
    # tolerance slack admits boundary overshoot up to tol
    assert in_invariant_region((-1e-9, 0.1), params, tol=1e-8)
    assert in_invariant_region((0.5, bound - 0.5 + 1e-9), params, tol=1e-8)


# ---------------------------------------------------------------------------
# comparison envelope


def test_gronwall_envelope_endpoints(figure_params):
    params = figure_params(p=0.4)
    bound = invariant_region_bound(params)
    assert gronwall_envelope(1.7, 0.0, params) == pytest.approx(1.7, abs=1e-15)
    assert gronwall_envelope(1.7, 1e6, params) == pytest.approx(bound, rel=1e-12)
    assert gronwall_envelope(bound, 3.0, params) == pytest.approx(bound, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=2.8, allow_nan=False),
       st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_gronwall_envelope_semigroup(phi0, t1, t2):
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.3)
    direct = gronwall_envelope(phi0, t1 + t2, params)
    stepped = gronwall_envelope(gronwall_envelope(phi0, t1, params), t2, params)
    assert_close(stepped, direct, rel=1e-9, abs_=1e-12, label="semigroup")


@given(st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.01, max_value=40.0, allow_nan=False))
def test_gronwall_envelope_monotone_toward_bound(phi0, t):
    params = ModelParams(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                         p=0.3)
    bound = invariant_region_bound(params)
    now = gronwall_envelope(phi0, t, params)
    later = gronwall_envelope(phi0, t + 1.0, params)
    assert min(phi0, bound) - 1e-12 <= now <= max(phi0, bound) + 1e-12
    if phi0 <= bound:
        assert now <= later + 1e-12
    assert abs(later - bound) <= abs(now - bound) + 1e-12


# ---------------------------------------------------------------------------
# public names


@pytest.mark.parametrize("module", [
    "sirbif", "sirbif.model", "sirbif.equilibria", "sirbif.atlas",
    "sirbif.integrate", "sirbif.connections", "sirbif.svgplot",
])
def test_public_names_resolve(module):
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__
               if not hasattr(namespace, name)]
    assert missing == []


def test_package_exports_every_module_name():
    package = importlib.import_module("sirbif")
    layers = ["model", "equilibria", "atlas", "integrate", "connections"]
    expected = ["__version__"]
    for layer in layers:
        module = importlib.import_module(f"sirbif.{layer}")
        expected += module.__all__
        unbound = [name for name in module.__all__
                   if getattr(package, name, None) is not getattr(module, name)]
        assert unbound == [], layer
    assert package.__all__ == expected
    assert len(set(package.__all__)) == len(package.__all__)


# ---------------------------------------------------------------------------
# the record contract: every value record of the package


_PARAMS = ModelParams(1.1, 1.3, 0.35, 0.175, 0.175, 0.35, 0.2)
_TERMINAL = TerminalEvent("time-horizon", 1.0, (0.4, 0.2))
_STATS = IntegrationStats(3, 1, 1e-9, 20)
_TRAJECTORY = Trajectory((0.0, 1.0), ((0.5, 0.1), (0.4, 0.2)),
                         ((0.1, 0.1), (0.1, 0.1)), (), _TERMINAL, _STATS,
                         _PARAMS, False, 1e-8)

# (class, every field by keyword in signature order, the defaulted fields)
RECORDS = [
    (ModelParams, dict(A=1.1, beta=1.3, m=0.35, mu=0.175, d=0.175, g=0.35,
                       p=0.2), dict(p=0.0)),
    (BaseParams, dict(A=1.1, m=0.35, mu=0.175, d=0.175, g=0.35), {}),
    (Equilibrium, dict(ident="E2", S=0.5, I=0.1,
                       eigenvalues=(-0.1 - 0.2j, -0.1 + 0.2j),
                       stability=StabilityClass.SINK_FOCUS), {}),
    (DZCertificate, dict(point=(2.0, 0.864), location=(0.55, 0.0),
                         jacobian=((0.0, -0.7), (0.0, 0.0)),
                         expected=((0.0, -0.7), (0.0, 0.0)),
                         max_entry_error=0.0, eig_moduli=(0.0, 0.0),
                         endemic_location_error=None, ok=True), {}),
    (HopfCertificate, dict(r0=2.6, p=0.51, trace=0.0, omega=0.3,
                           determinant=0.09, transversality=0.08,
                           ok=True), {}),
    (SectionEvent, dict(value=0.5, direction=-1, name="split"),
     dict(name="section")),
    (Crossing, dict(name="wall", t=1.5, state=(0.0, 0.2), direction=-1), {}),
    (TerminalEvent, dict(kind="crossed-section", t=1.5, state=(0.5, 0.2),
                         section="split", direction=1, detail="x"),
     dict(section=None, direction=0, detail="")),
    (IntegrationStats, dict(steps_accepted=3, steps_rejected=1,
                            max_error_estimate=1e-9, field_evals=20), {}),
    (Trajectory, dict(t=_TRAJECTORY.t, states=_TRAJECTORY.states,
                      derivs=_TRAJECTORY.derivs, crossings=(),
                      terminal=_TERMINAL, stats=_STATS, params=_PARAMS,
                      reversed_time=False, tol=1e-8), {}),
    (OmegaLimitResult, dict(outcome="E2", trajectory=_TRAJECTORY,
                            detail="near"), dict(detail="")),
    (HetResult, dict(r0=2.6, p_het=0.446, splitting_residual=1e-9,
                     iterations=8, error="bad"), dict(error="")),
    (PowerFit, dict(a=4.5, b=-2.3, c=-0.04, rss=8e-7, corr=0.99,
                    iterations=22, grad_norm=7e-14), {}),
    (PeriodicOrbit, dict(r0=2.6, p=0.48, section_S=0.27, section_I=0.4,
                         period=17.25, floquet=1.736, return_residual=1e-10,
                         t=(0.0, 17.25), states=((0.27, 0.4), (0.27, 0.4))),
     {}),
    (PortraitPack, dict(region="E", params=_PARAMS, n_boundary=12, n_ring=8,
                        note="focus"), {}),
]

records = pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                                  ids=[cls.__name__ for cls, _, _ in RECORDS])


@records
def test_record_construction(cls, fields, defaults):
    values = tuple(fields.values())
    record = cls(*values)
    assert tuple(getattr(record, k) for k in fields) == values
    assert cls(**fields) == record
    first, *rest = fields
    assert cls(values[0], **{k: fields[k] for k in rest}) == record
    required = [v for k, v in fields.items() if k not in defaults]
    bare = cls(*required)
    assert {k: getattr(bare, k) for k in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])


@records
def test_record_is_frozen(cls, fields, defaults):
    record = cls(**fields)
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, k) for k in fields) == tuple(fields.values())


@records
def test_record_value_semantics(cls, fields, defaults):
    record, clone = cls(**fields), cls(*fields.values())
    assert record == clone and not record != clone
    first, *_ = fields
    changed = cls(**dict(fields, **{first: fields[first] * 2}))
    assert changed != record
    for other_cls, other_fields, _ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)
    try:
        hash(tuple(fields.values()))
    except TypeError:            # a field holds a dict: unhashable, as a tuple
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(clone)
        assert {record: "x"}[clone] == "x"


@records
def test_record_repr(cls, fields, defaults):
    inner = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({inner})"


@records
def test_record_pickle_round_trip(cls, fields, defaults):
    record = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record


def test_records_with_the_same_fields_differ_by_class():
    class Twin(_Record):
        A: float
        m: float
        mu: float
        d: float
        g: float

    twin = Twin(**REFERENCE_BASE.to_dict())
    assert twin != REFERENCE_BASE and REFERENCE_BASE != twin
    assert repr(SectionEvent(0.5, -1)) == (
        "SectionEvent(value=0.5, direction=-1, name='section')")


@pytest.mark.parametrize("build, message", [
    (lambda: ModelParams(0.0, 1.3, 0.35, 0.175, 0.175, 0.35),
     "parameter A must be positive, got 0.0"),
    (lambda: ModelParams(1.1, math.nan, 0.35, 0.175, 0.175, 0.35),
     "parameter beta must be a finite number, got nan"),
    (lambda: ModelParams(1.1, 1.3, 0.35, 0.175, 0.175, 0.35, p=math.inf),
     "parameter p must be a finite number, got inf"),
    (lambda: ModelParams(1.1, 1.3, 0.35, 0.175, 0.175, 0.35, p=1.5),
     "vaccination fraction p must lie in [0, 1], got 1.5"),
    (lambda: BaseParams(1.1, 0.35, 0.175, 0.175, g=-1.0),
     "parameter g must be positive, got -1.0"),
    (lambda: BaseParams(1.1, "0.35", 0.175, 0.175, 0.35),
     "parameter m must be a finite number, got '0.35'"),
    (lambda: reduced_to_params(math.nan, 0.5, REFERENCE_BASE),
     "r0 must be positive and finite, got nan"),
    (lambda: reduced_to_params(2.6, 1.1, REFERENCE_BASE),
     "p must lie in [0, 1], got 1.1"),
    (lambda: SectionEvent(0.5, 0),
     "direction must be -1 or +1, got 0"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
