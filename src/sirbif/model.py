"""Planar SIR model with logistic recruitment and constant vaccination flux.

The state is (S, I): susceptibles and infectives. Susceptibles reproduce
logistically with intrinsic rate A (carrying capacity A as well, after
rescaling), are infected by mass action at rate beta*S*I, and are vaccinated
at the constant flux p*m. Infectives leave the class by natural death mu,
disease-induced death d, and recovery g:

    dS/dt = S*(A - S) - beta*I*S - p*m
    dI/dt = beta*I*S - (sigma + g)*I,        sigma = mu + d

For p > 0 the flux term makes dS/dt = -p*m < 0 on the wall S = 0, so the
planar field is extended non-smoothly there: on S = 0 the dynamics are

    dS/dt = 0,    dI/dt = -(sigma + g)*I

which absorbs trajectories that reach the wall and lets I decay to zero.

The recovered class R decouples (dR/dt = p*m + g*I - mu*R) and can be
reconstructed after the fact from an (S, I) trajectory; see
``sirbif.integrate.recover_recovered``.

Everything downstream is organised around the reduced coordinates
(r0, p) with r0 = A*beta/(sigma + g): a fixed base (A, m, mu, d, g) is
chosen and beta carries r0.
"""
from __future__ import annotations

import math

__all__ = [
    "ModelParams",
    "BaseParams",
    "REFERENCE_BASE",
    "REFERENCE_HET_POINTS",
    "vector_field",
    "r0_of",
    "reduced_to_params",
    "invariant_region_bound",
    "in_invariant_region",
    "gronwall_envelope",
]


def _check_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"parameter {name} must be a finite number, got {value!r}")
    if value <= 0.0:
        raise ValueError(f"parameter {name} must be positive, got {value!r}")


def _check_reduced(r0: float, p: float) -> None:
    if not (math.isfinite(r0) and r0 > 0.0):
        raise ValueError(f"r0 must be positive and finite, got {r0!r}")
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")


class _Record:
    """Base of the immutable value records. A subclass declares its fields
    as annotations in signature order, a default as the class attribute of
    that name, and may validate them in ``__post_init__``. Instances refuse
    assignment, compare and hash by value within one class, and pickle
    through ``__dict__``, which holds the fields in order. No method is
    generated, so importing a record costs no more than a plain class."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            tail, defaults = names[len(args):], vars(type(self))
            if (len(args) > len(names) or set(kwargs).difference(tail)
                    or any(k not in kwargs and k not in defaults for k in tail)):
                raise TypeError(f"{type(self).__qualname__}({', '.join(names)}) "
                                f"got {len(args)} positional and "
                                f"{sorted(kwargs)} keyword arguments")
            args += tuple(kwargs[k] if k in kwargs else defaults[k] for k in tail)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is frozen: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        items = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({items})"


class _Rates:
    """What ModelParams and BaseParams share: every field but p is a
    positive finite rate, and the infectives leave at sigma + g."""

    def __post_init__(self):
        for key, value in self.__dict__.items():
            if key != "p":
                _check_positive(key, value)

    @property
    def removal(self) -> float:
        """Total exit rate from the infective class, sigma + g."""
        return (self.mu + self.d) + self.g

    def to_dict(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


class ModelParams(_Rates, _Record):
    """Full parameter set. All rates positive; 0 <= p <= 1.

    sigma is stored split as (mu, d) because the recovered-class ODE needs mu
    on its own; the planar dynamics only ever see sigma + g.
    """

    A: float
    beta: float
    m: float
    mu: float
    d: float
    g: float
    p: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        p = self.p
        if not (isinstance(p, (int, float)) and math.isfinite(p)):
            raise ValueError(f"parameter p must be a finite number, got {p!r}")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"vaccination fraction p must lie in [0, 1], got {p!r}")

    @property
    def base(self) -> BaseParams:
        """The fixed part (A, m, mu, d, g), without beta and p."""
        return BaseParams(self.A, self.m, self.mu, self.d, self.g)


class BaseParams(_Rates, _Record):
    """The fixed part of a reduced parameterization: everything except beta.

    beta is reconstructed from r0 via ``beta_at``.
    """

    A: float
    m: float
    mu: float
    d: float
    g: float

    def beta_at(self, r0: float) -> float:
        """The beta giving reproduction number r0: r0*(sigma+g)/A."""
        return r0 * self.removal / self.A


#: Base used by the bundled reference data and the CLI defaults:
#: A=1.1, m=0.35, sigma=0.35 (split evenly between mu and d), g=0.35.
REFERENCE_BASE = BaseParams(A=1.1, m=0.35, mu=0.175, d=0.175, g=0.35)

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

#: the closed range of integration tolerances integrate accepts; public as
#: a name of ``sirbif.integrate``, declared here so that the CLI's flag
#: check needs no integrator
TOL_RANGE = (1e-13, 1e-3)


def vector_field(x, params: ModelParams):
    """Interior field at state x = (S, I).

    Rejects non-finite state components. The formula is also evaluated for
    S = 0 (where it points out of the quadrant when p > 0); the integrator is
    responsible for ending forward runs on the wall in closed form there.
    """
    S, I = x
    if not (math.isfinite(S) and math.isfinite(I)):
        raise ValueError(f"non-finite state components: {x!r}")
    dS = S * (params.A - S) - params.beta * I * S - params.p * params.m
    dI = params.beta * I * S - params.removal * I
    return (dS, dI)


def r0_of(params: ModelParams) -> float:
    """Basic reproduction number r0 = A*beta/(sigma + g)."""
    return params.A * params.beta / params.removal


def reduced_to_params(r0: float, p: float, base: BaseParams) -> ModelParams:
    """The full parameter set at (r0, p) on ``base``."""
    _check_reduced(r0, p)
    return ModelParams(A=base.A, beta=base.beta_at(r0), m=base.m, mu=base.mu,
                       d=base.d, g=base.g, p=p)


def invariant_region_bound(params) -> float:
    """Upper bound on S + I inside the forward-invariant region M.

    M = { (S, I) : 0 <= S <= A,  0 <= S + I <= A*(sigma + g + A)/(sigma + g) }.
    Accepts ModelParams or BaseParams (only A, sigma, g are used).
    """
    u = params.removal
    return params.A * (u + params.A) / u


def in_invariant_region(x, params, tol: float = 0.0) -> bool:
    """Membership test for M, with an optional slack tol on each inequality."""
    S, I = x
    if not (math.isfinite(S) and math.isfinite(I)):
        return False
    if S < -tol or I < -tol:
        return False
    if S > params.A + tol:
        return False
    return S + I <= invariant_region_bound(params) + tol


def gronwall_envelope(phi0: float, t: float, params) -> float:
    """Decay envelope for phi = S + I along forward orbits.

    phi(t) <= phi(0)*exp(-(sigma+g)*t) + bound*(1 - exp(-(sigma+g)*t)),
    where bound is :func:`invariant_region_bound`. Used by the invariance
    test-suite; exact for the comparison ODE phi' = -(sigma+g)*phi + const.
    """
    u = params.removal
    decay = math.exp(-u * t)
    return phi0 * decay + invariant_region_bound(params) * (1.0 - decay)
