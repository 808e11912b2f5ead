"""Equilibria of the planar system and their linear stability.

Three equilibria organise the dynamics:

* E0, E1: disease-free states on the I = 0 axis, the two roots of
  S*(A - S) = p*m. They exist iff A^2 - 4*p*m >= 0 and merge in a
  saddle-node at p = A^2/(4m).
* E2: the endemic state at S2 = (sigma+g)/beta,
  I2 = (-p*m*beta^2 + A*(sigma+g)*beta - (sigma+g)^2) / (beta^2*(sigma+g)),
  interior iff I2 > 0.

Eigenvalues are always taken in closed form from the analytic 2x2 Jacobian,
never from an iterative solver, and in one place, _eigenvalues: on the I = 0
axis its diagonal, elsewhere the quadratic formula. Classification treats a
real (or imaginary) part as zero when it is within
RELATIVE_EIG_TOL*(1 + |lambda|).
"""
from __future__ import annotations

import enum
import math

from .model import BaseParams, ModelParams, _Record

__all__ = [
    "StabilityClass",
    "Equilibrium",
    "RELATIVE_EIG_TOL",
    "jacobian",
    "eigenvalues_2x2",
    "classify",
    "disease_free",
    "endemic",
    "belyakov_roots",
    "belyakov_r0_zero_p",
    "BelyakovDomainError",
]

#: relative tolerance deciding "zero real part" / "zero imaginary part"
RELATIVE_EIG_TOL = 1e-9

#: |A^2 - 4 p m| below this (scaled) means the disease-free pair is coincident
_COINCIDENCE_TOL = 1e-12


class StabilityClass(enum.Enum):
    SADDLE = "saddle"
    SINK_NODE = "sink-node"
    SINK_FOCUS = "sink-focus"
    SOURCE_NODE = "source-node"
    SOURCE_FOCUS = "source-focus"
    NON_HYPERBOLIC = "non-hyperbolic"
    NONEXISTENT = "nonexistent"


#: the classes of a hyperbolic sink and of a hyperbolic source
_SINKS = (StabilityClass.SINK_NODE, StabilityClass.SINK_FOCUS)
_SOURCES = (StabilityClass.SOURCE_NODE, StabilityClass.SOURCE_FOCUS)


class Equilibrium(_Record):
    ident: str                      # "E0" | "E1" | "E2"
    S: float
    I: float
    eigenvalues: tuple              # (complex, complex), sorted by (re, im)
    stability: StabilityClass

    @property
    def location(self):
        return (self.S, self.I)

    @property
    def interior(self) -> bool:
        return self.S > 0.0 and self.I > 0.0

    def to_json_dict(self) -> dict:
        return {
            "id": self.ident,
            "S": self.S,
            "I": self.I,
            "eig": [{"re": ev.real, "im": ev.imag} for ev in self.eigenvalues],
            "class": self.stability.value,
        }


class BelyakovDomainError(ValueError):
    """beta < 2 - r0: the node/focus transition has no real root in p."""


def _jacobian_entries(S: float, I: float, A: float, b: float, u: float) -> tuple:
    """Jacobian of the interior field at (S, I) as ((a, b), (c, d)) floats,
    with b = beta and u = sigma + g."""
    return ((-b * I + A - 2.0 * S, -b * S),
            (b * I, b * S - u))


def jacobian(x, params: ModelParams) -> tuple:
    """Jacobian of the interior field at x = (S, I), as ((a, b), (c, d))."""
    S, I = x
    return _jacobian_entries(S, I, params.A, params.beta, params.removal)


def eigenvalues_2x2(matrix) -> tuple:
    """Eigenvalues of a real 2x2 matrix by the quadratic formula.

    Returns a pair ascending by real part, then imaginary part, by
    construction: the real roots are (tr -/+ root)/2 with root >= 0, and a
    negative discriminant yields the conjugate pair (tr/2 -/+ i*sqrt(-disc)/2).
    Entries whose discriminant overflows (about 1e154 and up) are scaled by
    a power of two, which is exact, and the eigenvalues scaled back.
    """
    (a, b), (c, d) = matrix
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    if not math.isfinite(disc) and all(map(math.isfinite, (a, b, c, d))):
        scale = 2.0 ** math.frexp(max(map(abs, (a, b, c, d))))[1]
        return tuple(complex(lam.real * scale, lam.imag * scale)
                     for lam in eigenvalues_2x2(((a / scale, b / scale),
                                                 (c / scale, d / scale))))
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam1 = complex((tr - root) / 2.0, 0.0)
        lam2 = complex((tr + root) / 2.0, 0.0)
    else:
        root = math.sqrt(-disc) / 2.0
        lam1 = complex(tr / 2.0, -root)
        lam2 = complex(tr / 2.0, root)
    return (lam1, lam2)


def _is_zero(value: float, scale: float) -> bool:
    return abs(value) <= RELATIVE_EIG_TOL * (1.0 + scale)


def classify(eigenvalues) -> StabilityClass:
    """Map an eigenvalue pair to a stability class.

    Any real part within tolerance of zero wins: the point is reported
    non-hyperbolic rather than guessed.
    """
    l1, l2 = eigenvalues
    if _is_zero(l1.real, abs(l1)) or _is_zero(l2.real, abs(l2)):
        return StabilityClass.NON_HYPERBOLIC
    if l1.real < 0.0 < l2.real:
        return StabilityClass.SADDLE
    real = _is_zero(l1.imag, abs(l1)) and _is_zero(l2.imag, abs(l2))
    if l1.real < 0.0:
        return StabilityClass.SINK_NODE if real else StabilityClass.SINK_FOCUS
    return StabilityClass.SOURCE_NODE if real else StabilityClass.SOURCE_FOCUS


def _eigenvalues(S: float, I: float, A: float, b: float, u: float) -> tuple:
    """Eigenvalues of the equilibrium at (S, I), b = beta and u = sigma + g,
    ascending: on I = 0 the Jacobian is upper triangular, so they are its
    diagonal (A - 2S, b*S - u) exactly; elsewhere the quadratic formula's."""
    jac = _jacobian_entries(S, I, A, b, u)
    if I == 0.0:
        a, d = jac[0][0], jac[1][1]
        return (complex(min(a, d), 0.0), complex(max(a, d), 0.0))
    return eigenvalues_2x2(jac)


def _make(ident: str, S: float, I: float, params: ModelParams) -> Equilibrium:
    """The equilibrium at (S, I), classified from its eigenvalues."""
    eigs = _eigenvalues(S, I, params.A, params.beta, params.removal)
    return Equilibrium(ident, S, I, eigs, classify(eigs))


def _disease_free_S(A: float, p: float, m: float) -> tuple:
    """S of the disease-free pair (S0, S1), S0 <= S1, or () if none exist;
    merged at A/2 inside the coincidence window."""
    disc = A * A - 4.0 * p * m
    tol = _COINCIDENCE_TOL * max(1.0, A * A)
    if disc < -tol:
        return ()
    if disc <= tol:
        return (A / 2.0, A / 2.0)
    root = math.sqrt(disc)
    return ((A - root) / 2.0, (A + root) / 2.0)


def _endemic_location(A: float, p: float, m: float, b: float, u: float) -> tuple:
    """(S2, I2) of E2 with b = beta and u = sigma + g; I2 may be <= 0."""
    return u / b, (-p * m * b * b + A * u * b - u * u) / (b * b * u)


def disease_free(params: ModelParams) -> list:
    """The disease-free equilibria [E0, E1] (S0 <= S1), or [] if none exist.

    Within the coincidence window |A^2 - 4pm| <= 1e-12*max(1, A^2) the pair is
    returned merged at (A/2, 0); the axis eigenvalue A - 2*(A/2) is then an
    exact floating-point zero, so both copies classify as non-hyperbolic.
    """
    return [_make(ident, S, 0.0, params) for ident, S
            in zip(("E0", "E1"), _disease_free_S(params.A, params.p, params.m))]


def endemic(params: ModelParams) -> Equilibrium:
    """The endemic equilibrium E2.

    If I2 <= 0 the point is not biologically admissible; it is reported with
    stability NONEXISTENT and the formal location attached for diagnostics.
    """
    b = params.beta
    u = params.removal
    S2, I2 = _endemic_location(params.A, params.p, params.m, b, u)
    if I2 > 0.0:
        return _make("E2", S2, I2, params)
    return Equilibrium("E2", S2, I2, _eigenvalues(S2, I2, params.A, b, u),
                       StabilityClass.NONEXISTENT)


def belyakov_roots(r0: float, base: BaseParams) -> tuple:
    """Roots (p1, p2) in p of E2's eigenvalue discriminant tr^2 - 4*det
    along the r0-slice, p1 <= p2; E2's eigenvalues are complex strictly between them.

    p_{1,2} = (-2b + 1 -/+ 2*sqrt(b*(r0 + b - 2))) * A^2 / (m * r0^2),
    b = r0*(sigma+g)/A. Requires b*(r0 + b - 2) >= 0, i.e. b > 2 - r0;
    otherwise the node/focus transition has no real root and
    BelyakovDomainError is raised.
    """
    A = base.A
    b = base.beta_at(r0)
    arg = b * (r0 + b - 2.0)
    if arg < 0.0:
        raise BelyakovDomainError(
            f"no real node/focus transition: beta = {b:.6g} < 2 - r0 = {2.0 - r0:.6g}")
    root = 2.0 * math.sqrt(arg)
    scale = A * A / (base.m * r0 * r0)
    return ((-2.0 * b + 1.0 - root) * scale, (-2.0 * b + 1.0 + root) * scale)


def belyakov_r0_zero_p(base: BaseParams) -> float:
    """The r0 at which the upper Belyakov root crosses p = 0.

    Solves r0 = 1 + 1/(4*beta(r0)) self-consistently with
    beta = r0*(sigma+g)/A, giving r0 = (1 + sqrt(1 + A/(sigma+g)))/2.
    For p = 0 and r0 below this value E2 is a stable node, above it a
    stable focus.
    """
    return 0.5 * (1.0 + math.sqrt(1.0 + base.A / base.removal))
