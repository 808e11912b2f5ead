"""Bifurcation curves in the (r0, p) plane and the region classifier.

The five organising curves, as functions of r0 at a fixed base:

* ``p_sn``  — saddle-node of the disease-free pair, A^2/(4m), constant in r0;
* ``p_t``   — transcritical (E2 crosses the I = 0 axis), (A^2/m)(r0-1)/r0^2;
* ``p_h``   — Hopf of E2, A^2/(m r0^2), meaningful for r0 >= 2;
* ``p_bt2`` — upper node/focus transition of E2 (discriminant root);
* the heteroclinic curve, located numerically (see ``connections``) and
  supplied here as a callable, usually the power fit of the bundled table.

All of them pass through the organising centre ``dz = (2, A^2/(4m))`` where
the disease-free pair collides exactly on the E2 branch and the Jacobian
degenerates to a nilpotent [[0, -(sigma+g)], [0, 0]].

``classify_region`` maps a parameter point to one of the labels A-H purely
from computed flags (equilibrium existence and stability classes plus a cycle
indicator), never from the sign conventions of any single curve; this keeps
the classification correct even where the analytic ordering of the Hopf and
heteroclinic curves is in doubt.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left

from .model import (BaseParams, ModelParams, _check_positive, _check_reduced,
                    _Record, invariant_region_bound, reduced_to_params)
from . import equilibria as eq
from .equilibria import (_SINKS, _SOURCES, BelyakovDomainError, StabilityClass,
                         _disease_free_S, _eigenvalues, _endemic_location,
                         _jacobian_entries, belyakov_roots, classify)

__all__ = [
    "CurveDomainError",
    "RegionFlagError",
    "RegionLabel",
    "DZCertificate",
    "HopfCertificate",
    "p_sn",
    "p_t",
    "p_h",
    "p_bt2",
    "dz_point",
    "hopf_certificate",
    "classify_region",
    "classify_column",
    "curve_values_at",
    "region_fan",
    "REFERENCE_HET_POINTS",
    "FitSingularError",
    "FitNonConvergence",
    "PowerFit",
    "power_fit",
    "fit_reference_curve",
]

#: classification within this distance (in p) of any curve returns BOUNDARY
BOUNDARY_TOL = 1e-6
_DZ_ENTRY_TOL = 1e-12      # dz Jacobian entries against the nilpotent form
_DZ_EIG_TOL = 1e-10        # dz eigenvalue moduli
_RING_RADIUS = 0.02        # radius of the portrait seed ring
_FIT_ROUNDS = 500          # Gauss-Newton rounds of power_fit

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


class CurveDomainError(ValueError):
    """Curve evaluated outside the r0 range where it is defined."""


class RegionFlagError(RuntimeError):
    """The computed flags match no region (mis-set parameters or a bug)."""


class FitSingularError(ValueError):
    """Normal equations singular even under heavy damping (collinear data)."""


class FitNonConvergence(RuntimeError):
    """Gauss-Newton did not meet the step/gradient criteria in 500 rounds."""


class RegionLabel(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"
    H = "H"
    BOUNDARY = "boundary"


# ----------------------------------------------------------------------
# curves


def p_sn(r0: float, base: BaseParams) -> float:
    """Saddle-node value A^2/(4m); constant, r0 accepted for uniformity."""
    return base.A * base.A / (4.0 * base.m)


def p_t(r0: float, base: BaseParams) -> float:
    """Transcritical curve (A^2/m)(r0-1)/r0^2, defined for r0 > 1."""
    if r0 <= 1.0:
        raise CurveDomainError(f"p_t needs r0 > 1, got {r0}")
    return (base.A * base.A / base.m) * (r0 - 1.0) / (r0 * r0)


def p_h(r0: float, base: BaseParams) -> float:
    """Hopf curve A^2/(m r0^2), defined for r0 >= 2."""
    if r0 < 2.0:
        raise CurveDomainError(f"p_h needs r0 >= 2.0, got {r0}")
    return base.A * base.A / (base.m * r0 * r0)


def p_bt2(r0: float, base: BaseParams) -> float:
    """Upper node/focus transition of E2 (beta substituted from r0)."""
    return belyakov_roots(r0, base)[1]


# ----------------------------------------------------------------------
# degeneracy certificates


class DZCertificate(_Record):
    point: tuple                 # (r0, p) = (2, A^2/(4m))
    location: tuple              # (S, I) of the collided equilibrium
    jacobian: tuple              # ((a, b), (c, d)) as evaluated
    expected: tuple              # ((0, -(sigma+g)), (0, 0))
    max_entry_error: float
    eig_moduli: tuple
    endemic_location_error: float | None   # |S2 - A/2| via the E2 formula
    ok: bool


def dz_point(base: BaseParams) -> DZCertificate:
    """The organising centre (2, A^2/(4m)) with a numerical certificate.

    The Jacobian is evaluated at the exact collision location (A*0.5, 0):
    the diagonal cancels identically in floating point (A - 2*(A*0.5) == 0
    and beta*0 == 0), leaving a triangular matrix whose eigenvalue moduli are
    required to be <= 1e-10 and whose entries must match
    [[0, -(sigma+g)], [0, 0]] to 1e-12.
    """
    A = base.A
    u = base.removal
    b = base.beta_at(2.0)
    _check_positive("beta", b)
    p_star = p_sn(2.0, base)
    S_star = A * 0.5
    jac = _jacobian_entries(S_star, 0.0, A, b, u)
    expected = ((0.0, -u), (0.0, 0.0))
    max_err = max(abs(jac[i][j] - expected[i][j]) for i in range(2) for j in range(2))
    eigs = _eigenvalues(S_star, 0.0, A, b, u)
    moduli = (abs(eigs[0]), abs(eigs[1]))
    # E2's S = (sigma+g)/beta, defined where p_star is an admissible level
    endemic_err = abs(u / b - S_star) if p_star <= 1.0 else None
    ok = max_err <= _DZ_ENTRY_TOL and max(moduli) <= _DZ_EIG_TOL
    return DZCertificate(
        point=(2.0, p_star),
        location=(S_star, 0.0),
        jacobian=jac,
        expected=expected,
        max_entry_error=max_err,
        eig_moduli=moduli,
        endemic_location_error=endemic_err,
        ok=ok,
    )


class HopfCertificate(_Record):
    r0: float
    p: float
    trace: float                 # trace of the Jacobian at E2, ~0
    omega: float                 # imaginary part of the eigenvalue pair
    determinant: float           # > 0: genuinely a centre-type linearisation
    transversality: float        # A/(2 r0^2), the conventional reported rate
    ok: bool


def hopf_certificate(r0: float, base: BaseParams) -> HopfCertificate:
    """Certificate that E2 undergoes a Hopf bifurcation on p = p_h(r0).

    ``transversality`` is the closed form A/(2 r0^2) (the rate left after the
    criticality substitution freezes the p-term of the trace); the complete
    derivative of Re(lambda) in r0 at fixed p is twice that, A/r0^2, so both
    are positive together, which is what the bifurcation argument needs.
    """
    if r0 < 2.0:
        raise CurveDomainError(f"hopf certificate needs r0 >= 2, got {r0}")
    p = p_h(r0, base)
    params = reduced_to_params(r0, p, base)
    e2 = eq.endemic(params)
    jac = eq.jacobian(e2.location, params)
    trace = jac[0][0] + jac[1][1]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    omega = abs(e2.eigenvalues[0].imag)
    transversality = base.A / (2.0 * r0 * r0)
    ok = abs(trace) <= 1e-10 and det > 0.0 and omega > 0.0
    return HopfCertificate(r0, p, trace, omega, det, transversality, ok)


# ----------------------------------------------------------------------
# region classification


def curve_values_at(r0: float, base: BaseParams, het=None) -> dict:
    """All curve values defined at this r0, as {name: p}. Belyakov roots are
    included when real (the lower one is the stable node/focus divide)."""
    values = {"sn": p_sn(r0, base)}
    if r0 > 1.0:
        values["t"] = p_t(r0, base)
    if r0 >= 2.0:
        values["h"] = p_h(r0, base)
    try:
        lo, hi = belyakov_roots(r0, base)
    except BelyakovDomainError:
        pass
    else:
        values["bt1"] = lo
        values["bt2"] = hi
    if het is not None and r0 > 2.0:
        values["het"] = float(het(r0))
    return values


def classify_region(r0: float, p: float, base: BaseParams, *,
                    het=None, values=None) -> RegionLabel:
    """Label the open region containing (r0, p), or BOUNDARY near a curve.

    The label is read off computed flags:

    ======  =====================================================
    A       no disease-free equilibria (p above the saddle-node)
    B       disease-free pair (saddle, sink), E2 not interior
    H       disease-free pair (source, saddle), E2 not interior
    C       E2 interior, stable node
    D       E2 interior, stable focus, no surrounding cycle
    E       E2 interior, stable focus inside the cycle band
    F       E2 interior, unstable focus
    G       E2 interior, unstable node
    ======  =====================================================

    The flags come in closed form from plain floats, with the same
    operations and tolerances as ``disease_free``/``endemic``: the
    disease-free discriminant (with its coincidence window), the sign of
    E2's I2, and the class of each needed equilibrium from the eigenvalues
    those functions read. E0/E1 are classified only when E2 is not
    interior; no ``ModelParams`` or ``Equilibrium`` is built.

    The cycle band is the open p-interval between the Hopf value and the
    heteroclinic value at this r0, taken orientation-neutrally (the unstable
    periodic orbit lives between those two curves whichever is lower). For
    r0 > 2 an attached heteroclinic curve is required to split D from E;
    pass ``het`` (callable r0 -> p) or a fitted interpolant.

    ``values`` is ``curve_values_at(r0, base, het)`` when a caller already
    holds it for this r0 (``classify_column`` does, once per column);
    ``None`` computes it here.
    """
    if r0 <= 0.0:
        raise CurveDomainError(f"classification needs r0 > 0, got {r0}")
    if values is None:
        values = curve_values_at(r0, base, het)
    for value in values.values():
        if abs(p - value) <= BOUNDARY_TOL:
            return RegionLabel.BOUNDARY

    _check_reduced(r0, p)
    A, m, u = base.A, base.m, base.removal
    b = base.beta_at(r0)
    _check_positive("beta", b)
    axis = _disease_free_S(A, p, m)
    if not axis:
        return RegionLabel.A

    S2, I2 = _endemic_location(A, p, m, b, u)
    if not I2 > 0.0:
        S0, S1 = axis
        e1 = classify(_eigenvalues(S1, 0.0, A, b, u))
        if e1 in _SINKS:
            return RegionLabel.B
        e0 = classify(_eigenvalues(S0, 0.0, A, b, u))
        if e0 in _SOURCES:
            return RegionLabel.H
        raise RegionFlagError(
            f"disease-free pair with classes ({e0.value}, "
            f"{e1.value}) matches neither B nor H at (r0, p) = ({r0}, {p})")

    e2 = classify(_eigenvalues(S2, I2, A, b, u))
    if e2 is StabilityClass.SINK_NODE:
        return RegionLabel.C
    if e2 is StabilityClass.SINK_FOCUS:
        if r0 <= 2.0:
            return RegionLabel.D
        if het is None:
            raise RegionFlagError(
                "a heteroclinic curve is required to separate D from E for "
                f"r0 > 2 (got r0 = {r0}); pass het=...")
        lo, hi = sorted((values["h"], values["het"]))
        return RegionLabel.E if lo < p < hi else RegionLabel.D
    if e2 is StabilityClass.SOURCE_FOCUS:
        return RegionLabel.F
    if e2 is StabilityClass.SOURCE_NODE:
        return RegionLabel.G
    raise RegionFlagError(
        f"interior equilibrium is {e2.value} away from every "
        f"declared curve at (r0, p) = ({r0}, {p})")


def classify_column(r0: float, ps, base: BaseParams, *, het) -> list:
    """Labels of (r0, p) for the ascending ``ps`` as ``classify_region`` gives
    them, RegionFlagError read as BOUNDARY, made once per run of points between
    two curve values whose ends agree. ``het`` may be None only for r0 <= 2.
    The column's curve values are computed once and handed to every call."""
    if r0 <= 0.0:
        raise CurveDomainError(f"classification needs r0 > 0, got {r0}")
    if het is None and r0 > 2.0:
        raise RegionFlagError(f"classify_column needs het for r0 = {r0} > 2")

    values = curve_values_at(r0, base, het)

    def label(p):
        try:
            return classify_region(r0, p, base, het=het, values=values)
        except RegionFlagError:
            return RegionLabel.BOUNDARY

    n, lo = len(ps), 0
    labels, bands = [RegionLabel.BOUNDARY] * n, [(n, n)]
    for value in values.values():
        # fl(p - value) is monotone in p, so the band [j, k) is contiguous
        j = k = bisect_left(ps, value)
        while k < n and abs(ps[k] - value) <= BOUNDARY_TOL:
            k += 1
        while j > 0 and abs(ps[j - 1] - value) <= BOUNDARY_TOL:
            j -= 1
        bands.append((j, k))
    for j, k in sorted(bands):
        if lo < j:
            first, last = label(ps[lo]), label(ps[j - 1])
            if first is last and first is not RegionLabel.BOUNDARY:
                labels[lo:j] = [first] * (j - lo)
            else:
                labels[lo:j] = [label(p) for p in ps[lo:j]]
        lo = max(lo, k)
    return labels


# ----------------------------------------------------------------------
# power-law fit


class PowerFit(_Record):
    a: float
    b: float
    c: float
    rss: float
    corr: float                  # R^2 of the fit against the data
    iterations: int
    grad_norm: float             # ||grad rss|| at the returned parameters

    def __call__(self, x: float) -> float:
        return self.a * x ** self.b + self.c


def power_fit(points) -> PowerFit:
    """Least-squares fit of y = a*x^b + c by damped Gauss-Newton.

    Initialisation: c0 = min(y) - 0.01, then log-log regression of y - c0
    on x for (a0, b0). Each round solves (J^T J + lam*I) delta = J^T r with
    the analytic Jacobian [x^b, a*x^b*ln x, 1]; lam starts at 1e-3, grows
    tenfold on a rejected step and shrinks tenfold on an accepted one.
    Converged when the step norm is <= 1e-12 or ||grad rss|| <= 1e-10.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    x, y = [q[0] for q in pts], [q[1] for q in pts]
    if not all(math.isfinite(v) for v in x + y):
        raise ValueError("all x and y must be finite")
    if min(x) <= 0.0:
        raise ValueError("all x must be positive")

    c = min(y) - 0.01
    if c == min(y):
        raise FitSingularError("y values too large to fit: min(y) - 0.01 "
                               f"rounds to min(y) = {c!r}")
    lx = [math.log(v) for v in x]
    lz = [math.log(v - c) for v in y]
    n = len(x)
    sx, sz = sum(lx), sum(lz)
    sxx, sxz = sum(v * v for v in lx), sum(u * v for u, v in zip(lx, lz))
    denom = n * sxx - sx * sx
    if abs(denom) <= 1e-9 * max(1.0, n * sxx + sx * sx):
        raise FitSingularError("x values do not spread")
    b = (n * sxz - sx * sz) / denom
    a = math.exp((sz - b * sx) / n)

    def residuals(av, bv, cv):
        # (r, rss); a non-finite r, or x**b overflowing, is an infinite rss
        try:
            rv = [yi - (av * xi ** bv + cv) for xi, yi in zip(x, y)]
        except OverflowError:
            return None, math.inf
        ss = sum(v * v for v in rv)
        return rv, ss if math.isfinite(ss) else math.inf

    def normal_equations(av, bv, rv):
        # J^T J and J^T r for the Jacobian rows [x^b, a*x^b*ln x, 1]
        jac = [(xb, av * xb * li, 1.0)
               for xb, li in zip((xi ** bv for xi in x), lx)]
        return ([[sum(u[i] * u[j] for u in jac) for j in range(3)]
                 for i in range(3)],
                [sum(u[i] * ri for u, ri in zip(jac, rv)) for i in range(3)])

    r, rss = residuals(a, b, c)
    if r is None:
        raise FitSingularError("x**b overflows at the log-log start")
    lam = 1e-3
    iterations = 0
    while iterations < _FIT_ROUNDS:
        iterations += 1
        jtj, jtr = normal_equations(a, b, r)
        if 2.0 * math.hypot(*jtr) <= 1e-10:
            break
        accepted = False
        while lam <= 1e10:
            delta = _solve3(jtj, jtr, lam)
            if delta is None:
                lam *= 10.0
                continue
            trial = (a + delta[0], b + delta[1], c + delta[2])
            r_new, rss_new = residuals(*trial)
            if rss_new < rss:
                a, b, c = trial
                r, rss = r_new, rss_new
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            raise FitSingularError(
                "no descent direction under maximal damping (collinear data)")
        if math.hypot(*delta) <= 1e-12:
            break
    else:
        raise FitNonConvergence(
            f"no convergence after {_FIT_ROUNDS} rounds (rss={rss:.3e})")

    grad = 2.0 * math.hypot(*normal_equations(a, b, r)[1])
    mean = sum(y) / n
    ss_tot = sum((v - mean) ** 2 for v in y)
    corr = 1.0 - rss / ss_tot if ss_tot > 0.0 else 1.0
    return PowerFit(a, b, c, rss, corr, iterations, grad)


def _solve3(m, v, lam: float):
    """Solve (m + lam*I) z = v for a 3x3 m by Gaussian elimination with
    partial pivoting; None when a pivot is exactly zero (a singular matrix)."""
    rows = [[*mi, vi] for mi, vi in zip(m, v)]
    for k in range(3):
        rows[k][k] += lam
    for k in range(3):
        piv = max(range(k, 3), key=lambda i: abs(rows[i][k]))
        if rows[piv][k] == 0.0:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [u - f * w for u, w in zip(row[k:], rows[k][k:])]
    z = [0.0, 0.0, 0.0]
    for i in (2, 1, 0):
        z[i] = (rows[i][3] - sum(rows[i][j] * z[j] for j in range(i + 1, 3))
                ) / rows[i][i]
    return z


def fit_reference_curve() -> PowerFit:
    """Power fit through the embedded reference table."""
    return power_fit(REFERENCE_HET_POINTS)


# ----------------------------------------------------------------------
# initial-condition fans (portraits)


def region_fan(params: ModelParams, *, n_boundary: int = 12,
               n_ring: int = 8) -> list:
    """Initial conditions probing one region's phase portrait.

    ``n_boundary`` seeds sit on the slanted top edge S + I = bound of the
    flow-invariant region (S from 0.05*A to 0.98*A), entering the region
    under the flow; ``n_ring`` seeds ring the interior equilibrium at
    radius 0.02, probing its local basin. When E2 is not interior, the ring
    is omitted.
    """
    bound = invariant_region_bound(params)
    A = params.A
    seeds = []
    for i in range(n_boundary):
        frac = i / (n_boundary - 1) if n_boundary > 1 else 0.5
        S = A * (0.05 + 0.93 * frac)
        seeds.append((S, bound - S))
    e2 = eq.endemic(params)
    if e2.I > 0.0 and n_ring > 0:
        cS, cI = e2.location
        radius = min(_RING_RADIUS, 0.5 * cI)
        for k in range(n_ring):
            angle = 2.0 * math.pi * k / n_ring
            seeds.append((cS + radius * math.cos(angle),
                          cI + radius * math.sin(angle)))
    return seeds
