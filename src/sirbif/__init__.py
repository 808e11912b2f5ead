"""Vaccinated logistic-SIR planar system: bifurcation atlas toolkit.

A library and command-line tool for the planar S-I system with logistic
growth and constant vaccination pressure: equilibria and their stability,
the closed-form bifurcation curves in the (r0, p) plane, the numerically
located heteroclinic curve with its power-law fit, the unstable periodic
orbit between the Hopf and heteroclinic values, and reproducible phase
portraits of every open region.
"""
from .model import (
    BaseParams,
    ModelParams,
    REFERENCE_BASE,
    ReducedPoint,
    boundary_field,
    gronwall_envelope,
    in_invariant_region,
    invariant_region_bound,
    params_to_reduced,
    r0_of,
    reduced_to_params,
    vector_field,
)
from .equilibria import (
    BelyakovDomainError,
    Equilibrium,
    StabilityClass,
    belyakov_r0_zero_p,
    belyakov_roots,
    classify,
    delta2_eval,
    delta2_scale,
    disease_free,
    eigenvalues_2x2,
    endemic,
    jacobian,
    residual_at,
)
from .atlas import (
    CurveDomainError,
    DZCertificate,
    HopfCertificate,
    OrderingReport,
    RegionFlagError,
    RegionLabel,
    classify_region,
    curve_ordering_check,
    curve_values_at,
    dz_point,
    e2_trace,
    hopf_certificate,
    p_bt1,
    p_bt2,
    p_h,
    p_sn,
    p_t,
    region_fan,
)
from .integrate import (
    OmegaLimitResult,
    SectionEvent,
    TerminalEvent,
    Trajectory,
    integrate,
    manifold_shoot,
    omega_limit_estimate,
    recover_recovered,
)
from .connections import (
    REFERENCE_HET_POINTS,
    HetResult,
    HetRow,
    MislabeledRegionError,
    NoCrossingError,
    NotInRegionEError,
    SameSignBracketError,
    PeriodicOrbit,
    PowerFit,
    build_het_table,
    find_het_p,
    find_periodic_orbit,
    fit_reference_curve,
    power_fit,
    splitting,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "BaseParams", "ModelParams", "REFERENCE_BASE", "ReducedPoint",
    "boundary_field", "gronwall_envelope", "in_invariant_region",
    "invariant_region_bound", "params_to_reduced", "r0_of",
    "reduced_to_params", "vector_field",
    # equilibria
    "BelyakovDomainError", "Equilibrium", "StabilityClass",
    "belyakov_r0_zero_p", "belyakov_roots", "classify", "delta2_eval",
    "delta2_scale", "disease_free", "eigenvalues_2x2", "endemic", "jacobian",
    "residual_at",
    # atlas
    "CurveDomainError", "DZCertificate", "HopfCertificate",
    "OrderingReport", "RegionFlagError", "RegionLabel", "classify_region",
    "curve_ordering_check", "curve_values_at", "dz_point", "e2_trace",
    "hopf_certificate",
    "p_bt1", "p_bt2", "p_h", "p_sn", "p_t", "region_fan",
    # integrate
    "OmegaLimitResult", "SectionEvent", "TerminalEvent", "Trajectory",
    "integrate", "manifold_shoot", "omega_limit_estimate", "recover_recovered",
    # connections
    "REFERENCE_HET_POINTS", "HetResult", "HetRow", "MislabeledRegionError",
    "NoCrossingError", "NotInRegionEError", "SameSignBracketError",
    "PeriodicOrbit", "PowerFit", "build_het_table", "find_het_p",
    "find_periodic_orbit", "fit_reference_curve", "power_fit", "splitting",
]
