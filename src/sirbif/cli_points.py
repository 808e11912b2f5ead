"""The ``equilibria`` and ``dz`` subcommands: one parameter point's
equilibria, and the double-zero certificate."""
from __future__ import annotations

from .cli_common import (
    check_beta,
    config_for,
    csv_text,
    emit,
    new_subparser,
    resolve_base,
    resolve_params,
)
from .model import r0_of


def add_parser(sub, name: str, help_line: str) -> None:
    if name == "equilibria":
        ap = new_subparser(
            sub, name, help_line,
            "Print every equilibrium with its eigenvalues and stability "
            "class. CSV columns: id,S,I,eig1_re,eig1_im,eig2_re,eig2_im,"
            "class.", integrates=False, point=True)
        ap.set_defaults(func=cmd_equilibria)
    else:
        ap = new_subparser(
            sub, name, help_line,
            "Evaluate the Jacobian at the organizing double-zero point "
            "(R0, p) = (2, A^2/(4m)) and check that all curves pass through "
            "it.", integrates=False, point=False)
        ap.set_defaults(func=cmd_dz)


def _eig_text(eq) -> str:
    parts = []
    for lam in eq.eigenvalues:
        if lam.imag == 0.0:
            parts.append(repr(lam.real))
        else:
            parts.append(f"{lam.real!r} {'+' if lam.imag >= 0 else '-'} "
                         f"{abs(lam.imag)!r}i")
    return ", ".join(parts)


def cmd_equilibria(ns) -> int:
    from .equilibria import StabilityClass, disease_free, endemic, p_sn

    params = resolve_params(ns)
    config = config_for(ns, "equilibria", {"params": params.to_dict()})

    dfe = disease_free(params)
    e2 = endemic(params)
    print(f"parameters: A={params.A!r} beta={params.beta!r} m={params.m!r} "
          f"mu={params.mu!r} d={params.d!r} g={params.g!r} p={params.p!r}")
    print(f"R0 = {r0_of(params)!r}")
    if not dfe:
        print(f"no disease-free equilibria (p = {params.p!r} exceeds "
              f"p_SN = {p_sn(2.0, params.base)!r})")
    rows = []
    for eq in [*dfe, e2]:
        rows.append((eq.ident, eq.S, eq.I,
                     eq.eigenvalues[0].real, eq.eigenvalues[0].imag,
                     eq.eigenvalues[1].real, eq.eigenvalues[1].imag,
                     eq.stability.value))
        if eq.stability is StabilityClass.NONEXISTENT:
            print(f"{eq.ident}: not interior (formal location S={eq.S!r} "
                  f"I={eq.I!r})")
        else:
            print(f"{eq.ident}: S={eq.S!r} I={eq.I!r} [{eq.stability.value}] "
                  f"eigenvalues {_eig_text(eq)}")

    if ns.out is not None:
        emit(ns, config, [
            ("equilibria.csv", lambda: (("id", "S", "I", "eig1_re", "eig1_im",
                                         "eig2_re", "eig2_im", "class"),
                                        csv_text(rows))),
            ("equilibria.json", lambda: {
                "r0": r0_of(params),
                "equilibria": [eq.to_json_dict() for eq in [*dfe, e2]],
            }),
        ])
    return 0


def cmd_dz(ns) -> int:
    from .atlas import curve_values_at, dz_point

    base = resolve_base(ns)
    # the double-zero point lies at r0 = 2, where every curve meets
    check_beta("the double-zero point's r0", 2.0, base)
    config = config_for(ns, "dz", {"base": base.to_dict()})
    cert = dz_point(base)
    r0s, ps = cert.point
    curves = curve_values_at(r0s, base)
    sn = curves["sn"]
    conc = {"p_sn": sn, "dev_t": abs(sn - curves["t"]),
            "dev_h": abs(sn - curves["h"]), "dev_bt2": abs(sn - curves["bt2"])}
    jac = [list(row) for row in cert.jacobian]
    print(f"double-zero point: (R0, p) = ({r0s!r}, {ps!r})")
    print(f"E2 location there: S={cert.location[0]!r} I={cert.location[1]!r}")
    print(f"Jacobian: {jac!r}")
    print(f"expected: {[list(row) for row in cert.expected]!r}")
    print(f"max entry error: {cert.max_entry_error!r}")
    print(f"eigenvalue moduli: {list(cert.eig_moduli)!r}")
    print(f"curve concurrence at R0=2: p_SN={conc['p_sn']!r} "
          f"|p_SN-p_T|={conc['dev_t']!r} |p_SN-p_H|={conc['dev_h']!r} "
          f"|p_SN-p_Bt2|={conc['dev_bt2']!r}")
    print(f"certificate ok: {cert.ok}")
    if ns.out is not None:
        emit(ns, config, [("dz.json", lambda: {
            "point": {"r0": r0s, "p": ps},
            "location": {"S": cert.location[0], "I": cert.location[1]},
            "jacobian": jac,
            "max_entry_error": cert.max_entry_error,
            "eig_moduli": list(cert.eig_moduli),
            "endemic_location_error": cert.endemic_location_error,
            "concurrence": conc,
            "ok": cert.ok,
        })])
    return 0 if cert.ok else 3
