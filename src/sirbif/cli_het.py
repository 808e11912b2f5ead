"""The ``het-table`` and ``het-fit`` subcommands: the heteroclinic
connection table and its power-law fit."""
from __future__ import annotations

import csv
import math
from pathlib import Path

from .cli_common import (
    check_beta,
    config_for,
    csv_text,
    effective_tol,
    emit,
    new_subparser,
    resolve_base,
)
from .model import REFERENCE_BASE


def add_parser(sub, name: str, help_line: str) -> None:
    if name == "het-table":
        ap = new_subparser(
            sub, name, help_line,
            "Emit the connection-curve table. Default: the embedded 13-row "
            "reference table. With --shoot, locate each connection by "
            "Brent's method on the manifold splitting below the Hopf value. "
            "CSV columns: r0,p_het,splitting_residual,delta_vs_reference,"
            "error (empty cells where not applicable).",
            integrates=True, point=False)
        ap.add_argument("--shoot", action="store_true",
                        help="recompute the table by shooting instead of "
                             "using the embedded rows")
        ap.add_argument("--r0-list", default=None, metavar="LIST",
                        help="comma-separated abscissae (requires --shoot)")
        ap.set_defaults(func=cmd_het_table)
    else:
        ap = new_subparser(
            sub, name, help_line,
            "Fit the three-parameter power law to a connection table: the "
            "embedded rows (default), a CSV with r0 and p_het columns "
            "(--table), or a freshly shot table (--shoot). JSON payload: "
            "a,b,c,rss,corr.", integrates=True, point=False)
        ap.add_argument("--table", default=None, metavar="FILE",
                        help="CSV file with r0 and p_het columns")
        ap.add_argument("--shoot", action="store_true",
                        help="shoot a fresh table at the embedded abscissae")
        ap.set_defaults(func=cmd_het_fit)


def _parse_r0_list(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --r0-list: {exc}") from None
    if not values:
        raise ValueError("--r0-list is empty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"--r0-list entries must be finite, got {text}")
    return values


def _shoot(abscissae, base, tol: float, what: str) -> list:
    """The shot table's rows, once every abscissa (``what`` names it) lies
    above 2, where the connection lives, and passes ``check_beta``."""
    from .connections import build_het_table
    for r0 in abscissae:
        if not r0 > 2.0:
            raise ValueError(f"{what} {r0!r} is not above 2: "
                             "the connection needs r0 > 2")
        check_beta(what, r0, base)
    return build_het_table(abscissae, base, tol=tol)


def _shoot_tol(ns) -> float | None:
    """The tolerance of ``--shoot``; without it nothing integrates."""
    if ns.tol is not None and not ns.shoot:
        raise ValueError("--tol only makes sense with --shoot: "
                         "without it nothing integrates")
    return effective_tol(ns, 1e-10) if ns.shoot else None


def cmd_het_table(ns) -> int:
    from .atlas import REFERENCE_HET_POINTS

    base = resolve_base(ns)
    if ns.r0_list is not None and not ns.shoot:
        raise ValueError("--r0-list only makes sense with --shoot; "
                         "the embedded table has fixed abscissae")
    tol = _shoot_tol(ns)
    abscissae = (_parse_r0_list(ns.r0_list) if ns.r0_list is not None
                 else [r0 for r0, _ in REFERENCE_HET_POINTS])
    config = config_for(ns, "het-table", {
        "base": base.to_dict(), "shoot": bool(ns.shoot),
        "r0_list": abscissae,
    }, tol)

    reference = dict(REFERENCE_HET_POINTS) if base == REFERENCE_BASE else {}
    rows = []
    if ns.shoot:
        what = "embedded r0" if ns.r0_list is None else "--r0-list entry"
        table = _shoot(abscissae, base, tol, what)
        for row in table:
            delta = None
            if not row.error and row.r0 in reference:
                delta = row.p_het - reference[row.r0]
            rows.append((row.r0, None if row.error else row.p_het,
                         None if row.error else row.splitting_residual,
                         delta, row.error))
            if row.error:
                print(f"r0 = {row.r0!r}: failed ({row.error})")
            else:
                print(f"r0 = {row.r0!r}: p_het = {row.p_het!r}")
    else:
        rows = [(r0, p, None, None, "") for r0, p in REFERENCE_HET_POINTS]
        print(f"embedded connection table: {len(rows)} rows")

    columns = ("r0", "p_het", "splitting_residual", "delta_vs_reference",
               "error")
    emit(ns, config, [
        ("het_table.csv", lambda: (columns, csv_text(rows))),
        ("het_table.json", lambda: {
            "rows": [dict(zip(columns, row)) for row in rows]}),
    ])
    failed = sum(1 for r in rows if r[4])
    return 3 if failed == len(rows) else 0


def _read_points_csv(path: Path) -> list:
    points = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, row) for row in reader
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = [cell.strip() for cell in rows[0][1]]
    try:
        i_r0, i_p = header.index("r0"), header.index("p_het")
    except ValueError:
        raise ValueError(f"{path}: header must name 'r0' and 'p_het' columns")
    for line, row in rows[1:]:
        if len(row) <= max(i_r0, i_p) or not row[i_p].strip():
            continue
        try:
            points.append((float(row[i_r0]), float(row[i_p])))
        except ValueError:
            raise ValueError(
                f"{path}, line {line}: r0 = {row[i_r0]!r}, "
                f"p_het = {row[i_p]!r} is not a pair of numbers") from None
    return points


def cmd_het_fit(ns) -> int:
    from .atlas import REFERENCE_HET_POINTS, power_fit

    base = resolve_base(ns)
    if ns.table == "":
        raise ValueError("--table is empty")
    if ns.table and ns.shoot:
        raise ValueError("--table and --shoot are mutually exclusive")
    tol = _shoot_tol(ns)
    if ns.table:
        source = ns.table
        points = _read_points_csv(Path(ns.table))
    elif ns.shoot:
        source = "shoot"
        table = _shoot([r0 for r0, _ in REFERENCE_HET_POINTS], base, tol,
                       "embedded r0")
        points = [(row.r0, row.p_het) for row in table if not row.error]
    else:
        source = "embedded"
        points = list(REFERENCE_HET_POINTS)

    try:
        fit = power_fit(points)
    except ValueError as exc:    # e.g. fewer rows than the fit needs
        raise ValueError(f"{source}: {exc}") from None
    config = config_for(ns, "het-fit", {
        "base": base.to_dict(), "source": source, "n_points": len(points),
    }, tol)
    # past these digits rss and grad_norm depend on the order of the float
    # operations, not on the data (FORMAT.md)
    rss, grad_norm = float(f"{fit.rss:.12g}"), float(f"{fit.grad_norm:.2g}")
    print(f"p_het(r0) ~ a*r0^b + c with a = {fit.a!r}, b = {fit.b!r}, "
          f"c = {fit.c!r}")
    print(f"rss = {rss!r}, corr = {fit.corr!r}, iterations = {fit.iterations}")

    payload = {"a": fit.a, "b": fit.b, "c": fit.c, "rss": rss,
               "corr": fit.corr, "iterations": fit.iterations,
               "grad_norm": grad_norm, "n_points": len(points)}
    emit(ns, config, [
        ("het_fit.json", lambda: {"fit": payload}),
        ("het_fit.csv", lambda: (tuple(payload),
                                 csv_text([tuple(payload.values())]))),
    ])
    return 0
