"""What every subcommand shares: its run-control and parameter flags, the
parameter plumbing, the run configuration and the artifact writers.

Imported by the command modules, and by ``cli.main`` once their flags are
parsed, so that start-up and the top-level ``--help`` compile none of it.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import islice
from pathlib import Path

from . import __version__
from .model import (
    REFERENCE_BASE,
    TOL_RANGE,
    BaseParams,
    ModelParams,
    reduced_to_params,
)

FORMATS = ("csv", "json", "svg")


# ----------------------------------------------------------------------
# run configuration and artifact writers


def compact(config: dict) -> str:
    """The run's configuration on one line, as echoed into CSV and SVG."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def csv_text(rows):
    """Text of ``rows`` (any iterable of tuples) as ``csv.writer`` writes
    them, lines ended by LF, in chunks of 512 rows: no file is held whole."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while batch := list(islice(rows, 512)):
        writer.writerows(batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _write_csv(path: Path, config: dict, columns, body) -> None:
    """The ``# sirbif`` and ``# config`` lines, the header row, then
    ``body``: the data rows as text chunks, written as they come."""
    with path.open("w") as fh:
        fh.write(f"# sirbif {__version__}\n# config {compact(config)}\n")
        fh.writelines(csv_text([columns]))
        fh.writelines(body)


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for string-keyed dicts,
    lists and scalars, its lines started by ``pad``: containers laid out
    here, finite floats joined at once, scalars left to ``json.dumps``."""
    inner = pad + "  "
    sep = "," + inner
    if not value and isinstance(value, (dict, list, tuple)):
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        return "{" + inner + sep.join(
            json.dumps(key) + ": " + _json_text(item, inner)
            for key, item in sorted(value.items())) + pad + "}"
    if isinstance(value, (list, tuple)):
        try:
            body = sep.join(map(float.__repr__, value))
        except TypeError:        # not all floats
            body = "n"
        if "n" in body:          # and "nan" or "inf" is no JSON
            body = sep.join(_json_text(item, inner) for item in value)
        return "[" + inner + body + pad + "]"
    return json.dumps(value)     # a scalar: the same bytes, no layout


def _write_json(path: Path, config: dict, payload: dict) -> None:
    doc = dict(payload)
    doc["config"] = config
    path.write_text(_json_text(doc) + "\n")


def emit(ns, config: dict, artifacts) -> None:
    """Write the artifacts whose format was selected, in the given order.

    ``artifacts`` holds ``(file name, producer)`` pairs and the file suffix
    picks the writer: a ``.csv`` producer returns ``(columns, body)``, the
    body being the data rows as text chunks (``csv_text`` of tuple rows),
    a ``.json`` producer the payload and an ``.svg`` producer a Canvas.  The
    producer of a file that is not written never runs.
    """
    fmts = formats(ns)
    outdir = Path(ns.out) if ns.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, produce in artifacts:
        kind = name.rsplit(".", 1)[-1]
        if kind not in fmts:
            continue
        path = outdir / name
        if kind == "csv":
            _write_csv(path, config, *produce())
        elif kind == "json":
            _write_json(path, config, produce())
        else:
            path.write_text(produce().render())
        print(f"wrote {path}")


# ----------------------------------------------------------------------
# parameter plumbing


def resolve_base(ns) -> BaseParams:
    base = BaseParams(A=ns.A, m=ns.m, mu=ns.mu, d=ns.d, g=ns.g)
    # every curve scales with A^2/m, the saddle-node value p_sn with A^2/(4m)
    if not math.isfinite(base.A * base.A / base.m):
        raise ValueError(f"--A {base.A!r} is too large for --m {base.m!r}: "
                         "the curves' scale A^2/m overflows")
    p_sn = base.A * base.A / (4.0 * base.m)
    if p_sn == 0.0:
        raise ValueError(f"--A {base.A!r} is too small for --m {base.m!r}: "
                         "the saddle-node value A^2/(4m) underflows to 0")
    return base


def check_beta(flag: str, value: float, base: BaseParams) -> None:
    """Refuse the beta that ``flag value`` sets (an r0 flag through r0
    (sigma+g)/A) when R0 or a term of E2's closed form leaves the double
    range for some p in [0, 1]."""
    beta = value if flag == "--beta" else base.beta_at(value)
    # E2 is S2 = u/beta, I2 = (-p m beta^2 + A u beta - u^2)/(beta^2 u) with
    # u = sigma+g, and beta*I2 is an entry of its Jacobian.  Each bound below
    # is monotone or convex in beta, so a window passes if its two ends do;
    # S2 is below u for beta >= 1, else below u/beta^2, a term of |I2|.
    u = base.removal
    divisor = beta * beta * u
    if sys.float_info.min <= divisor < math.inf:
        # |I2| at most, from the terms of its numerator at p = 1
        i2 = (base.m * beta * beta + base.A * u * beta + u * u) / divisor
        if max(i2, beta * i2, base.A * beta / u) < math.inf:
            return
    what = ("is" if flag == "--beta"
            else f"puts beta = r0 (sigma+g)/A = {beta!r}")
    raise ValueError(f"{flag} {value!r} {what} out of range: "
                     "beta^2 (sigma+g), R0 or a term of E2's closed form "
                     f"at sigma+g = {u!r} underflows or overflows")


def resolve_params(ns) -> ModelParams:
    base = resolve_base(ns)
    if ns.beta is not None:
        params = ModelParams(A=ns.A, beta=ns.beta, m=ns.m, mu=ns.mu, d=ns.d,
                             g=ns.g, p=ns.p)
        check_beta("--beta", ns.beta, base)
        return params
    if ns.r0 is not None:
        params = reduced_to_params(ns.r0, ns.p, base)
        check_beta("--r0", ns.r0, base)
        return params
    raise ValueError("give either --beta or --r0 to fix the transmission rate")


def formats(ns) -> tuple:
    chosen = ns.format or list(FORMATS)
    return tuple(f for f in FORMATS if f in chosen)


def effective_tol(ns, default: float) -> float:
    return default if ns.tol is None else ns.tol


def config_for(ns, command: str, extra: dict, tol=None) -> dict:
    """The run's configuration; ``tol`` is set only if the run integrates."""
    settings = {"formats": list(formats(ns))}
    if tol is not None:
        settings["tol"] = tol
    settings.update(extra)
    return {"command": command, "tool": "sirbif", "version": __version__,
            "settings": settings}


# ----------------------------------------------------------------------
# flags


def config_tokens(path: str, subparser, flags) -> list:
    """The file's JSON object as the flags it stands for: ``{"k": v}`` is
    ``--k=v`` (so a value beginning with ``-`` stays a value), a list the
    repeated flag, true/false the switch or nothing.  ``flags`` is the
    command line parsed without the file: a repeated flag given there
    replaces the file's list instead of adding to it."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    # not --help: as a token it would print the help instead of running
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    tokens = []
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r} for this command")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            tokens += [flag] if value else []
            continue
        repeated = isinstance(action, argparse._AppendAction)
        items = value if repeated and isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, bool) or not isinstance(item, (str, int, float)):
                raise ValueError(f"config key {key!r}: {item!r} is not a flag value")
        if not (repeated and getattr(flags, action.dest) is not None):
            tokens += [f"{flag}={item}" for item in items]
    return tokens


def check_run_control(ns) -> None:
    """Refuse a tolerance outside ``TOL_RANGE``."""
    tol = getattr(ns, "tol", None)
    if tol is not None and not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"--tol must lie in [{TOL_RANGE[0]:g}, "
                         f"{TOL_RANGE[1]:g}], got {tol}")


def new_subparser(sub, name: str, help_line: str, description: str, *,
                  integrates: bool, point: bool):
    """The subparser of ``name``: its run-control flags (``--tol`` only if
    it ``integrates``), the base parameters and, with ``point``, the
    parameter point.  The caller adds the command's own flags."""
    ap = sub.add_parser(name, help=help_line, description=description)
    grp = ap.add_argument_group("run control")
    grp.add_argument("--config", metavar="FILE", default=None,
                     help="JSON file of flag defaults for this subcommand")
    grp.add_argument("--out", metavar="DIR", default=None,
                     help="output directory (default: current directory)")
    grp.add_argument("--format", action="append", choices=FORMATS,
                     metavar="FMT", default=None,
                     help="output format (csv/json/svg); repeatable, "
                          "default: all that apply")
    if integrates:
        grp.add_argument("--tol", type=float, default=None,
                         help=f"integration tolerance in [{TOL_RANGE[0]:g}, "
                              f"{TOL_RANGE[1]:g}] (command-specific default)")
    grp.add_argument("--jobs", type=int, choices=(1,), default=1,
                     help="accepted only as 1, for compatibility: every "
                          "run is one process; the flag goes once the "
                          "benchmark stops passing it")

    grp = ap.add_argument_group("base parameters")
    grp.add_argument("--A", type=float, default=REFERENCE_BASE.A,
                     help="recruitment scale (default %(default)s)")
    grp.add_argument("--m", type=float, default=REFERENCE_BASE.m,
                     help="vaccination supply rate (default %(default)s)")
    grp.add_argument("--mu", type=float, default=REFERENCE_BASE.mu,
                     help="natural mortality (default %(default)s)")
    grp.add_argument("--d", type=float, default=REFERENCE_BASE.d,
                     help="disease-induced mortality (default %(default)s)")
    grp.add_argument("--g", type=float, default=REFERENCE_BASE.g,
                     help="recovery rate (default %(default)s)")

    if point:
        grp = ap.add_argument_group("parameter point")
        grp.add_argument("--beta", type=float, default=None,
                         help="transmission rate (overrides --r0)")
        grp.add_argument("--r0", type=float, default=None,
                         help="basic reproduction number; sets "
                              "beta = r0*(mu+d+g)/A")
        grp.add_argument("--p", type=float, default=0.0,
                         help="vaccination level in [0, 1] "
                              "(default %(default)s)")
    return ap
