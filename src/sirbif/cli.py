"""Command-line front end: reproducible atlas, portrait, and connection runs.

Every run resolves to a configuration that is echoed into each artifact it
writes (CSV ``#`` header, JSON ``config`` object, SVG ``<desc>``), so any
output file identifies the run that produced it and re-running with the same
configuration reproduces the same bytes.  File schemas are documented in
FORMAT.md and in each subcommand's ``--help``.

Exit codes: 0 success; 2 validation error (malformed flags or config,
parameters outside their domain, I/O problems); 3 numerical failure
(integration breakdown, bracket without sign change, non-convergent fit).

This module only dispatches: each run is a fresh process, so it compiles
and builds only the subcommand named on the command line, whose flags and
handler live in one of the ``cli_*`` modules.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import sys

from . import __version__
from .model import TOL_RANGE

# subcommand -> (the module that builds and runs it, its help line); only
# the module of the subcommand that runs is imported, and its
# ``add_parser(sub, name, help_line)`` adds that subcommand's full parser.
# No such module imports this one, which under ``python -m sirbif.cli``
# runs as __main__ and would be compiled and run a second time.
_COMMANDS = {
    "equilibria": ("cli_points",
                   "list equilibria, eigenvalues, and stability classes"),
    "atlas": ("cli_atlas",
              "emit bifurcation curves, region grid, and SVG diagram"),
    "portraits": ("cli_phase",
                  "phase-portrait evidence packs for the open regions"),
    "simulate": ("cli_phase",
                 "integrate one trajectory and reconstruct the removed class"),
    "het-table": ("cli_het",
                  "heteroclinic connection table (embedded or freshly shot)"),
    "het-fit": ("cli_het", "power-law fit p_het(r0) = a*r0^b + c"),
    "cycle": ("cli_phase",
              "locate the unstable periodic orbit around the endemic focus"),
    "dz": ("cli_points", "double-zero certificate and curve concurrence"),
}


def build_parser(command=None):
    """The top parser and its subparsers by name: ``command`` built in
    full, every other subcommand as a stub that only lists its help line."""
    top = argparse.ArgumentParser(
        prog="sirbif",
        description="Bifurcation toolkit for a vaccinated logistic-SIR "
                    "planar system.",
        epilog="File schemas are documented in FORMAT.md.")
    top.add_argument("--version", action="version",
                     version=f"sirbif {__version__}")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (module, help_line) in _COMMANDS.items():
        if name == command:
            importlib.import_module(f".{module}", __package__).add_parser(
                sub, name, help_line)
        else:
            sub.add_parser(name, help=help_line)
    return top, sub.choices


# ----------------------------------------------------------------------
# config files and entry point


def _config_tokens(path: str, subparser, flags) -> list:
    """The file's JSON object as the flags it stands for: ``{"k": v}`` is
    ``--k=v`` (so a value beginning with ``-`` stays a value), a list the
    repeated flag, true/false the switch or nothing.  ``flags`` is the
    command line parsed without the file: a repeated flag given there
    replaces the file's list instead of adding to it."""
    import json
    from pathlib import Path

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


def _parse(top, subparser, argv: list, command):
    """``argv`` parsed with the ``--config`` file's flags put right after
    the subcommand, so that explicit flags still win and the file can give
    a required flag.  A first pass, silent and without the required check,
    finds the file and the flags given; the second reports whatever the
    first could not parse as argparse does."""
    tokens = []
    if subparser is not None:
        required = [a for a in subparser._actions if a.required]
        for action in required:
            action.required = False
        try:
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                flags = top.parse_args(argv)
        except SystemExit:
            flags = None
        finally:
            for action in required:
                action.required = True
        if flags is not None and flags.config is not None:
            tokens = _config_tokens(flags.config, subparser, flags)
    at = argv.index(command) + 1 if tokens else 0
    return top.parse_args([*argv[:at], *tokens, *argv[at:]])


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # the top parser has no option that takes a value, so the first token
    # that is not an option names the subcommand
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    top, parsers = build_parser(command)
    try:
        ns = _parse(top, parsers.get(command), argv, command)
        if ns.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {ns.jobs}")
        tol = getattr(ns, "tol", None)
        if tol is not None and not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
            raise ValueError(f"--tol must lie in [{TOL_RANGE[0]:g}, "
                             f"{TOL_RANGE[1]:g}], got {tol}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        print(f"sirbif: {exc}", file=sys.stderr)
        return 2

    try:
        return int(ns.func(ns) or 0)
    except (RuntimeError, ArithmeticError) as exc:
        print(f"sirbif: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"sirbif: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
