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
import importlib
import sys

from . import __version__

# subcommand -> (the module that builds and runs it, its help line); only
# the module of the subcommand that runs is imported, and its ``add_parser(
# sub, name, help_line)`` adds that subcommand's full parser.  No such module
# imports this one: under ``python -m sirbif.cli`` it would run twice.
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # the top parser has no option that takes a value, so the first token
    # that is not an option names the subcommand
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    top, parsers = build_parser(command)
    try:
        ns = top.parse_args(argv)
        # loaded already: the subcommand's module built its flags with it
        from .cli_common import check_run_control, config_tokens
        if ns.config is not None:
            # the file's flags go before the command line's, which win
            tokens = config_tokens(ns.config, parsers[command], ns)
            at = argv.index(command) + 1
            ns = top.parse_args([*argv[:at], *tokens, *argv[at:]])
        check_run_control(ns)
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
