"""Vaccinated logistic-SIR planar system: bifurcation atlas toolkit.

A library and command-line tool for the planar S-I system with logistic
growth and constant vaccination pressure: equilibria and their stability,
the closed-form bifurcation curves in the (r0, p) plane, the numerically
located heteroclinic curve with its power-law fit, the unstable periodic
orbit between the Hopf and heteroclinic values, and reproducible phase
portraits of every open region.

Every public name of the layer modules is a name of the package, but it is
looked up on first use (PEP 562): each CLI run is a fresh process, and
importing ``sirbif`` or ``sirbif.cli`` loads only the modules that run
needs.  The first public name asked for imports the five layers in order
and is cached here; a private name or a submodule name misses at once,
so ``from . import svgplot`` or a ``hasattr`` probe loads no layer.

``sirbif.integrate`` is the function, as ``from sirbif import *`` gives
it.  The import system binds a loaded submodule onto its package, so the
package guards that one binding and keeps the function instead.
"""
import importlib
import sys
import types

__version__ = "1.0.0"

_LAYERS = ("model", "equilibria", "atlas", "integrate", "connections")
# not ``integrate``: that public name is the function
_SUBMODULES = frozenset({"model", "equilibria", "atlas", "connections",
                         "svgplot", "cli", "cli_common", "cli_points",
                         "cli_atlas", "cli_phase", "cli_het"})


def _layers() -> list:
    return [importlib.import_module(f"{__name__}.{name}") for name in _LAYERS]


def __getattr__(name):
    if name == "__all__":
        value = ["__version__", *(n for m in _layers() for n in m.__all__)]
    elif name.startswith("_") or name in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        holder = next((m for m in _layers() if name in m.__all__), None)
        if holder is None:
            raise AttributeError(f"module {__name__!r} has no attribute "
                                 f"{name!r}")
        value = getattr(holder, name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        if name == "integrate" and isinstance(value, types.ModuleType):
            value = value.integrate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
