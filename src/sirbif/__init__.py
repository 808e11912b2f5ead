"""Vaccinated logistic-SIR planar system: bifurcation atlas toolkit.

A library and command-line tool for the planar S-I system with logistic
growth and constant vaccination pressure: equilibria and their stability,
the closed-form bifurcation curves in the (r0, p) plane, the numerically
located heteroclinic curve with its power-law fit, the unstable periodic
orbit between the Hopf and heteroclinic values, and reproducible phase
portraits of every open region.
"""
from . import model, equilibria, atlas, integrate, connections

__version__ = "1.0.0"

# Built before the star imports: `from .integrate import *` rebinds the name
# `integrate` from the module to the function.
__all__ = ["__version__", *model.__all__, *equilibria.__all__, *atlas.__all__,
           *integrate.__all__, *connections.__all__]

from .model import *
from .equilibria import *
from .atlas import *
from .integrate import *
from .connections import *
