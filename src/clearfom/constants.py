"""Fundamental physical constants (CODATA 2018), in SI units.

All limit formulas take their constants from here so that no value is ever
inlined at a call site. ``REDUCED_PLANCK`` is derived from ``PLANCK_H``,
which keeps the h / 2pi relation exact instead of relying on an
independently rounded literal.
"""

import math

__all__ = ["BOLTZMANN_K", "PLANCK_H", "REDUCED_PLANCK", "LIGHT_SPEED_VACUUM",
           "ELECTRON_MASS", "SILICON_DENSITY", "DEFAULT_COST_EFFICIENCY_AXIS",
           "DEFAULT_TREND_BAND_DB"]

BOLTZMANN_K = 1.380649e-23         # J/K
PLANCK_H = 6.62607015e-34          # J*s
REDUCED_PLANCK = PLANCK_H / (2.0 * math.pi)
LIGHT_SPEED_VACUUM = 299792458.0   # m/s
ELECTRON_MASS = 9.1093837015e-31   # kg
SILICON_DENSITY = 2330.0           # kg/m^3

DEFAULT_COST_EFFICIENCY_AXIS = 1e10  # 1/USD; not physical: the cost axis has no limit
# "On the trend line" means within half a decade unless configured otherwise.
DEFAULT_TREND_BAND_DB = 5.0  # dB
