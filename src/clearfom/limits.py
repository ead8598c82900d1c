"""First-principles physical ceilings for the CLEAR factors.

Four closed-form bounds drive all radar normalization:

* minimum switching energy  k_B * T * ln 2            (bit erasure at T)
* maximum state-transition rate  4 * E / h            (quantum speed limit)
* minimum feature length  hbar / sqrt(2 m k_B T ln 2) (uncertainty bound)
* maximum channel rate  m * c^2 / h                   (mass-energy bound)

plus the classical time-of-flight ceiling c / (n * L) for a guided link.

The transition-rate bound is deliberately the h-based form 4E/h; at the
minimum switching energy for 300 K it lands just above 17 THz, i.e. in the
tens-of-terahertz regime expected for a room-temperature ultimate device.

The cost axis has no physical limit; its ceiling is a fixed normalization
constant, ``DEFAULT_COST_EFFICIENCY_AXIS`` (1e10 operations of value per
dollar, expressed as 1/USD).
"""

from __future__ import annotations

import math

from .constants import (
    BOLTZMANN_K,
    DEFAULT_COST_EFFICIENCY_AXIS,
    ELECTRON_MASS,
    LIGHT_SPEED_VACUUM,
    PLANCK_H,
    REDUCED_PLANCK,
    SILICON_DENSITY,
)
from .errors import DomainError
from .metric import AXIS_NAMES, Axes, Level

__all__ = [
    "landauer_energy",
    "margolus_levitin_rate",
    "heisenberg_min_length",
    "bremermann_rate",
    "time_of_flight_rate_limit",
    "minimum_device_pair_mass",
    "make_limit_set",
]

def landauer_energy(temperature: float) -> float:
    """Minimum energy to erase one bit at ``temperature``, in J/bit."""
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    return BOLTZMANN_K * temperature * math.log(2.0)


def margolus_levitin_rate(energy: float) -> float:
    """Maximum state-transition rate 4E/h for a system holding ``energy`` joules."""
    if energy <= 0:
        raise DomainError("energy must be strictly positive")
    return 4.0 * energy / PLANCK_H


def heisenberg_min_length(temperature: float, mass: float) -> float:
    """Minimum localization length for a mass switching at the thermal bit energy."""
    if temperature <= 0:
        raise DomainError("temperature must be strictly positive")
    if mass <= 0:
        raise DomainError("mass must be strictly positive")
    momentum = math.sqrt(2.0 * mass * BOLTZMANN_K * temperature * math.log(2.0))
    if momentum == 0.0:  # the product underflowed
        raise DomainError(f"temperature {temperature} K puts the minimum length "
                          "outside the floating-point range")
    return REDUCED_PLANCK / momentum


def bremermann_rate(mass: float) -> float:
    """Maximum information rate m*c^2/h for a system of ``mass`` kg, in bit/s."""
    if mass <= 0:
        raise DomainError("mass must be strictly positive")
    return mass * LIGHT_SPEED_VACUUM ** 2 / PLANCK_H


def time_of_flight_rate_limit(length: float, group_index: float) -> float:
    """Propagation-limited signaling rate c/(n*L) over a guided span, in Hz."""
    if length <= 0:
        raise DomainError("length must be strictly positive")
    if group_index < 1:
        raise DomainError("group index must be at least 1 (vacuum)")
    rate = LIGHT_SPEED_VACUUM / (group_index * length)
    if not 0.0 < rate < math.inf:
        raise DomainError(f"link length {length} m and group index {group_index} put the "
                          "time-of-flight rate outside the floating-point range")
    return rate


def minimum_device_pair_mass(temperature: float, mass: float) -> float:
    """Mass of a sender/receiver pair of minimum-size crystalline-silicon cubes.

    Each endpoint is a cube with side equal to the minimum localization
    length; this is the mass model behind the link capacity ceiling.
    """
    side = heisenberg_min_length(temperature, mass)
    try:
        pair_mass = 2.0 * SILICON_DENSITY * side ** 3
    except OverflowError:  # float ** raises where * would give inf
        pair_mass = math.inf
    if not 0.0 < pair_mass < math.inf:
        raise DomainError(f"temperature {temperature} K puts the minimum device pair "
                          "mass outside the floating-point range")
    return pair_mass


def make_limit_set(temperature: float,
                   link_length: float = 1e-4,
                   group_index: float = 3.0,
                   level: Level = Level.DEVICE) -> Axes:
    """The five radar limits of one hierarchy level, in that level's factor units.

    Device: the transition-rate ceiling, the minimum length at the electron
    mass (the latency axis holds a critical length), the minimum switching
    energy and area, and the reciprocal of the cost-efficiency axis. Link:
    the capacity ceiling of a sender/receiver pair of minimum-size silicon
    devices, the time of flight over ``link_length`` at ``group_index``
    (which matter at this level only), twice the device energy and area
    floors (a transported bit is manipulated at both ends), and the same
    cost limit.
    """
    level = Level(level)
    cost = 1.0 / DEFAULT_COST_EFFICIENCY_AXIS
    energy = landauer_energy(temperature)
    length = heisenberg_min_length(temperature, ELECTRON_MASS)
    if level is Level.DEVICE:
        limits = Axes(margolus_levitin_rate(energy), length, energy, length ** 2, cost)
    elif level is Level.LINK:
        limits = Axes(bremermann_rate(minimum_device_pair_mass(temperature, ELECTRON_MASS)),
                      1.0 / time_of_flight_rate_limit(link_length, group_index),
                      2.0 * energy, 2.0 * length ** 2, cost)
    else:
        raise DomainError(f"physical limits exist at device and link level, not {level.value}")
    for name, value in zip(AXIS_NAMES, limits):
        if not 0.0 < value < math.inf:
            raise DomainError(f"temperature {temperature} K puts the {level.value} {name} "
                              "limit outside the floating-point range")
    return limits
