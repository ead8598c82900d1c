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

The cost axis has no physical limit; its ceiling is a configurable
normalization constant (default 1e10 operations of value per dollar,
expressed as 1/USD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    BOLTZMANN_K,
    ELECTRON_MASS,
    LIGHT_SPEED_VACUUM,
    PLANCK_H,
    REDUCED_PLANCK,
    SILICON_DENSITY,
)
from .errors import DomainError
from .metric import Axes, Level

__all__ = [
    "LimitSet",
    "DEFAULT_COST_EFFICIENCY_AXIS",
    "landauer_energy",
    "margolus_levitin_rate",
    "heisenberg_min_length",
    "bremermann_rate",
    "time_of_flight_rate_limit",
    "minimum_device_pair_mass",
    "make_limit_set",
    "axis_limits",
]

# Not a physical bound; fabrication keeps scaling, so this is configuration.
DEFAULT_COST_EFFICIENCY_AXIS = 1e10


@dataclass(frozen=True)
class LimitSet:
    """Per-factor ceilings used to normalize a radar plot at one level.

    At link level the energy and area floors double relative to device level
    (a transported bit is manipulated at both ends), the capacity ceiling is
    the mass-energy bound for a sender/receiver pair of minimum-size silicon
    devices, and the latency ceiling is the time-of-flight rate.
    """

    min_energy_j_per_bit: float
    max_rate_hz: float
    min_length_m: float
    min_area_m2: float
    max_capacity_bps: float
    max_tof_rate_hz: float
    cost_efficiency_axis: float
    level: Level

    def __post_init__(self):
        for name in ("min_energy_j_per_bit", "max_rate_hz", "min_length_m",
                     "min_area_m2", "max_capacity_bps", "max_tof_rate_hz",
                     "cost_efficiency_axis"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"LimitSet.{name} must be finite and strictly positive")
        if self.level not in (Level.DEVICE, Level.LINK):
            raise DomainError("LimitSet.level must be device or link")


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
                   level: Level = Level.DEVICE,
                   cost_efficiency_axis: float = DEFAULT_COST_EFFICIENCY_AXIS) -> LimitSet:
    """Assemble the full per-factor ceiling table for one hierarchy level.

    The length bound is taken at the electron mass. ``link_length`` and
    ``group_index`` parameterize the time-of-flight ceiling and only matter
    at link level, where the limit set must be built for the same physical
    length as the link it normalizes.
    """
    level = Level(level)
    energy = landauer_energy(temperature)
    length = heisenberg_min_length(temperature, ELECTRON_MASS)
    capacity = bremermann_rate(minimum_device_pair_mass(temperature, ELECTRON_MASS))
    if math.isinf(capacity):
        raise DomainError(f"temperature {temperature} K puts the capacity ceiling "
                          "outside the floating-point range")
    area = length ** 2
    if level is Level.LINK:
        # One transported bit is manipulated at both endpoints.
        energy *= 2.0
        area *= 2.0
    return LimitSet(
        min_energy_j_per_bit=energy,
        max_rate_hz=margolus_levitin_rate(landauer_energy(temperature)),
        min_length_m=length,
        min_area_m2=area,
        max_capacity_bps=capacity,
        max_tof_rate_hz=time_of_flight_rate_limit(link_length, group_index),
        cost_efficiency_axis=cost_efficiency_axis,
        level=level,
    )


def axis_limits(limit_set: LimitSet) -> Axes:
    """Project a LimitSet onto the five radar axes in raw factor units.

    Device level: capability is bounded by the transition-rate ceiling and
    the latency axis holds the critical length. Link level: capability is
    bounded by the capacity ceiling and the latency axis holds seconds
    (the reciprocal of the time-of-flight rate).
    """
    if limit_set.level is Level.DEVICE:
        capability = limit_set.max_rate_hz
        latency = limit_set.min_length_m
    else:
        capability = limit_set.max_capacity_bps
        latency = 1.0 / limit_set.max_tof_rate_hz
    return Axes(
        capability=capability,
        latency=latency,
        energy=limit_set.min_energy_j_per_bit,
        amount=limit_set.min_area_m2,
        resistance=1.0 / limit_set.cost_efficiency_axis,
    )
