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

from .constants import CODATA_2018, PhysicalConstants
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
            if getattr(self, name) <= 0:
                raise DomainError(f"LimitSet.{name} must be strictly positive")
        if self.level not in (Level.DEVICE, Level.LINK):
            raise DomainError("LimitSet.level must be device or link")


def landauer_energy(temperature: float, constants: PhysicalConstants = CODATA_2018) -> float:
    """Minimum energy to erase one bit at ``temperature``, in J/bit."""
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    return constants.boltzmann_k * temperature * math.log(2.0)


def margolus_levitin_rate(energy: float, constants: PhysicalConstants = CODATA_2018) -> float:
    """Maximum state-transition rate 4E/h for a system holding ``energy`` joules."""
    if energy <= 0:
        raise DomainError("energy must be strictly positive")
    return 4.0 * energy / constants.planck_h


def heisenberg_min_length(temperature: float, mass: float,
                          constants: PhysicalConstants = CODATA_2018) -> float:
    """Minimum localization length for a mass switching at the thermal bit energy."""
    if temperature <= 0:
        raise DomainError("temperature must be strictly positive")
    if mass <= 0:
        raise DomainError("mass must be strictly positive")
    return constants.reduced_planck / math.sqrt(
        2.0 * mass * constants.boltzmann_k * temperature * math.log(2.0))


def bremermann_rate(mass: float, constants: PhysicalConstants = CODATA_2018) -> float:
    """Maximum information rate m*c^2/h for a system of ``mass`` kg, in bit/s."""
    if mass <= 0:
        raise DomainError("mass must be strictly positive")
    return mass * constants.light_speed_vacuum ** 2 / constants.planck_h


def time_of_flight_rate_limit(length: float, group_index: float,
                              constants: PhysicalConstants = CODATA_2018) -> float:
    """Propagation-limited signaling rate c/(n*L) over a guided span, in Hz."""
    if length <= 0:
        raise DomainError("length must be strictly positive")
    if group_index < 1:
        raise DomainError("group index must be at least 1 (vacuum)")
    return constants.light_speed_vacuum / (group_index * length)


def minimum_device_pair_mass(temperature: float, mass: float,
                             constants: PhysicalConstants = CODATA_2018) -> float:
    """Mass of a sender/receiver pair of minimum-size crystalline-silicon cubes.

    Each endpoint is a cube with side equal to the minimum localization
    length; this is the mass model behind the link capacity ceiling.
    """
    side = heisenberg_min_length(temperature, mass, constants)
    return 2.0 * constants.silicon_density * side ** 3


def make_limit_set(temperature: float,
                   mass: float | None = None,
                   link_length: float = 1e-4,
                   group_index: float = 3.0,
                   level: Level = Level.DEVICE,
                   cost_efficiency_axis: float = DEFAULT_COST_EFFICIENCY_AXIS,
                   constants: PhysicalConstants = CODATA_2018) -> LimitSet:
    """Assemble the full per-factor ceiling table for one hierarchy level.

    ``mass`` defaults to the electron mass. ``link_length`` and
    ``group_index`` parameterize the time-of-flight ceiling and only matter
    at link level, where the limit set must be built for the same physical
    length as the link it normalizes.
    """
    if mass is None:
        mass = constants.electron_mass
    level = Level(level)
    energy = landauer_energy(temperature, constants)
    if energy <= 0:
        raise DomainError("limit set requires strictly positive temperature")
    length = heisenberg_min_length(temperature, mass, constants)
    area = length ** 2
    if level is Level.LINK:
        # One transported bit is manipulated at both endpoints.
        energy *= 2.0
        area *= 2.0
    return LimitSet(
        min_energy_j_per_bit=energy,
        max_rate_hz=margolus_levitin_rate(landauer_energy(temperature, constants), constants),
        min_length_m=length,
        min_area_m2=area,
        max_capacity_bps=bremermann_rate(
            minimum_device_pair_mass(temperature, mass, constants), constants),
        max_tof_rate_hz=time_of_flight_rate_limit(link_length, group_index, constants),
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
