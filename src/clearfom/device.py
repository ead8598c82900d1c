"""Device-level CLEAR: operating frequency against length, energy, area, cost.

At this level the latency factor is the critical scaling length of the
device (gate length, ring diameter, active-layer side), which is deliberately
independent of the footprint: length measures how compactly the device
delivers its function, footprint measures the silicon it occupies.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Checked, DomainError
from .metric import Axes, ClearValue, Level, Technology, clear_value, radar_scores

__all__ = ["DeviceSpec", "device_clear", "device_factors", "radar_normalize"]


class _DeviceSpecFields(NamedTuple):
    name: str
    technology: Technology
    capability_hz: float
    critical_length_m: float
    energy_j_per_bit: float
    footprint_m2: float
    unit_cost_usd: float


class DeviceSpec(Checked, _DeviceSpecFields):
    """Declarative parameter sheet for a single device."""

    def _check(self):
        for field_name in ("capability_hz", "critical_length_m", "energy_j_per_bit",
                           "footprint_m2", "unit_cost_usd"):
            if getattr(self, field_name) <= 0:
                raise DomainError(f"DeviceSpec.{field_name} must be strictly positive")
        return {"technology": Technology(self.technology)}

    def limit_violations(self, limits: Axes) -> list[str]:
        """Report factors that claim to beat a device-level limit; never clamps."""
        problems = []
        if self.energy_j_per_bit < limits.energy:
            problems.append("energy_j_per_bit below the minimum switching energy")
        if self.critical_length_m < limits.latency:
            problems.append("critical_length_m below the minimum localization length")
        if self.footprint_m2 < limits.amount:
            problems.append("footprint_m2 below the minimum device area")
        if self.capability_hz > limits.capability:
            problems.append("capability_hz above the maximum transition rate")
        return problems


def device_factors(spec: DeviceSpec) -> Axes:
    return Axes(
        capability=spec.capability_hz,
        latency=spec.critical_length_m,
        energy=spec.energy_j_per_bit,
        amount=spec.footprint_m2,
        resistance=spec.unit_cost_usd,
    )


def device_clear(spec: DeviceSpec) -> ClearValue:
    """Composite device CLEAR: frequency / (length * energy * area * cost)."""
    return clear_value(device_factors(spec), Level.DEVICE)


def radar_normalize(spec: DeviceSpec, limits: Axes, floors: Axes) -> Axes:
    """Radar scores for one device against the device-level ``limits``."""
    return radar_scores(device_factors(spec), limits, floors)
