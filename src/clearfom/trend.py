"""System-level CLEAR for historical machines and its growth trend.

A machine's capability is its weighted MIPS rating; the cost factors are the
clock period, energy per bit, cabinet volume, and purchase price. The growth
fit is ordinary least squares of log2(CLEAR) against calendar year, reported
as a doubling time in months.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

from .constants import DEFAULT_TREND_BAND_DB
from .economics import GrowthFit, ols_log2
from .errors import Checked, DomainError
from .ioutil import finite_floats, read_csv
from .limits import landauer_energy
from .metric import Axes, ClearValue, Level, clear_value

__all__ = [
    "SystemClass",
    "SystemRecord",
    "EfficiencyPoint",
    "TrendPosition",
    "system_clear",
    "fit_growth",
    "predict_log2_clear",
    "efficiency_point",
    "classify_vs_trend",
    "load_system_records",
]

_DB_PER_LOG2 = 10.0 * math.log10(2.0)

# Bits per joule at the room-temperature Landauer erase energy.
_LANDAUER_CEILING = 1.0 / landauer_energy(300.0)


class SystemClass(str, Enum):
    MAINFRAME = "mainframe"
    PERSONAL = "personal"
    SUPERCOMPUTER = "supercomputer"
    OPTICAL_PROJECTION = "optical_projection"
    OTHER = "other"


# Each class by its CSV name.
_CLASSES = {member.value: member for member in SystemClass}


class _SystemRecordFields(NamedTuple):
    name: str
    year: float
    mips: float
    clock_period_s: float
    energy_j_per_bit: float
    volume_m3: float
    cost_usd: float
    system_class: SystemClass = SystemClass.OTHER


# The five quantities of a SystemRecord, mips to cost_usd, which are in Axes order,
# and its numbers: the year and those quantities.
_QUANTITIES = slice(2, 7)
_NUMBERS = slice(1, 7)


class SystemRecord(Checked, _SystemRecordFields):
    def _check(self):
        # One test for every number. A bad number, or finite numbers whose sum
        # leaves the float range, goes field by field.
        if not (min(self[_QUANTITIES]) > 0 and math.isfinite(sum(self[_NUMBERS]))):
            for field_name, value in zip(self._fields[_NUMBERS], self[_NUMBERS]):
                if not math.isfinite(value):
                    raise DomainError(f"SystemRecord.{field_name} must be finite")
                if value <= 0 and field_name != "year":
                    raise DomainError(f"SystemRecord.{field_name} must be strictly positive")
        if type(self.system_class) is not SystemClass:
            try:
                return {"system_class": _CLASSES[self.system_class]}
            except (KeyError, TypeError):  # not a class name, or not even hashable
                raise DomainError(f"class {self.system_class!r} must be one of "
                                  f"{', '.join(_CLASSES)}") from None


def system_clear(record: SystemRecord) -> ClearValue:
    """MIPS over clock period, energy per bit, volume, and price."""
    return clear_value(Axes._make(record[_QUANTITIES]), Level.SYSTEM)


def fit_growth(observations: Sequence[tuple[float, float]]) -> GrowthFit:
    """OLS of log2(system CLEAR) against year, unweighted, over (year, CLEAR) pairs."""
    fit = ols_log2([year for year, _ in observations],
                   [math.log2(clear) for _, clear in observations])
    slope = fit.slope_log2_per_year
    if not -1075.0 < slope < 1024.0:  # exactly where 2 ** slope, the annual factor, is 0 or inf
        raise DomainError(f"a growth of {slope:g} doublings a year leaves the float range")
    return fit


def predict_log2_clear(fit: GrowthFit, year: float) -> float:
    return fit.intercept + fit.slope_log2_per_year * year


class EfficiencyPoint(NamedTuple):
    """One machine on the efficiency plane.

    ``computational_efficiency`` is bits per second, cubic meter, and dollar
    (one bit per clock period); ``energy_efficiency`` is bits per joule.
    ``landauer_fraction`` compares the latter against the room-temperature
    erase ceiling.
    """

    computational_efficiency: float
    energy_efficiency: float
    landauer_fraction: float


def efficiency_point(record: SystemRecord) -> EfficiencyPoint:
    energy_efficiency = 1.0 / record.energy_j_per_bit
    computational = 1.0 / (record.clock_period_s * record.volume_m3 * record.cost_usd)
    return EfficiencyPoint(computational, energy_efficiency,
                           energy_efficiency / _LANDAUER_CEILING)


class TrendPosition(str, Enum):
    ABOVE = "above"
    ON = "on"
    BELOW = "below"


def classify_vs_trend(year: float, clear: float, fit: GrowthFit,
                      band_db: float = DEFAULT_TREND_BAND_DB) -> TrendPosition:
    """Place a system CLEAR of ``year`` relative to the fitted line within a +/- dB band."""
    if band_db < 0:
        raise DomainError("band_db must be non-negative")
    residual_log2 = math.log2(clear) - predict_log2_clear(fit, year)
    residual_db = residual_log2 * _DB_PER_LOG2
    if residual_db > band_db:
        return TrendPosition.ABOVE
    if residual_db < -band_db:
        return TrendPosition.BELOW
    return TrendPosition.ON


# In SystemRecord field order.
_CSV_FIELDS = ("name", "year", "mips", "clock_period_s", "energy_j_per_bit",
               "volume_m3", "cost_usd", "class")


def _record(cells: list[str]) -> SystemRecord:
    name, *numbers, system_class = cells
    # A known class name is coerced here, so the record is built once; an unknown
    # one is refused by SystemRecord, after its quantities.
    return SystemRecord(name, *finite_floats(numbers), _CLASSES.get(system_class, system_class))


def load_system_records(path: str | Path) -> list[SystemRecord]:
    """Read records from the documented CSV layout; raises DomainError on bad rows."""
    return read_csv(path, _CSV_FIELDS, _record)
