"""Economic resistance model: unit cost decaying log-linearly with time.

Unit cost follows ``c(t) = c0 * 2^(-(t - t0) / halving_period)``; an infinite
halving period is a flat rate. Fitting is ordinary least squares of
log2(cost) against calendar year (:func:`ols_log2`, shared with the system
growth trend), and both fits return its :class:`GrowthFit`. A flat or rising
series fits a non-negative slope; that is outside the decay model, so the
fit's ``curve`` carries an infinite halving period (flat extrapolation) and
the raw slope stays available on the fit.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import Checked, DomainError, InsufficientDataError
from .ioutil import finite_floats, read_csv

__all__ = [
    "ExperienceCurve",
    "GrowthFit",
    "unit_cost",
    "relative_cost",
    "ols_log2",
    "fit_experience_curve",
    "load_cost_observations",
]


class _ExperienceCurveFields(NamedTuple):
    initial_unit_cost: float
    halving_period: float
    reference_time: float


class ExperienceCurve(Checked, _ExperienceCurveFields):
    """Log-linear unit-cost decay anchored at a reference calendar year."""

    def _check(self):
        if self.initial_unit_cost <= 0:
            raise DomainError("initial_unit_cost must be strictly positive")
        if not self.halving_period > 0:
            raise DomainError("halving_period must be strictly positive (inf allowed)")


def unit_cost(curve: ExperienceCurve, time: float) -> float:
    """Unit cost in USD at fractional calendar year ``time``."""
    if math.isinf(curve.halving_period):
        return curve.initial_unit_cost
    exponent = -(time - curve.reference_time) / curve.halving_period
    try:
        cost = curve.initial_unit_cost * 2.0 ** exponent
    except OverflowError:
        cost = math.inf
    if not 0.0 < cost < math.inf:
        raise DomainError(f"the unit cost in year {time:g} is outside the floating-point range")
    return cost


def relative_cost(curve: ExperienceCurve, time: float) -> float:
    """Cost at ``time`` as a fraction of the reference-time cost."""
    return unit_cost(curve, time) / curve.initial_unit_cost


class GrowthFit(NamedTuple):
    """OLS of log2 values against calendar year; ``r_squared`` is None if they do not vary."""

    slope_log2_per_year: float
    r_squared: float | None
    year_mean: float
    log2_mean: float

    @property
    def intercept(self) -> float:
        """The fitted log2 value at year 0."""
        return self.log2_mean - self.slope_log2_per_year * self.year_mean

    @property
    def annual_factor(self) -> float:
        return 2.0 ** self.slope_log2_per_year

    @property
    def doubling_months(self) -> float:
        slope = self.slope_log2_per_year
        return 12.0 / slope if slope != 0.0 else math.inf

    @property
    def curve(self) -> ExperienceCurve:
        """The unit-cost curve anchored at the mean year; flat for a slope of 0 or more."""
        slope = self.slope_log2_per_year
        return ExperienceCurve(2.0 ** self.log2_mean,
                               -1.0 / slope if slope < 0 else math.inf, self.year_mean)


def ols_log2(years: Sequence[float], log2_values: Sequence[float]) -> GrowthFit:
    """OLS of log2 values against year; refuses fewer than two distinct years.

    Every sum is an :func:`math.fsum`, so the fit does not depend on the order
    of the points.
    """
    if len(set(years)) < 2:
        raise InsufficientDataError("need at least two distinct years")
    n = len(years)
    try:  # an fsum's partial sums, or a squared deviation, past the float range
        year_mean = math.fsum(years) / n
        sxx = math.fsum((t - year_mean) ** 2 for t in years)
    except OverflowError:
        sxx = math.inf
    if not 0.0 < sxx < math.inf:  # too far apart to square, or too close to tell apart
        raise DomainError(f"years {min(years):g} to {max(years):g} leave the fit's float range")
    log_mean = math.fsum(log2_values) / n
    sxy = math.fsum((t - year_mean) * (y - log_mean) for t, y in zip(years, log2_values))
    slope = sxy / sxx

    ss_tot = math.fsum((y - log_mean) ** 2 for y in log2_values)
    ss_res = math.fsum((y - (log_mean + slope * (t - year_mean))) ** 2
                       for t, y in zip(years, log2_values))
    r_squared = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return GrowthFit(slope, r_squared, year_mean, log_mean)


def fit_experience_curve(observations: Sequence[tuple[float, float]]) -> GrowthFit:
    """OLS of log2(cost) against year over (year, cost) pairs, each cost strictly positive."""
    if any(cost <= 0 for _, cost in observations):
        raise DomainError("costs must be strictly positive")
    return ols_log2([year for year, _ in observations],
                    [math.log2(cost) for _, cost in observations])


def load_cost_observations(path: str | Path) -> list[tuple[float, float]]:
    """Read (year, cost) observations from a CSV with header ``year,cost_usd``."""
    return read_csv(path, ("year", "cost_usd"), finite_floats)
