"""Shared CLEAR metric machinery: the five axes, composite values, radar scores.

The composite value is always capability divided by the product of the four
cost factors. What each factor *means* depends on the hierarchy level
(device, link, network, system), so :class:`Axes` carries the generic
capability / latency / energy / amount / resistance names and the evaluators
document the level-specific interpretation. The same five-axis type holds raw
factors, radar floors, physical limits and radar scores.

Radar scores use a log-scale interpolation between a per-axis floor and the
axis' physical limit. Factors routinely sit ten or more orders of magnitude
away from their limits, so a linear scale would pin every real technology
at zero; the log scale is the documented normalization for all radar output.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import Checked, ConfigurationError, DomainError

__all__ = [
    "Level",
    "Technology",
    "Axes",
    "ClearValue",
    "AXIS_NAMES",
    "clear_value",
    "log_scale_score",
    "radar_scores",
    "radar_area",
    "radar_vertices",
    "default_floors",
    "DEFAULT_FLOOR_MARGIN",
]


class Level(str, Enum):
    DEVICE = "device"
    LINK = "link"
    NETWORK = "network"
    SYSTEM = "system"


class Technology(str, Enum):
    ELECTRONIC = "electronic"
    PHOTONIC = "photonic"
    PLASMONIC = "plasmonic"
    HYBRID = "hybrid"


class Axes(NamedTuple):
    """One value per CLEAR axis: raw factors, floors, limits or radar scores.

    As factors, in the natural units of their level: ``capability`` is the
    lone numerator and the other four are costs, so smaller is better for
    them. The latency slot holds a critical length at device level, seconds
    at link level, and clock cycles at network level. As floors, capability
    is the *lowest* value shown and every cost the *largest* (worst); floors
    must be strictly worse than the physical limits. Radar scores lie in
    [0, 1].
    """

    capability: float
    latency: float
    energy: float
    amount: float
    resistance: float


# Fixed axis order for all radar output and polygon geometry.
AXIS_NAMES = Axes._fields
# Radar floors sit a factor of 10 beyond the worst compared factor.
DEFAULT_FLOOR_MARGIN = 10.0


class _ClearValueFields(NamedTuple):
    value: float
    level: Level
    factors: Axes


class ClearValue(Checked, _ClearValueFields):
    """Composite CLEAR scalar plus the factor breakdown it came from."""

    def _check(self):
        recomputed = _quotient(self.factors)
        if math.isinf(recomputed) or abs(self.value - recomputed) > 1e-12 * abs(recomputed):
            raise DomainError("ClearValue.value does not match its factor breakdown")


def _quotient(f: Axes) -> float:
    """capability / (latency * energy * amount * resistance); inf past the float range.

    Outside the cost product's normal range, the mantissas and exponents divide apart.
    """
    denominator = f.latency * f.energy * f.amount * f.resistance
    if sys.float_info.min <= denominator < math.inf:
        return f.capability / denominator
    (mantissa, exponent), *costs = map(math.frexp, f)
    for cost_mantissa, cost_exponent in costs:
        mantissa /= cost_mantissa
        exponent -= cost_exponent
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def clear_value(factors: Axes, level: Level) -> ClearValue:
    # One test for every factor. A bad factor, or finite factors whose sum
    # leaves the float range, goes factor by factor.
    if not (min(factors) > 0.0 and sum(factors) < math.inf):
        for name, value in zip(AXIS_NAMES, factors):
            if not math.isfinite(value) or value <= 0:
                raise DomainError(f"factor {name} must be finite and strictly positive")
    value = _quotient(factors)
    if not 0.0 < value < math.inf:
        named = ", ".join(f"{name}={factor:g}" for name, factor in zip(AXIS_NAMES, factors))
        raise DomainError(f"{level.value} CLEAR is outside the floating-point range "
                          f"for factors {named}")
    return ClearValue(value, level, factors)


def log_scale_score(value: float, floor: float, limit: float, *, bigger_is_better: bool) -> float:
    """Interpolate log10(value) between floor (0) and limit (1), clamped.

    For cost axes the limit is numerically below the floor and smaller values
    score higher; the orientation flag flips the ratio accordingly.
    """
    if value <= 0 or floor < 0 or limit <= 0:
        raise DomainError("radar inputs must be strictly positive")
    # A floor padded past the float range is 0 or inf, or too far from the limit to log.
    ratio = limit / floor if floor else math.inf
    if not 0.0 < ratio < math.inf:
        raise ConfigurationError("floor and limit lie too far apart for the floating-point range")
    if bigger_is_better:
        if floor >= limit:
            raise ConfigurationError("floor must lie below the limit on a capability axis")
        raw = math.log10(value / floor) / math.log10(limit / floor)
    else:
        if floor <= limit:
            raise ConfigurationError("floor must lie above the limit on a cost axis")
        raw = math.log10(floor / value) / math.log10(floor / limit)
    return min(max(raw, 0.0), 1.0)


def radar_scores(factors: Axes, limits: Axes, floors: Axes) -> Axes:
    """Score all five factors against their limits and floors; a refusal names its axis."""
    scores = []
    for name, value, floor, limit in zip(AXIS_NAMES, factors, floors, limits):
        try:
            scores.append(log_scale_score(value, floor, limit,
                                          bigger_is_better=(name == "capability")))
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"radar axis {name}: {exc} (floor {floor:g}, limit {limit:g})") from exc
    return Axes(*scores)


def _checked_scores(scores: Axes) -> Axes:
    for name, score in zip(AXIS_NAMES, scores):
        if not 0.0 <= score <= 1.0:
            raise DomainError(f"radar score {name} outside [0, 1]")
    return scores


def radar_area(scores: Axes) -> float:
    """Area of the pentagon spanned by the five scores at 72 degree spacing.

    Axis order is fixed (capability, latency, energy, amount, resistance);
    the area depends on that order.
    """
    s = _checked_scores(scores)
    step = 2.0 * math.pi / len(s)
    return 0.5 * math.sin(step) * math.fsum(a * b for a, b in zip(s, s[1:] + s[:1]))


def radar_vertices(scores: Axes) -> list[tuple[str, float, float, float]]:
    """Polygon vertices (axis, score, x, y) for coordinate export.

    Vertices start at the top (capability) and proceed clockwise in the
    fixed axis order.
    """
    out = []
    for i, (name, score) in enumerate(zip(AXIS_NAMES, _checked_scores(scores))):
        angle = 0.5 * math.pi - 2.0 * math.pi * i / len(AXIS_NAMES)
        out.append((name, score, score * math.cos(angle), score * math.sin(angle)))
    return out


def default_floors(factor_sets: Iterable[Axes]) -> Axes:
    """Floors from the worst factor in a comparison set, padded by ``DEFAULT_FLOOR_MARGIN``.

    The capability floor sits a factor of the margin below the weakest
    capability; every cost floor sits a factor of the margin above the worst
    cost, so all compared items score strictly inside (0, 1) on every axis.
    """
    columns = list(zip(*factor_sets))
    if not columns:
        raise DomainError("default_floors needs at least one factor set")
    margin = DEFAULT_FLOOR_MARGIN
    return Axes(min(columns[0]) / margin, *(max(column) * margin for column in columns[1:]))
