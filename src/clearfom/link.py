"""Point-to-point interconnect models and link-level CLEAR.

A link is a transmission line between a sender and a receiver plus the
active devices hanging off it (source, modulator, detector, drivers, serdes,
repeaters). Capacity is a min-of-constraints model rather than a
capacity-achieving SNR integral: device bandwidth caps the symbol rate,
an optional per-channel cap reflects modulation limits, and the optical
power budget is a hard feasibility gate per repeater-to-repeater span.
Binary modulation (1 bit/symbol) is assumed throughout.

Crosstalk and device insertion loss are folded into ``loss_db_per_m`` by
config convention; the span budget check uses propagation loss only.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .constants import LIGHT_SPEED_VACUUM
from .economics import ExperienceCurve, relative_cost
from .errors import Checked, DomainError, InfeasibleLinkError
from .metric import Axes, Technology

__all__ = [
    "ComponentRole",
    "LinkComponent",
    "ElectricalTransport",
    "OpticalTransport",
    "LinkSpec",
    "SpanBudget",
    "repeater_count",
    "span_layout",
    "link_capacity",
    "p2p_latency",
    "link_energy_per_bit",
    "link_area",
    "link_cost",
    "link_factors",
]

# Distributed-RC coefficients: 0.38*R'*C'*L^2 wire delay, and the matching
# rise-time-limited bandwidth 1/(2*pi*0.35*R'*C'*L^2).
RC_DELAY_COEFF = 0.38
RC_BANDWIDTH_COEFF = 0.35


class ComponentRole(str, Enum):
    SOURCE = "source"
    MODULATOR = "modulator"
    DETECTOR = "detector"
    DRIVER = "driver"
    SERDES = "serdes"
    REPEATER = "repeater"


class _LinkComponentFields(NamedTuple):
    name: str
    role: ComponentRole
    bandwidth_hz: float = 0.0  # 0 means "not rate-limiting"
    energy_j_per_bit: float = 0.0
    area_m2: float = 0.0
    cost_usd: float = 0.0
    delay_s: float = 0.0


class LinkComponent(Checked, _LinkComponentFields):
    """One device on the link; repeaters are templates multiplied by count."""

    def _check(self):
        for name in ("bandwidth_hz", "energy_j_per_bit", "area_m2", "cost_usd", "delay_s"):
            if getattr(self, name) < 0:
                raise DomainError(f"LinkComponent.{name} must be non-negative")
        return {"role": ComponentRole(self.role)}


class _ElectricalTransportFields(NamedTuple):
    capacitance_f_per_m: float
    resistance_ohm_per_m: float
    voltage_swing_v: float
    lanes: int = 1


class ElectricalTransport(Checked, _ElectricalTransportFields):
    """Distributed-RC wire bundle; ``lanes`` parallel wires carry one bit each."""

    def _check(self):
        if self.capacitance_f_per_m < 0 or self.resistance_ohm_per_m < 0:
            raise DomainError("wire R' and C' must be non-negative")
        if self.voltage_swing_v <= 0:
            raise DomainError("voltage swing must be strictly positive")
        if self.lanes < 1:
            raise DomainError("lanes must be at least 1")


class _OpticalTransportFields(NamedTuple):
    loss_db_per_m: float
    group_index: float
    launch_power_w: float
    detector_sensitivity_w: float
    wdm_channels: int = 1
    per_channel_rate_cap_bps: float | None = None


class OpticalTransport(Checked, _OpticalTransportFields):
    """Guided optical channel, possibly wavelength-multiplexed."""

    def _check(self):
        if self.loss_db_per_m < 0:
            raise DomainError("loss_db_per_m must be non-negative")
        if self.group_index < 1:
            raise DomainError("group index must be at least 1")
        if self.launch_power_w <= 0 or self.detector_sensitivity_w <= 0:
            raise DomainError("launch power and sensitivity must be strictly positive")
        if self.wdm_channels < 1:
            raise DomainError("wdm_channels must be at least 1")
        if self.per_channel_rate_cap_bps is not None and self.per_channel_rate_cap_bps <= 0:
            raise DomainError("per_channel_rate_cap_bps must be strictly positive")


class _LinkSpecFields(NamedTuple):
    name: str
    technology: Technology
    length_m: float
    components: tuple[LinkComponent, ...]
    transport: ElectricalTransport | OpticalTransport
    cross_section_width_m: float
    repeater_spacing_m: float | None = None
    cost_curve: ExperienceCurve | None = None


class LinkSpec(Checked, _LinkSpecFields):
    """Full parameter sheet for one point-to-point link."""

    def _check(self):
        components = tuple(self.components)
        if not 0 < self.length_m < math.inf:  # a NoC hop's span times its spacing may overflow
            raise DomainError(f"link '{self.name}': length_m must be strictly positive and "
                              f"finite, got {self.length_m:g}")
        if self.cross_section_width_m < 0:
            raise DomainError("cross_section_width_m must be non-negative")
        if self.repeater_spacing_m is not None:
            if self.repeater_spacing_m <= 0:
                raise DomainError("repeater_spacing_m must be strictly positive")
            if not any(c.role is ComponentRole.REPEATER for c in components):
                raise DomainError(f"link '{self.name}': repeater_spacing_m requires a "
                                  "component with role 'repeater'")
            if math.isinf(self.length_m / self.repeater_spacing_m):  # round(inf) raises
                raise DomainError(f"link '{self.name}': {self.length_m:g} m over repeater_spacing_m "
                                  f"{self.repeater_spacing_m:g} is more spans than a float counts")
        return {"technology": Technology(self.technology), "components": components}

    @property
    def is_optical(self) -> bool:
        return isinstance(self.transport, OpticalTransport)

    def at_length(self, length_m: float) -> "LinkSpec":
        return self._replace(length_m=length_m)


class SpanBudget(NamedTuple):
    """Power accounting for one repeater-to-repeater span."""

    index: int
    length_m: float
    loss_db: float
    budget_db: float


def _span_count(length: float, spacing: float) -> int:
    ratio = length / spacing
    nearest = round(ratio)
    # Snap exact multiples that drifted by float rounding, so a 1 mm link
    # repeated every 100 um yields 10 spans, not 11.
    if nearest >= 1 and abs(ratio - nearest) <= 1e-9 * max(1.0, abs(ratio)):
        ratio = float(nearest)
    return max(1, math.ceil(ratio))


def repeater_count(link: LinkSpec) -> int:
    """Intermediate repeaters: ceil(length / spacing) - 1; endpoints excluded."""
    if link.repeater_spacing_m is None:
        return 0
    return _span_count(link.length_m, link.repeater_spacing_m) - 1


def span_layout(link: LinkSpec) -> tuple[int, float, float]:
    """Unrepeated spans, source to sink, as (count, full, tail).

    The first count - 1 spans are ``full`` long and the last, the tail, may
    be shorter. A link of one span is its whole length, both full and tail.
    """
    spacing = link.repeater_spacing_m
    n = 1 if spacing is None else _span_count(link.length_m, spacing)
    full = link.length_m if n == 1 else spacing
    return n, full, link.length_m - full * (n - 1)


def _component_total(link: LinkSpec, field: str) -> float:
    """fsum of ``field`` over the components, a repeater once per site; inf past float range."""
    repeaters = repeater_count(link)
    try:
        return math.fsum(getattr(c, field) * (repeaters if c.role is ComponentRole.REPEATER else 1)
                         for c in link.components)
    except OverflowError:  # the partial sums passed the float range
        return math.inf


def _min_positive_bandwidth(link: LinkSpec) -> float:
    bandwidths = [c.bandwidth_hz for c in link.components if c.bandwidth_hz > 0]
    return min(bandwidths) if bandwidths else math.inf


def _rc_term(coeff: float, t: ElectricalTransport, length: float) -> float:
    """``coeff * R'C' * L^2``, or ``coeff * R'L * C'L`` where R'C' alone overflows."""
    rc = t.resistance_ohm_per_m * t.capacitance_f_per_m
    if math.isinf(rc):  # inf R'C' times an L^2 that underflows to 0.0 would be nan
        return coeff * (t.resistance_ohm_per_m * length) * (t.capacitance_f_per_m * length)
    return coeff * rc * length ** 2


def link_capacity(link: LinkSpec) -> float:
    """Deliverable bit rate in bit/s under the min-of-constraints model.

    Optical: per-channel rate = min(2 * slowest device bandwidth, channel
    cap), times the WDM channel count, gated on the span power budget.
    Electrical: lanes * min(slowest device bandwidth, RC-limited bandwidth
    of the longest unrepeated span). Raises :class:`InfeasibleLinkError`,
    with the failing span, when an optical span cannot close its power
    budget, and without one when an electrical RC-limited lane rate
    underflows to zero.
    """
    device_bw = _min_positive_bandwidth(link)
    if link.is_optical:
        t = link.transport
        budget_db = 10.0 * (math.log10(t.launch_power_w) - math.log10(t.detector_sensitivity_w))
        n, full, tail = span_layout(link)
        # Every span before the tail is full, so span 0 fails first if any of them does.
        for index, span in ((0, full), (n - 1, tail)):
            loss_db = t.loss_db_per_m * span
            if loss_db > budget_db:
                raise InfeasibleLinkError(
                    f"link '{link.name}' cannot close its power budget",
                    failing_span=SpanBudget(index=index, length_m=span,
                                            loss_db=loss_db, budget_db=budget_db))
        per_channel = 2.0 * device_bw
        if t.per_channel_rate_cap_bps is not None:
            per_channel = min(per_channel, t.per_channel_rate_cap_bps)
        if math.isinf(per_channel):
            raise DomainError(
                "optical link needs a device bandwidth or per-channel rate cap")
        return per_channel * t.wdm_channels

    t = link.transport
    rc = t.resistance_ohm_per_m * t.capacitance_f_per_m
    if rc > 0:
        longest = max(span_layout(link)[1:])
        try:
            rc_product = _rc_term(2.0 * math.pi * RC_BANDWIDTH_COEFF, t, longest)
        except OverflowError:  # float ** raises where * would give inf
            rc_product = math.inf
        # Past the float range the RC bandwidth is zero; below it, no limit.
        rc_bw = 1.0 / rc_product if rc_product > 0 else math.inf
    else:
        rc_bw = math.inf
    lane_rate = min(device_bw, rc_bw)
    if math.isinf(lane_rate):
        raise DomainError("electrical link needs a device bandwidth or RC constraint")
    if lane_rate <= 0:
        raise InfeasibleLinkError(
            f"link '{link.name}': the RC-limited lane rate underflows to zero")
    return t.lanes * lane_rate


def p2p_latency(link: LinkSpec) -> float:
    """Source-to-detector time of flight for one bit, in seconds; inf past the float range."""
    delay = _component_total(link, "delay_s")
    if link.is_optical:
        return delay + link.transport.group_index * link.length_m / LIGHT_SPEED_VACUUM
    t = link.transport
    n, full, tail = span_layout(link)
    try:  # float ** and fsum raise where * and + would give inf
        # The n - 1 full spans as exact power-of-two multiples, so fsum rounds once.
        full_delay = _rc_term(RC_DELAY_COEFF, t, full)
        terms = [full_delay * 2.0 ** k for k in range((n - 1).bit_length()) if (n - 1) >> k & 1]
        return delay + math.fsum(terms + [_rc_term(RC_DELAY_COEFF, t, tail)])
    except OverflowError:  # a wire without RC has no RC delay at any length
        return math.inf if t.resistance_ohm_per_m * t.capacitance_f_per_m else delay


def link_energy_per_bit(link: LinkSpec) -> float:
    """Energy drawn per transported bit by all devices plus the transport term.

    Electrical transport charges the wire: 0.5 * C' * L * V^2 per bit.
    Optical transport amortizes the continuous launch power over the link
    capacity; repeater re-launch energy belongs to the repeater component.
    """
    return _energy_per_bit(link, link_capacity(link) if link.is_optical else None)


def _energy_per_bit(link: LinkSpec, capacity: float | None) -> float:
    """:func:`link_energy_per_bit` given the ``link_capacity`` of an optical link."""
    energy = _component_total(link, "energy_j_per_bit")
    if link.is_optical:
        return energy + link.transport.launch_power_w / capacity
    t = link.transport
    try:  # float ** raises where * would give inf
        return energy + 0.5 * t.capacitance_f_per_m * link.length_m * t.voltage_swing_v ** 2
    except OverflowError:  # a wire without C' draws no energy at any swing
        return math.inf if t.capacitance_f_per_m else energy


def link_area(link: LinkSpec) -> float:
    """Device footprints plus the transport strip (per-lane for wires)."""
    area = _component_total(link, "area_m2")
    lanes = 1 if link.is_optical else link.transport.lanes
    return area + link.cross_section_width_m * link.length_m * lanes


def link_cost(link: LinkSpec, eval_year: float | None = None) -> float:
    """Total component cost in USD, optionally scaled to the evaluation year."""
    cost = _component_total(link, "cost_usd")
    if cost <= 0:
        raise DomainError(f"link '{link.name}' has no positive component cost")
    if eval_year is not None and link.cost_curve is not None:
        cost *= relative_cost(link.cost_curve, eval_year)
    return cost


def link_factors(link: LinkSpec, eval_year: float | None = None) -> Axes:
    capacity = link_capacity(link)
    return Axes(
        capability=capacity,
        latency=p2p_latency(link),
        energy=_energy_per_bit(link, capacity),
        amount=link_area(link),
        resistance=link_cost(link, eval_year),
    )

