import copy
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearfom.errors import DomainError, InfeasibleLinkError
from clearfom.limits import make_limit_set, time_of_flight_rate_limit
from clearfom.link import (
    ComponentRole,
    ElectricalTransport,
    LinkComponent,
    LinkSpec,
    OpticalTransport,
    link_area,
    link_capacity,
    link_cost,
    link_energy_per_bit,
    link_factors,
    p2p_latency,
    repeater_count,
    span_layout,
)
from clearfom.metric import Level, Technology, clear_value, default_floors, radar_scores
from clearfom.validation import load_link_config

_C = 299792458.0


def _optical(length=1e-3, loss=50.0, launch=1e-3, sens=1e-5, wdm=1, cap=5e10,
             components=(), spacing=None, width=5e-7, group_index=3.0, name="opt"):
    return LinkSpec(
        name=name, technology="photonic", length_m=length,
        components=tuple(components),
        transport=OpticalTransport(loss_db_per_m=loss, group_index=group_index,
                                   launch_power_w=launch, detector_sensitivity_w=sens,
                                   wdm_channels=wdm, per_channel_rate_cap_bps=cap),
        cross_section_width_m=width, repeater_spacing_m=spacing)


def _electrical(length=1e-3, lanes=1, c_per_m=1.65e-10, r_per_m=1e5, swing=1.0,
                components=(), width=5e-7, name="elec", spacing=None):
    return LinkSpec(
        name=name, technology="electronic", length_m=length,
        components=tuple(components),
        transport=ElectricalTransport(capacitance_f_per_m=c_per_m,
                                      resistance_ohm_per_m=r_per_m,
                                      voltage_swing_v=swing, lanes=lanes),
        cross_section_width_m=width, repeater_spacing_m=spacing)


def _repeater(energy=6e-14, area=3e-10, cost=0.5, delay=2e-12):
    return LinkComponent(name="rep", role=ComponentRole.REPEATER, bandwidth_hz=1e11,
                         energy_j_per_bit=energy, area_m2=area, cost_usd=cost,
                         delay_s=delay)


def _drawn_component(role):
    # Magnitudes far apart, so a plain left-to-right sum depends on the order.
    amount = st.floats(min_value=1e-18, max_value=1e3)
    return st.builds(LinkComponent, name=st.just("c"), role=role,
                     bandwidth_hz=st.floats(min_value=1e9, max_value=1e11),
                     energy_j_per_bit=amount, area_m2=amount, cost_usd=amount, delay_s=amount)


# A repeater among one to five other components, then the same list permuted.
_component_orders = st.tuples(
    _drawn_component(st.just(ComponentRole.REPEATER)),
    st.lists(_drawn_component(st.sampled_from(ComponentRole)), min_size=1, max_size=5),
).map(lambda drawn: [drawn[0], *drawn[1]]).flatmap(
    lambda parts: st.tuples(st.just(parts), st.permutations(parts)))


class TestRepeaterCount:
    def test_one_millimeter_every_hundred_microns(self):
        link = _optical(length=1e-3, spacing=1e-4, components=[_repeater()])
        assert repeater_count(link) == 9

    def test_length_at_or_below_spacing(self):
        link = _optical(length=1e-4, spacing=1e-4, components=[_repeater()])
        assert repeater_count(link) == 0
        assert repeater_count(_optical(length=5e-5, spacing=1e-4,
                                       components=[_repeater()])) == 0

    def test_one_centimeter(self):
        link = _optical(length=1e-2, spacing=1e-4, components=[_repeater()])
        assert repeater_count(link) == 99

    def test_absent_spacing_means_none(self):
        assert repeater_count(_optical()) == 0

    def test_spacing_requires_repeater_component(self):
        with pytest.raises(DomainError):
            _optical(spacing=1e-4)

    def test_span_layout_covers_link(self):
        link = _optical(length=9.5e-4, spacing=1e-4, components=[_repeater()])
        n, full, tail = span_layout(link)
        assert (n, full) == (10, 1e-4)
        assert math.fsum([full] * (n - 1) + [tail]) == pytest.approx(9.5e-4, rel=1e-12)
        assert 0 < tail <= 1e-4 + 1e-18

    @pytest.mark.parametrize("spacing", [None, 1e-4, 5e-4])
    def test_one_span_is_the_whole_link(self, spacing):
        components = [_repeater()] if spacing else []
        link = _optical(length=1e-4, spacing=spacing, components=components)
        assert span_layout(link) == (1, 1e-4, 1e-4)


class TestCapacity:
    def test_electronic_noc_link_rate(self):
        driver = LinkComponent(name="drv", role=ComponentRole.DRIVER, bandwidth_hz=1.5625e9)
        link = _electrical(lanes=32, components=[driver])
        assert link_capacity(link) == 32 * 1.5625e9 == 5e10

    def test_photonic_two_channels_at_25g(self):
        mod = LinkComponent(name="mod", role=ComponentRole.MODULATOR, bandwidth_hz=1.25e10)
        link = _optical(wdm=2, cap=2.5e10, components=[mod])
        assert link_capacity(link) == 5e10

    def test_budget_violation_flags_failing_span(self):
        link = _optical(length=1e-3, loss=1.5e5, cap=5e10)  # 150 dB over 20 dB budget
        with pytest.raises(InfeasibleLinkError) as excinfo:
            link_capacity(link)
        span = excinfo.value.failing_span
        assert span is not None
        assert span.loss_db > span.budget_db

    def test_first_full_span_is_the_failing_one(self):
        # 1.05 mm repeated every 1 mm: a 25 dB full span, then a 1.25 dB tail.
        link = _optical(length=1.05e-3, loss=2.5e4, components=[_repeater()], spacing=1e-3)
        with pytest.raises(InfeasibleLinkError) as excinfo:
            link_capacity(link)
        span = excinfo.value.failing_span
        assert (span.index, span.length_m, span.loss_db) == (0, 1e-3, 25.0)

    def test_tail_past_the_spacing_bounds_the_link(self):
        # 3e-4 m plus a few ulps snaps to three spans, the tail a hair longer than 1e-4 m.
        length = 0.0003000000000000001
        n, full, tail = span_layout(_optical(length=length, spacing=1e-4,
                                             components=[_repeater()]))
        assert (n, full) == (3, 1e-4) and tail > full
        # 2e5 dB/m closes the 20 dB budget over a full span but not over the tail.
        optical = _optical(length=length, loss=2e5, components=[_repeater()], spacing=1e-4)
        with pytest.raises(InfeasibleLinkError) as excinfo:
            link_capacity(optical)
        assert (excinfo.value.failing_span.index, excinfo.value.failing_span.length_m) == (2, tail)
        rc = 1e7 * 1.65e-10  # RC-limited below the repeater's 1e11 Hz
        electrical = _electrical(length=length, r_per_m=1e7, components=[_repeater()],
                                 spacing=1e-4)
        assert link_capacity(electrical) == 1.0 / (2.0 * math.pi * 0.35 * rc * tail ** 2)

    def test_budget_of_powers_whose_ratio_underflows_is_finite(self):
        link = _optical(launch=1e-300, sens=1e300)  # launch / sens underflows to 0.0
        with pytest.raises(InfeasibleLinkError) as excinfo:
            link_capacity(link)
        assert excinfo.value.failing_span.budget_db == -6000.0

    def test_repeaters_restore_feasibility(self):
        link = _optical(length=1e-3, loss=1.5e5, components=[_repeater()], spacing=1e-4)
        assert link_capacity(link) > 0

    def test_rc_limit_caps_long_electrical_links(self):
        driver = LinkComponent(name="drv", role=ComponentRole.DRIVER, bandwidth_hz=6.25e9)
        short = _electrical(length=1e-4, lanes=8, components=[driver])
        long = _electrical(length=1e-2, lanes=8, components=[driver])
        assert link_capacity(short) == 8 * 6.25e9
        rc = 1e5 * 1.65e-10
        expected = 8.0 / (2.0 * math.pi * 0.35 * rc * 1e-2 ** 2)
        assert link_capacity(long) == pytest.approx(expected, rel=1e-12)
        # Repeated every 1 mm, 1.5 mm is limited by its full span, not its 0.5 mm tail.
        repeated = _electrical(length=1.5e-3, components=[_repeater()], spacing=1e-3)
        assert link_capacity(repeated) == 1.0 / (2.0 * math.pi * 0.35 * rc * 1e-3 ** 2)

    def test_rc_rate_that_underflows_is_infeasible(self):
        link = _electrical(length=1.0, c_per_m=1e200, r_per_m=1e200)  # rc_bw = 1/inf
        with pytest.raises(InfeasibleLinkError,
                           match="RC-limited lane rate underflows to zero") as excinfo:
            link_capacity(link)
        assert excinfo.value.failing_span is None

    def test_capacity_monotone_in_loss_launch_and_channels(self):
        base = _optical(loss=1.99e4, cap=2.5e10)  # ~19.9 dB over 1 mm, near the edge
        assert link_capacity(base) > 0
        worse_loss = _optical(loss=2.1e4, cap=2.5e10)  # 21 dB: the budget cannot close
        with pytest.raises(InfeasibleLinkError):
            link_capacity(worse_loss)
        more_power = _optical(loss=2.1e4, launch=2e-3, cap=2.5e10)
        assert link_capacity(more_power) == link_capacity(base)
        more_channels = _optical(loss=1.99e4, cap=2.5e10, wdm=4)
        assert link_capacity(more_channels) >= link_capacity(base)

    def test_unconstrained_link_rejected(self):
        with pytest.raises(DomainError):
            link_capacity(_optical(cap=None))


class TestLatency:
    def test_photonic_millimeter_time_of_flight(self):
        link = _optical(length=1e-3, group_index=3.0)
        assert p2p_latency(link) == pytest.approx(1.0e-11, rel=1e-3)
        assert p2p_latency(link) == pytest.approx(3.0 * 1e-3 / _C, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(spans=st.integers(min_value=1, max_value=64),
           spacing=st.floats(min_value=1e-6, max_value=1e-3),
           tail_share=st.floats(min_value=0.05, max_value=1.0))
    def test_rc_delay_is_the_fsum_over_every_span(self, spans, spacing, tail_share):
        link = _electrical(length=spacing * (spans - 1 + tail_share), spacing=spacing,
                           components=[_repeater(delay=0.0)])
        n, full, tail = span_layout(link)
        rc = 1e5 * 1.65e-10
        assert p2p_latency(link) == math.fsum([0.38 * rc * full ** 2] * (n - 1)
                                              + [0.38 * rc * tail ** 2])

    def test_a_million_spans_in_bounded_memory(self):
        # 1 mm repeated every 1 nm; a list of its spans would take megabytes.
        link = _electrical(length=1e-3, spacing=1e-9, components=[_repeater(delay=0.0)])
        tracemalloc.start()
        try:
            factors = link_factors(link)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        n, full, tail = span_layout(link)
        assert n == 10 ** 6
        rc = 1e5 * 1.65e-10
        wire = Fraction(0.38 * rc * full ** 2) * (n - 1) + Fraction(0.38 * rc * tail ** 2)
        assert factors.latency == float(wire)

    def test_component_delays_sum(self):
        comps = [LinkComponent(name="a", role=ComponentRole.MODULATOR, delay_s=1e-11),
                 LinkComponent(name="b", role=ComponentRole.DETECTOR, delay_s=5e-12)]
        link = _optical(length=1e-9, components=comps)
        transport = 3.0 * 1e-9 / _C
        assert p2p_latency(link) == pytest.approx(1.5e-11 + transport, rel=1e-12)

    def test_reciprocal_meets_time_of_flight_ceiling(self):
        link = _optical(length=1e-4, group_index=3.0)
        ceiling = time_of_flight_rate_limit(1e-4, 3.0)
        assert 1.0 / p2p_latency(link) == pytest.approx(ceiling, rel=1e-12)
        with_delay = _optical(length=1e-4, group_index=3.0, components=[
            LinkComponent(name="m", role=ComponentRole.MODULATOR, delay_s=1e-12)])
        assert 1.0 / p2p_latency(with_delay) < ceiling

    def test_electrical_rc_delay_per_span(self):
        link = _electrical(length=1e-2)
        rc = 1e5 * 1.65e-10
        assert p2p_latency(link) == pytest.approx(0.38 * rc * 1e-4, rel=1e-12)

    def test_strictly_increasing_in_length(self):
        lengths = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
        optical = [p2p_latency(_optical(length=l)) for l in lengths]
        electrical = [p2p_latency(_electrical(length=l)) for l in lengths]
        assert all(a < b for a, b in zip(optical, optical[1:]))
        assert all(a < b for a, b in zip(electrical, electrical[1:]))

    def test_an_rc_product_past_the_float_range_is_evaluated_per_length(self):
        # R'C' is inf, and at 1e-300 m L^2 underflows to 0.0; R'L times C'L is finite.
        driver = LinkComponent(name="drv", role=ComponentRole.DRIVER, bandwidth_hz=5e10,
                               delay_s=2e-11)
        link = _electrical(length=1e-300, c_per_m=1.7e308, components=[driver])
        assert p2p_latency(link) == pytest.approx(2e-11, rel=1e-12)
        assert link_capacity(link) == 5e10
        longer = link.at_length(1e-160)  # where the R'C'L^2 delay dominates
        wire = Fraction(1e5) * Fraction(1.7e308) * Fraction(1e-160) ** 2 * Fraction(0.38)
        assert p2p_latency(longer) == pytest.approx(2e-11 + float(wire), rel=1e-12)

    def test_repeater_delays_multiply(self):
        link = _optical(length=1e-3, spacing=1e-4, components=[_repeater(delay=2e-12)])
        base = _optical(length=1e-3)
        assert p2p_latency(link) == pytest.approx(p2p_latency(base) + 9 * 2e-12, rel=1e-12)


class TestEnergy:
    def test_centimeter_wire_charging(self):
        link = _electrical(length=1e-2, c_per_m=1.65e-10, swing=1.0)
        energy = link_energy_per_bit(link)
        assert energy == pytest.approx(8.25e-13, rel=1e-12)
        assert energy >= 8.0e-13

    def test_vanishing_length_leaves_component_sum(self):
        comps = [LinkComponent(name="d", role=ComponentRole.DRIVER, energy_j_per_bit=2e-14)]
        link = _electrical(length=1e-30, components=comps)
        assert link_energy_per_bit(link) == pytest.approx(2e-14, rel=1e-9)

    def test_swing_squared_past_the_float_range(self):
        comps = [LinkComponent(name="d", role=ComponentRole.DRIVER, energy_j_per_bit=2e-14)]
        assert link_energy_per_bit(_electrical(swing=1e200, components=comps)) == math.inf
        # A wire without capacitance draws no charging energy at any swing.
        assert link_energy_per_bit(_electrical(swing=1e200, c_per_m=0.0, components=comps)) \
            == 2e-14

    def test_electrical_energy_linear_in_length(self):
        e1 = link_energy_per_bit(_electrical(length=1e-3))
        e2 = link_energy_per_bit(_electrical(length=2e-3))
        e3 = link_energy_per_bit(_electrical(length=3e-3))
        assert e2 - e1 == pytest.approx(e3 - e2, rel=1e-9)

    def test_repeatered_energy_steps_at_span_boundaries(self):
        def energy(length):
            return link_energy_per_bit(_optical(length=length, spacing=1e-4,
                                                components=[_repeater(energy=6e-14)]))
        # Within one span count the laser term is constant, so energy is flat;
        # crossing a span boundary adds exactly one repeater.
        assert energy(1.05e-4) == pytest.approx(energy(1.95e-4), rel=1e-12)
        assert energy(2.05e-4) - energy(1.95e-4) == pytest.approx(6e-14, rel=1e-9)

    def test_optical_amortizes_launch_power(self):
        link = _optical(cap=5e10, launch=1e-3)
        assert link_energy_per_bit(link) == pytest.approx(1e-3 / 5e10, rel=1e-12)

    def test_infeasible_link_raises_with_diagnosis(self):
        link = _optical(length=1e-3, loss=1.5e5)
        with pytest.raises(InfeasibleLinkError) as excinfo:
            link_energy_per_bit(link)
        assert excinfo.value.failing_span is not None


class TestArea:
    def test_transport_rectangle(self):
        assert link_area(_optical(length=1e-3, width=5e-7)) == pytest.approx(5e-10, rel=1e-12)

    def test_linear_growth_without_repeaters(self):
        a1 = link_area(_optical(length=1e-3))
        a2 = link_area(_optical(length=2e-3))
        a3 = link_area(_optical(length=3e-3))
        assert a2 - a1 == pytest.approx(a3 - a2, rel=1e-9)

    def test_electrical_area_counts_lanes(self):
        assert link_area(_electrical(length=1e-3, lanes=32, width=5e-7)) == \
            pytest.approx(32 * 5e-10, rel=1e-12)

    def test_nine_repeaters_counted(self):
        link = _optical(length=1e-3, spacing=1e-4,
                        components=[_repeater(area=3e-10)])
        assert link_area(link) == pytest.approx(5e-10 + 9 * 3e-10, rel=1e-12)


def _clear_and_radar(link, limits):
    """Link CLEAR, and radar scores against floors padded from this link alone."""
    factors = link_factors(link)
    return (clear_value(factors, Level.LINK),
            radar_scores(factors, limits, default_floors([factors])))


class TestLinkClear:
    def _unit_link(self, delay=1.0):
        comps = [LinkComponent(name="x", role=ComponentRole.DRIVER, bandwidth_hz=1.0,
                               energy_j_per_bit=1.0, area_m2=1.0, cost_usd=1.0,
                               delay_s=delay)]
        return _electrical(length=1e-30, lanes=1, c_per_m=0.0, r_per_m=0.0,
                           components=comps, width=0.0)

    def test_unit_factors_give_unit_clear(self):
        value = clear_value(link_factors(self._unit_link()), Level.LINK).value
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_halving_latency_doubles_value(self):
        slow = clear_value(link_factors(self._unit_link(delay=1.0)), Level.LINK).value
        fast = clear_value(link_factors(self._unit_link(delay=0.5)), Level.LINK).value
        assert fast == pytest.approx(2.0 * slow, rel=1e-9)

    def test_infeasible_link_raises(self):
        with pytest.raises(InfeasibleLinkError):
            link_factors(_optical(length=1e-3, loss=1.5e5))

    def test_determinism_bit_identical(self):
        limits = make_limit_set(300.0, link_length=1e-3, level=Level.LINK)
        link = _optical(components=[LinkComponent(name="m", role=ComponentRole.MODULATOR,
                                                  bandwidth_hz=1.25e10, energy_j_per_bit=5e-15,
                                                  area_m2=2e-9, cost_usd=2.0)])
        first_clear, first_radar = _clear_and_radar(link, limits)
        second_clear, second_radar = _clear_and_radar(link, limits)
        assert first_clear.value == second_clear.value
        assert first_radar == second_radar


class TestShippedLinks:
    LENGTHS = (1e-4, 1e-3, 1e-2)

    def test_chip_scale_ordering(self, link_config_path):
        config = load_link_config(link_config_path)
        values = {}
        for spec in config.links:
            factors = link_factors(spec.at_length(1e-2))
            values[spec.name] = factors.capability / (
                factors.latency * factors.energy * factors.amount * factors.resistance)
        assert values["photonic"] > values["plasmonic"]
        assert values["hyppi"] > values["plasmonic"]

    def test_factors_evaluate_capacity_once(self, link_config_path, monkeypatch):
        import clearfom.link as link_module

        links = load_link_config(link_config_path).links
        expected = [(link_capacity(spec), link_energy_per_bit(spec)) for spec in links]
        calls = []
        monkeypatch.setattr(link_module, "link_capacity",
                            lambda link: calls.append(link.name) or link_capacity(link))
        factors = [link_factors(spec) for spec in links]
        assert calls == [spec.name for spec in links]
        assert [(f.capability, f.energy) for f in factors] == expected

    def test_photonic_energy_nearly_length_independent(self, link_config_path):
        config = load_link_config(link_config_path)
        photonic = next(s for s in config.links if s.name == "photonic")
        ratio = link_energy_per_bit(photonic.at_length(1e-2)) / \
            link_energy_per_bit(photonic.at_length(1e-4))
        assert ratio < 1.5

    def test_radar_scores_in_range_and_below_limits(self, link_config_path):
        config = load_link_config(link_config_path)
        for length in self.LENGTHS:
            limits = make_limit_set(config.temperature_k, link_length=length, level=Level.LINK)
            for spec in config.links:
                clear, radar = _clear_and_radar(spec.at_length(length), limits)
                factors = clear.factors
                for score in radar:
                    assert 0.0 <= score <= 1.0
                assert factors.capability <= limits.capability
                assert factors.latency >= limits.latency * (1 - 1e-12)
                assert factors.energy >= limits.energy
                assert factors.amount >= limits.amount
                assert factors.resistance >= limits.resistance

    def test_cost_scales_with_eval_year_curve(self, link_config_path):
        config = load_link_config(link_config_path)
        spec = config.links[0]
        from clearfom.economics import ExperienceCurve
        curved = spec._replace(cost_curve=ExperienceCurve(
            initial_unit_cost=1.0, halving_period=2.0, reference_time=2016.0))
        assert link_cost(curved, eval_year=2018.0) == \
            pytest.approx(link_cost(curved) / 2.0, rel=1e-12)


class TestDerivedCopiesAreChecked:
    """A copy goes through the record's constructor, so it is checked and coerced too."""

    @pytest.mark.parametrize("length", [0.0, -1e-3])
    def test_at_length_refuses_a_non_positive_length(self, length):
        for spec in (_electrical(), _optical()):
            with pytest.raises(DomainError, match="length_m must be strictly positive"):
                spec.at_length(length)

    def test_replace_checks_every_link_record(self):
        with pytest.raises(DomainError, match="length_m must be strictly positive"):
            _optical()._replace(length_m=0.0)
        with pytest.raises(DomainError, match="requires a component with role 'repeater'"):
            _electrical()._replace(repeater_spacing_m=1e-4)
        with pytest.raises(DomainError, match="LinkComponent.cost_usd must be non-negative"):
            _repeater()._replace(cost_usd=-1.0)
        with pytest.raises(DomainError, match="lanes must be at least 1"):
            _electrical().transport._replace(lanes=0)
        with pytest.raises(DomainError, match="group index must be at least 1"):
            _optical().transport._replace(group_index=0.5)

    def test_replace_coerces_like_the_constructor(self):
        spec = _electrical()._replace(technology="hybrid", components=[_repeater()])
        assert spec.technology is Technology.HYBRID
        assert spec.components == (_repeater(),)
        assert _repeater()._replace(role="serdes").role is ComponentRole.SERDES

    @pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace is new in 3.13")
    def test_copy_replace_is_checked_too(self):
        with pytest.raises(DomainError, match="length_m must be strictly positive"):
            copy.replace(_electrical(), length_m=0.0)
        assert copy.replace(_repeater(), role="serdes").role is ComponentRole.SERDES


class TestComponentOrder:
    @settings(max_examples=200, deadline=None)
    @given(_component_orders, st.booleans())
    def test_factors_are_bitwise_invariant_under_permutation(self, orders, optical):
        def build(parts):
            # Repeated every 0.25 mm, so each repeater counts three times.
            link = (_optical if optical else _electrical)(components=parts)
            return link._replace(repeater_spacing_m=2.5e-4)

        listed, permuted = orders
        assert link_factors(build(permuted)) == link_factors(build(listed))
