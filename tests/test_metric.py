import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clearfom.errors import ConfigurationError, DomainError
from clearfom.metric import (
    Axes,
    ClearValue,
    Level,
    clear_value,
    default_floors,
    log_scale_score,
    radar_area,
    radar_scores,
    radar_vertices,
)

_positive = st.floats(min_value=1e-12, max_value=1e12)


def _scores(values):
    return Axes(*values)


class TestClearValue:
    def test_all_ones(self):
        factors = Axes(1.0, 1.0, 1.0, 1.0, 1.0)
        assert clear_value(factors, Level.DEVICE).value == 1.0

    def test_rejects_non_positive_factor(self):
        with pytest.raises(DomainError):
            clear_value(Axes(1.0, 0.0, 1.0, 1.0, 1.0), Level.DEVICE)

    @pytest.mark.parametrize("axis", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_each_factor_outside_the_domain_is_named(self, axis, bad):
        factors = [1.0] * 5
        factors[axis] = bad
        name = Axes._fields[axis]
        with pytest.raises(DomainError) as excinfo:
            clear_value(Axes(*factors), Level.SYSTEM)
        assert str(excinfo.value) == f"factor {name} must be finite and strictly positive"

    def test_finite_factors_whose_sum_overflows_reach_the_range_refusal(self):
        with pytest.raises(DomainError) as excinfo:
            clear_value(Axes(1.0, 1.0, 1.0, 1e308, 1e308), Level.SYSTEM)
        assert str(excinfo.value) == (
            "system CLEAR is outside the floating-point range for factors "
            "capability=1, latency=1, energy=1, amount=1e+308, resistance=1e+308")

    def test_finite_factors_whose_sum_overflows_are_priced(self):
        assert clear_value(Axes(1e308, 1e308, 1.0, 1.0, 1.0), Level.SYSTEM).value == 1.0

    @pytest.mark.parametrize("factors", [
        Axes(1e-300, 1e300, 1.0, 1.0, 1.0),    # quotient underflows to 0.0
        Axes(1e300, 1e-300, 1.0, 1.0, 1.0),    # quotient overflows to inf
        Axes(1.0, 1e-200, 1e-200, 1.0, 1.0),   # cost product underflows to 0.0
    ], ids=["underflow", "overflow", "zero_denominator"])
    def test_rejects_value_outside_float_range(self, factors):
        with pytest.raises(DomainError, match="latency="):
            clear_value(factors, Level.SYSTEM)

    @pytest.mark.parametrize("factors,expected", [
        (Axes(1e300, 1e200, 1e200, 1e-100, 1e-100), 1e100),   # cost product overflows
        (Axes(1e-300, 1e-200, 1e-200, 1e-10, 1.0), 1e110),    # cost product underflows
    ], ids=["product_overflows", "product_underflows"])
    def test_representable_value_survives_cost_product_range(self, factors, expected):
        value = clear_value(factors, Level.DEVICE)
        assert value.value == pytest.approx(expected, rel=1e-15)
        assert ClearValue(value.value, Level.DEVICE, factors) == value

    def test_breakdown_outside_float_range_is_refused(self):
        with pytest.raises(DomainError, match="does not match"):
            ClearValue(5.0, Level.SYSTEM, Axes(1.0, 1e-200, 1e-200, 1.0, 1.0))

    @given(_positive, _positive, _positive, _positive, _positive)
    def test_value_matches_recomputation(self, c, l, e, a, r):
        value = clear_value(Axes(c, l, e, a, r), Level.SYSTEM)
        assert value.value == pytest.approx(c / (l * e * a * r), rel=1e-12)


class TestLogScaleScore:
    def test_limit_scores_one(self):
        assert log_scale_score(1e10, floor=1.0, limit=1e10, bigger_is_better=True) == 1.0

    def test_floor_scores_zero(self):
        assert log_scale_score(1.0, floor=1.0, limit=1e10, bigger_is_better=True) == 0.0

    def test_geometric_mean_scores_half(self):
        floor, limit = 1e-3, 1e9
        mid = math.sqrt(floor * limit)
        assert log_scale_score(mid, floor, limit, bigger_is_better=True) == \
            pytest.approx(0.5, abs=1e-9)

    def test_cost_orientation_flips(self):
        # Smaller is better: the limit sits numerically below the floor.
        assert log_scale_score(1e-9, floor=1.0, limit=1e-9, bigger_is_better=False) == 1.0
        assert log_scale_score(1.0, floor=1.0, limit=1e-9, bigger_is_better=False) == 0.0
        mid = math.sqrt(1.0 * 1e-9)
        assert log_scale_score(mid, 1.0, 1e-9, bigger_is_better=False) == \
            pytest.approx(0.5, abs=1e-9)

    def test_clamped_outside_range(self):
        assert log_scale_score(1e-3, floor=1.0, limit=1e10, bigger_is_better=True) == 0.0
        assert log_scale_score(1e12, floor=1.0, limit=1e10, bigger_is_better=True) == 1.0

    def test_bad_floor_ordering_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            log_scale_score(1.0, floor=10.0, limit=1.0, bigger_is_better=True)
        with pytest.raises(ConfigurationError):
            log_scale_score(1.0, floor=1e-3, limit=1.0, bigger_is_better=False)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_monotone_in_value(self, value):
        floor, limit = 1e-6, 1e6
        better = min(value * 1.5, limit)
        assert log_scale_score(better, floor, limit, bigger_is_better=True) >= \
            log_scale_score(value, floor, limit, bigger_is_better=True)


class TestRadarScores:
    LIMITS = Axes(capability=1e13, latency=1e-9, energy=1e-21, amount=1e-18,
                  resistance=1e-10)
    FLOORS = Axes(capability=1e3, latency=1.0, energy=1e-9, amount=1e-6,
                  resistance=1e2)

    def test_factors_at_limits_score_all_ones(self):
        factors = Axes(1e13, 1e-9, 1e-21, 1e-18, 1e-10)
        scores = radar_scores(factors, self.LIMITS, self.FLOORS)
        assert scores == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_factors_at_floors_score_all_zeros(self):
        factors = Axes(1e3, 1.0, 1e-9, 1e-6, 1e2)
        scores = radar_scores(factors, self.LIMITS, self.FLOORS)
        assert scores == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_score_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError, match="energy outside"):
            radar_area(_scores((0.5, 0.5, 1.5, 0.5, 0.5)))
        with pytest.raises(DomainError, match="latency outside"):
            radar_vertices(_scores((0.5, -0.1, 0.5, 0.5, 0.5)))


class TestRadarArea:
    def test_regular_pentagon(self):
        # Closed form for unit radii: 5 * (1/2) * sin(72 deg).
        expected = 2.5 * math.sin(math.radians(72.0))
        assert radar_area(_scores((1.0,) * 5)) == pytest.approx(expected, rel=1e-12)

    def test_all_zero(self):
        assert radar_area(_scores((0.0,) * 5)) == 0.0

    def test_single_nonzero_axis_has_no_area(self):
        assert radar_area(_scores((0.0, 0.0, 1.0, 0.0, 0.0))) == 0.0

    def test_adjacent_pair_contributes(self):
        assert radar_area(_scores((1.0, 1.0, 0.0, 0.0, 0.0))) == \
            pytest.approx(0.5 * math.sin(math.radians(72.0)), rel=1e-12)


class TestRadarVertices:
    def test_unit_scores_lie_on_unit_circle(self):
        for _axis, score, x, y in radar_vertices(_scores((1.0,) * 5)):
            assert math.hypot(x, y) == pytest.approx(score, rel=1e-9)

    def test_first_axis_points_up(self):
        axis, _score, x, y = radar_vertices(_scores((1.0,) * 5))[0]
        assert axis == "capability"
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(1.0, rel=1e-12)


class TestDefaultFloors:
    def test_margin_pads_worst_values(self):
        sets = [Axes(10.0, 2.0, 3.0, 4.0, 5.0),
                Axes(100.0, 1.0, 1.0, 1.0, 1.0)]
        floors = default_floors(sets)
        assert floors.capability == pytest.approx(1.0)
        assert floors.latency == pytest.approx(20.0)
        assert floors.resistance == pytest.approx(50.0)

    def test_requires_a_factor_set(self):
        with pytest.raises(DomainError):
            default_floors([])
