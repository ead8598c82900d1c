import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clearfom.cli import EXIT_VALIDATION, main
from clearfom.data import example_path
from clearfom.economics import (
    ExperienceCurve,
    fit_experience_curve,
    load_cost_observations,
    ols_log2,
    relative_cost,
    unit_cost,
)
from clearfom.errors import DomainError, InsufficientDataError
from clearfom.trend import fit_growth
from clearfom.validation import load_link_config


def _generate(curve, years, noise=None, rng=None):
    costs = [unit_cost(curve, y) for y in years]
    if noise:
        costs = [c * 2.0 ** rng.normal(0.0, noise) for c, y in zip(costs, years)]
    return list(zip(years, costs))


class TestUnitCost:
    def test_reference_time_returns_initial_cost(self):
        curve = ExperienceCurve(initial_unit_cost=7.5, halving_period=2.0, reference_time=2000.0)
        assert unit_cost(curve, 2000.0) == 7.5

    def test_one_halving_period_halves_cost(self):
        curve = ExperienceCurve(initial_unit_cost=7.5, halving_period=2.0, reference_time=2000.0)
        assert unit_cost(curve, 2002.0) == pytest.approx(3.75, rel=1e-12)

    def test_infinite_halving_period_is_flat(self):
        curve = ExperienceCurve(initial_unit_cost=4.0, halving_period=math.inf,
                                reference_time=1990.0)
        assert unit_cost(curve, 2050.0) == 4.0

    def test_strictly_decreasing_for_finite_period(self):
        curve = ExperienceCurve(initial_unit_cost=1.0, halving_period=3.0, reference_time=2000.0)
        samples = [unit_cost(curve, 2000.0 + k) for k in range(10)]
        assert all(a > b > 0.0 for a, b in zip(samples, samples[1:]))

    def test_relative_cost_is_cost_over_initial(self):
        curve = ExperienceCurve(initial_unit_cost=5.0, halving_period=4.0, reference_time=2010.0)
        assert relative_cost(curve, 2014.0) == pytest.approx(0.5, rel=1e-12)

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            ExperienceCurve(initial_unit_cost=0.0, halving_period=1.0, reference_time=2000.0)
        with pytest.raises(DomainError):
            ExperienceCurve(initial_unit_cost=1.0, halving_period=-2.0, reference_time=2000.0)


class TestFit:
    def test_two_point_exact(self):
        fit = fit_experience_curve([(2000.0, 8.0), (2003.0, 1.0)])
        assert fit.curve.halving_period == pytest.approx(1.0, rel=1e-12)
        assert unit_cost(fit.curve, 2000.0) == pytest.approx(8.0, rel=1e-12)

    def test_constant_series_returns_infinite_sentinel(self):
        fit = fit_experience_curve([(2000.0, 3.0), (2001.0, 3.0), (2002.0, 3.0)])
        assert math.isinf(fit.curve.halving_period)
        assert fit.r_squared is None
        assert unit_cost(fit.curve, 2100.0) == pytest.approx(3.0, rel=1e-12)

    def test_noiseless_round_trip_is_identity(self):
        curve = ExperienceCurve(initial_unit_cost=12.0, halving_period=2.5, reference_time=2005.0)
        fit = fit_experience_curve(_generate(curve, [2000.0 + k for k in range(12)]))
        assert fit.curve.halving_period == pytest.approx(2.5, rel=1e-9)
        assert unit_cost(fit.curve, 2005.0) == pytest.approx(12.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_round_trip_within_ten_percent(self):
        rng = np.random.default_rng(42)
        curve = ExperienceCurve(initial_unit_cost=100.0, halving_period=2.0, reference_time=2000.0)
        observations = _generate(curve, [2000.0 + 0.5 * k for k in range(40)],
                                 noise=math.log2(1.05), rng=rng)
        fit = fit_experience_curve(observations)
        assert fit.curve.halving_period == pytest.approx(2.0, rel=0.10)
        assert fit.r_squared > 0.9

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_experience_curve([(2000.0, 1.0)])
        with pytest.raises(InsufficientDataError):
            fit_experience_curve([(2000.0, 1.0), (2000.0, 2.0)])

    def test_non_positive_cost_rejected(self):
        with pytest.raises(DomainError):
            fit_experience_curve([(2000.0, 1.0), (2001.0, 0.0)])

    @pytest.mark.parametrize("years,shown", [
        ((1e300, -1e300), "years -1e+300 to 1e+300"),         # a squared deviation overflows
        ((1e200, 1.0000000001e200), "years 1e+200 to 1e+200"),
        ((1e308, 1.5e308), "years 1e+308 to 1.5e+308"),       # the year sum overflows
        ((1e-320, 2e-320), "years 9.99989e-321 to 1.99998e-320"),  # the squares underflow to 0
    ], ids=["opposite_huge", "close_huge", "sum_overflows", "subnormal"])
    def test_years_outside_the_float_range_are_a_domain_error(self, years, shown):
        with pytest.raises(DomainError, match=re.escape(f"{shown} leave the fit's float range")):
            ols_log2(years, [0.0, 1.0])
        with pytest.raises(DomainError, match=re.escape(shown)):
            fit_experience_curve([(years[0], 1.0), (years[1], 2.0)])

    def test_rising_series_clamps_to_flat_sentinel_with_raw_slope(self):
        fit = fit_experience_curve([(2000.0, 1.0), (2001.0, 2.0), (2002.0, 4.0)])
        assert math.isinf(fit.curve.halving_period)
        assert fit.slope_log2_per_year == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    def test_cost_scaling_moves_only_initial_cost(self, scale):
        base = [(2000.0, 16.0), (2001.0, 8.0), (2002.0, 4.4), (2003.0, 2.0)]
        scaled = [(y, c * scale) for y, c in base]
        fit_a = fit_experience_curve(base)
        fit_b = fit_experience_curve(scaled)
        assert fit_b.curve.halving_period == pytest.approx(fit_a.curve.halving_period, rel=1e-9)
        assert fit_b.curve.initial_unit_cost == pytest.approx(
            scale * fit_a.curve.initial_unit_cost, rel=1e-9)


class TestCsvObservations:
    def test_round_trip_through_csv(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("year,cost_usd\n2000,8.0\n2003,1.0\n", encoding="utf-8")
        observations = load_cost_observations(path)
        assert observations == [(2000.0, 8.0), (2003.0, 1.0)]
        fit = fit_experience_curve(observations)
        assert fit.curve.halving_period == pytest.approx(1.0, rel=1e-12)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("year,price\n2000,8.0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_cost_observations(path)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("year,cost_usd\n2000,eight\n", encoding="utf-8")
        with pytest.raises(DomainError) as excinfo:
            load_cost_observations(path)
        assert ":2:" in str(excinfo.value)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "costs.csv"
        path.write_text(f"year,cost_usd\n2000,8.0\n2003,{cell}\n", encoding="utf-8")
        with pytest.raises(DomainError, match=f"costs.csv:3: '{cell}' is not a finite number"):
            load_cost_observations(path)


def _ols(observations):
    return ols_log2([year for year, _ in observations],
                    [math.log2(value) for _, value in observations])


class TestOneFit:
    """The cost curve and the system trend are one fit: :func:`ols_log2`'s ``GrowthFit``."""

    def test_both_fits_are_ols_log2_bit_for_bit(self):
        falling = [(2000.0, 16.0), (2001.0, 8.0), (2002.0, 4.4), (2003.0, 2.0)]
        direct = _ols(falling)
        assert direct.r_squared is not None
        for fit in (fit_experience_curve(falling), fit_growth(falling)):
            assert type(fit) is type(direct)
            assert list(map(float.hex, fit)) == list(map(float.hex, direct))

    @pytest.mark.parametrize("costs,curve", [
        ((1.0, 2.0, 4.0), (2.0, math.inf, 2001.0)),
        ((4.0, 4.0, 4.0), (4.0, math.inf, 2001.0)),
        ((16.0, 8.0, 4.0), (8.0, 1.0, 2001.0)),
    ], ids=["rising", "flat", "falling"])
    def test_curve_is_anchored_at_the_mean_year_and_flat_unless_falling(self, costs, curve):
        fit = fit_experience_curve(list(zip((2000.0, 2001.0, 2002.0), costs)))
        assert fit.curve == ExperienceCurve(*curve)

    def test_intercept_is_the_log2_value_at_year_zero(self):
        fit = fit_experience_curve([(2000.0, 16.0), (2001.0, 8.0), (2002.0, 4.0)])
        assert fit.intercept == 3.0 + 2001.0

    @pytest.mark.parametrize("observations", [
        [(1990.0, 2.0)],
        [(1990.0, 2.0), (1990.0, 4.0)],
    ], ids=["one_point", "one_year"])
    def test_one_refusal_of_too_few_points(self, tmp_path, capsys, observations):
        message = "need at least two distinct years"
        for fit in (_ols, fit_experience_curve, fit_growth):
            with pytest.raises(InsufficientDataError) as info:
                fit(observations)
            assert str(info.value) == message
        # The link loader and the trend runner name the CSV in front of it.
        costs = tmp_path / "costs.csv"
        costs.write_text("year,cost_usd\n" + "".join(f"{year},{cost}\n"
                                                      for year, cost in observations),
                         encoding="utf-8")
        doc = json.loads(example_path("links/four_technologies.json").read_text(encoding="utf-8"))
        doc["links"][0]["cost_curve_csv"] = costs.name
        link_config = tmp_path / "link.json"
        link_config.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DomainError) as info:
            load_link_config(link_config)
        assert str(info.value) == f"{costs}: {message}"
        assert type(info.value.__cause__) is InsufficientDataError
        records = tmp_path / "records.csv"
        records.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            + "".join(f"m{k},{year},{mips},1,1,1,1,other\n"
                      for k, (year, mips) in enumerate(observations)), encoding="utf-8")
        trend_config = tmp_path / "trend.json"
        trend_config.write_text(json.dumps({"kind": "trend", "records_csv": records.name}),
                                encoding="utf-8")
        capsys.readouterr()
        assert main(["trend", "--config", str(trend_config),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(f'msg="{records}: {message}"\n')
