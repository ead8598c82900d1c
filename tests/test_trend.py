import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clearfom.errors import DomainError, InsufficientDataError
from clearfom.limits import landauer_energy
from clearfom.trend import (
    SystemClass,
    SystemRecord,
    TrendPosition,
    classify_vs_trend,
    efficiency_point,
    fit_growth,
    load_system_records,
    predict_log2_clear,
    system_clear,
)

_positive = st.floats(min_value=1e-9, max_value=1e9)

_HEADER = "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
_NUMERIC_COLUMNS = ("year", "mips", "clock_period_s", "energy_j_per_bit", "volume_m3",
                    "cost_usd")
_CLASS_NAMES = "mainframe, personal, supercomputer, optical_projection, other"


def _record(**overrides):
    base = dict(name="m", year=2000.0, mips=1.0, clock_period_s=1.0,
                energy_j_per_bit=1.0, volume_m3=1.0, cost_usd=1.0)
    base.update(overrides)
    return SystemRecord(**base)


def _observation(record):
    return record.year, system_clear(record).value


def _observations(records):
    return [_observation(record) for record in records]


def _doubling_series(years, per_year=2.0, noise=None, rng=None):
    records = []
    for year in years:
        value = per_year ** (year - years[0])
        if noise is not None:
            value *= 2.0 ** rng.normal(0.0, noise)
        records.append(_record(name=f"m{year}", year=float(year), mips=value))
    return records


class TestSystemClear:
    def test_unit_factors(self):
        assert system_clear(_record()).value == 1.0

    def test_doubling_volume_halves_value(self):
        assert system_clear(_record(volume_m3=2.0)).value == pytest.approx(0.5, rel=1e-12)

    def test_linear_in_mips(self):
        a = system_clear(_record(mips=3.0))
        b = system_clear(_record(mips=30.0))
        assert b.value == pytest.approx(10.0 * a.value, rel=1e-12)

    def test_non_positive_factor_rejected(self):
        with pytest.raises(DomainError):
            _record(cost_usd=0.0)


class TestFitGrowth:
    def test_exact_doubling_per_year(self):
        records = _doubling_series(range(2000, 2011))
        fit = fit_growth(_observations(records))
        assert fit.doubling_months == 12.0
        assert fit.r_squared == 1.0
        assert fit.annual_factor == pytest.approx(2.0, rel=1e-12)

    def test_exact_quadrupling_per_year(self):
        records = _doubling_series(range(2000, 2011), per_year=4.0)
        assert fit_growth(_observations(records)).doubling_months == pytest.approx(6.0, rel=1e-12)

    def test_exact_halving_per_year_has_negative_doubling_time(self):
        records = _doubling_series(range(2000, 2011), per_year=0.5)
        assert fit_growth(_observations(records)).doubling_months == -12.0

    def test_noisy_series_recovers_doubling_time(self):
        rng = np.random.default_rng(9)
        records = _doubling_series(range(1980, 2010), noise=math.log2(1.10), rng=rng)
        fit = fit_growth(_observations(records))
        assert 10.8 <= fit.doubling_months <= 13.2
        assert fit.r_squared > 0.95

    def test_insufficient_records(self):
        with pytest.raises(InsufficientDataError):
            fit_growth(_observations([_record()]))
        with pytest.raises(InsufficientDataError):
            fit_growth(_observations([_record(name="a"), _record(name="b")]))

    @pytest.mark.parametrize("first,fails", [(-511, False), (-512, True)])
    def test_annual_factor_past_the_float_range_is_a_domain_error(self, first, fails):
        # From 2 ** first to 2 ** 512 in a year: 1023 or 1024 doublings, exactly.
        observations = [(2000.0, 2.0 ** first), (2001.0, 2.0 ** 512)]
        if fails:
            with pytest.raises(DomainError, match="1024 doublings a year leaves the float range"):
                fit_growth(observations)
        else:
            assert fit_growth(observations).annual_factor == 2.0 ** 1023

    @pytest.mark.parametrize("last,fails", [(-537, False), (-538, True)])
    def test_annual_factor_that_underflows_is_a_domain_error(self, last, fails):
        # From 2 ** 537 to 2 ** last in a year: -1074 or -1075 doublings, exactly;
        # 2 ** -1075 rounds to 0.0.
        observations = [(2000.0, 2.0 ** 537), (2001.0, 2.0 ** last)]
        if fails:
            with pytest.raises(DomainError,
                               match="-1075 doublings a year leaves the float range"):
                fit_growth(observations)
        else:
            assert fit_growth(observations).annual_factor == 2.0 ** -1074

    def test_rescaling_clear_shifts_only_intercept(self):
        records = _doubling_series(range(2000, 2011))
        scaled = [SystemRecord(name=r.name, year=r.year, mips=r.mips * 64.0,
                               clock_period_s=r.clock_period_s,
                               energy_j_per_bit=r.energy_j_per_bit,
                               volume_m3=r.volume_m3, cost_usd=r.cost_usd)
                  for r in records]
        fit_a = fit_growth(_observations(records))
        fit_b = fit_growth(_observations(scaled))
        assert fit_b.doubling_months == pytest.approx(fit_a.doubling_months, rel=1e-12)
        assert fit_b.intercept - fit_a.intercept == pytest.approx(6.0, abs=1e-6)


class TestEfficiencyPoint:
    def test_energy_efficiency_is_reciprocal(self):
        point = efficiency_point(_record(energy_j_per_bit=1e-12))
        assert point.energy_efficiency == pytest.approx(1e12, rel=1e-12)

    def test_landauer_record_hits_fraction_one(self):
        limit = landauer_energy(300.0)
        point = efficiency_point(_record(energy_j_per_bit=limit))
        assert point.landauer_fraction == pytest.approx(1.0, rel=1e-12)
        assert 1.0 / limit == pytest.approx(3.48e20, rel=0.01)  # the 1e20 bit/J scale

    @given(_positive, _positive, _positive, _positive, _positive)
    def test_product_reproduces_system_clear(self, mips, period, energy, volume, cost):
        record = _record(mips=mips, clock_period_s=period, energy_j_per_bit=energy,
                         volume_m3=volume, cost_usd=cost)
        point = efficiency_point(record)
        product = record.mips * point.computational_efficiency * point.energy_efficiency
        assert product == pytest.approx(system_clear(record).value, rel=1e-9)


class TestClassify:
    def _fit(self):
        return fit_growth(_observations(_doubling_series(range(2000, 2011))))

    def test_on_the_line(self):
        fit = self._fit()
        on_line = _observation(_record(mips=2.0 ** 5, year=2005.0))
        assert classify_vs_trend(*on_line, fit) is TrendPosition.ON

    def test_tenfold_shortfall_with_three_db_band(self):
        fit = self._fit()
        low = _record(mips=2.0 ** 5 / 10.0, year=2005.0)
        assert classify_vs_trend(*_observation(low), fit, band_db=3.0) is TrendPosition.BELOW

    def test_supercomputer_style_record_falls_below(self):
        fit = self._fit()
        heavy = _record(mips=2.0 ** 5 * 10.0, year=2005.0, volume_m3=500.0, cost_usd=100.0)
        assert classify_vs_trend(*_observation(heavy), fit) is TrendPosition.BELOW

    def test_monotone_in_residual(self):
        fit = self._fit()
        positions = [classify_vs_trend(2005.0, 2.0 ** 5 * f, fit) for f in (0.01, 1.0, 100.0)]
        assert positions == [TrendPosition.BELOW, TrendPosition.ON, TrendPosition.ABOVE]

    def test_prediction_line(self):
        fit = self._fit()
        assert predict_log2_clear(fit, 2005.0) == pytest.approx(5.0, abs=1e-9)


class TestCsvIngestion:
    @pytest.mark.parametrize("row", ["x,2000,nan,1.0,1.0,1.0,1.0,other",
                                     "x,2000,1.0,1.0,1.0,1.0,1e400,other"])
    def test_non_finite_cell_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            f"{row}\n", encoding="utf-8")
        with pytest.raises(DomainError, match="bad.csv:2: .* is not a finite number"):
            load_system_records(path)

    def test_sample_loads_and_fits(self, sample_records_path):
        records = load_system_records(sample_records_path)
        assert len(records) >= 10
        fit = fit_growth(_observations(records))
        assert 9.0 <= fit.doubling_months <= 15.0
        assert fit.r_squared > 0.9
        supers = [r for r in records if r.system_class.value == "supercomputer"]
        assert supers
        for record in supers:
            assert classify_vs_trend(*_observation(record), fit) is TrendPosition.BELOW

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,year\nx,2000\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_system_records(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            "x,2000,1.0,1.0,1.0,1.0,1.0,nonsense\n", encoding="utf-8")
        with pytest.raises(DomainError) as excinfo:
            load_system_records(path)
        assert ":2:" in str(excinfo.value)


def _refusal(tmp_path, **cells):
    """The message that refuses one row of unit quantities with ``cells`` replaced."""
    row = {"name": "x", "year": "2000", "mips": "1", "clock_period_s": "1",
           "energy_j_per_bit": "1", "volume_m3": "1", "cost_usd": "1", "system_class": "other"}
    row.update(cells)
    path = tmp_path / "r.csv"
    path.write_text(_HEADER + ",".join(row.values()) + "\n", encoding="utf-8")
    with pytest.raises(DomainError) as excinfo:
        load_system_records(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}:2: ")
    return message.removeprefix(f"{path}:2: ")


class TestRowRefusals:
    """Each refused record row names its line and the cell at fault, exactly."""

    @pytest.mark.parametrize("column", _NUMERIC_COLUMNS)
    @pytest.mark.parametrize("cell,message", [
        ("abc", "could not convert string to float: 'abc'"),
        ("", "could not convert string to float: ''"),
        ("nan", "'nan' is not a finite number"),
        ("inf", "'inf' is not a finite number"),
        ("-inf", "'-inf' is not a finite number"),
        ("1e400", "'1e400' is not a finite number"),
    ])
    def test_a_cell_that_is_not_a_finite_number(self, tmp_path, column, cell, message):
        assert _refusal(tmp_path, **{column: cell}) == message

    @pytest.mark.parametrize("column", _NUMERIC_COLUMNS[1:])
    @pytest.mark.parametrize("cell", ["0", "-0.0", "-1"])
    def test_a_quantity_that_is_not_strictly_positive(self, tmp_path, column, cell):
        assert (_refusal(tmp_path, **{column: cell})
                == f"SystemRecord.{column} must be strictly positive")

    @pytest.mark.parametrize("cells,message", [
        (dict(year="abc", cost_usd="nan"), "could not convert string to float: 'abc'"),
        (dict(mips="nan", cost_usd="abc"), "'nan' is not a finite number"),
        (dict(energy_j_per_bit="1e400", volume_m3="inf"), "'1e400' is not a finite number"),
        (dict(mips="0", cost_usd="-1"), "SystemRecord.mips must be strictly positive"),
        (dict(clock_period_s="-1", volume_m3="0"),
         "SystemRecord.clock_period_s must be strictly positive"),
        # A cell that is not a finite number is named before a non-positive one,
        # and a non-positive one before the class.
        (dict(mips="0", clock_period_s="nan"), "'nan' is not a finite number"),
        (dict(system_class="Other", cost_usd="inf"), "'inf' is not a finite number"),
        (dict(system_class="Other", cost_usd="0"),
         "SystemRecord.cost_usd must be strictly positive"),
    ], ids=["unparsable_then_nan", "nan_then_unparsable", "overflow_then_inf",
            "zero_then_negative", "negative_then_zero", "zero_then_nan",
            "inf_then_unknown_class", "zero_then_unknown_class"])
    def test_of_two_bad_cells_the_left_most_is_named(self, tmp_path, cells, message):
        assert _refusal(tmp_path, **cells) == message

    def test_finite_cells_whose_sum_overflows_load(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(_HEADER + "x,2000,1e308,1,1,1,1e308,other\n", encoding="utf-8")
        (record,) = load_system_records(path)
        assert record.mips == record.cost_usd == 1e308

    @pytest.mark.parametrize("column", _NUMERIC_COLUMNS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_record_built_directly_refuses_a_number_that_is_not_finite(self, column, value):
        with pytest.raises(DomainError) as excinfo:
            _record(**{column: value})
        assert str(excinfo.value) == f"SystemRecord.{column} must be finite"

    def test_a_record_built_directly_names_the_left_most_bad_number(self):
        with pytest.raises(DomainError) as excinfo:
            _record(mips=0.0, energy_j_per_bit=math.nan)
        assert str(excinfo.value) == "SystemRecord.mips must be strictly positive"
        with pytest.raises(DomainError) as excinfo:
            _record(clock_period_s=math.inf, volume_m3=-1.0)
        assert str(excinfo.value) == "SystemRecord.clock_period_s must be finite"

    def test_a_record_built_directly_whose_numbers_sum_past_the_range_loads(self):
        record = _record(mips=1e308, cost_usd=1e308)
        assert record.mips == record.cost_usd == 1e308

    def test_an_unknown_class_lists_the_known_ones(self, tmp_path):
        assert (_refusal(tmp_path, system_class="Other")
                == f"class 'Other' must be one of {_CLASS_NAMES}")

    def test_a_record_built_directly_refuses_an_unknown_class_alike(self):
        with pytest.raises(DomainError) as excinfo:
            _record(system_class="Other")
        assert str(excinfo.value) == f"class 'Other' must be one of {_CLASS_NAMES}"

    def test_a_record_built_directly_takes_a_class_name(self):
        record = _record(system_class="supercomputer")
        assert record.system_class is SystemClass.SUPERCOMPUTER
        assert _record(system_class=SystemClass.PERSONAL).system_class is SystemClass.PERSONAL
