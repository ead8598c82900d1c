import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clearfom.constants import (
    BOLTZMANN_K,
    ELECTRON_MASS,
    LIGHT_SPEED_VACUUM,
    PLANCK_H,
    REDUCED_PLANCK,
    SILICON_DENSITY,
)
from clearfom.errors import DomainError
from clearfom.limits import (
    bremermann_rate,
    heisenberg_min_length,
    landauer_energy,
    make_limit_set,
    margolus_levitin_rate,
    minimum_device_pair_mass,
    time_of_flight_rate_limit,
)
from clearfom.metric import Level

# Independent oracle values, computed from raw CODATA literals (not via the
# package's constants table).
_C = 299792458.0
_H = 6.62607015e-34
_K = 1.380649e-23
_ME = 9.1093837015e-31
_BREMERMANN_1KG = _C ** 2 / _H  # 1.3563924896521321e+50


def test_constants_reduced_planck_relation():
    assert abs(REDUCED_PLANCK - PLANCK_H / (2 * math.pi)) <= 1e-12 * REDUCED_PLANCK


class TestLandauer:
    def test_room_temperature_value(self):
        assert landauer_energy(300.0) == pytest.approx(2.87e-21, rel=0.01)

    def test_zero_temperature(self):
        assert landauer_energy(0.0) == 0.0

    def test_linear_in_temperature(self):
        assert landauer_energy(600.0) == 2.0 * landauer_energy(300.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(DomainError):
            landauer_energy(-1.0)

    @given(st.floats(min_value=1e-3, max_value=1e4),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_degree_one_homogeneity(self, temperature, scale):
        scaled = landauer_energy(temperature * scale)
        assert scaled == pytest.approx(scale * landauer_energy(temperature), rel=1e-12)


class TestMargolusLevitin:
    def test_exceeds_sixteen_thz_at_landauer_energy(self):
        rate = margolus_levitin_rate(landauer_energy(300.0))
        assert rate > 1.6e13
        assert 1.6e13 < rate < 1.8e13

    def test_quarter_planck_gives_one_hertz(self):
        assert margolus_levitin_rate(PLANCK_H / 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_energy_doubles_rate(self):
        assert margolus_levitin_rate(2e-21) == 2.0 * margolus_levitin_rate(1e-21)

    def test_non_positive_energy_rejected(self):
        with pytest.raises(DomainError):
            margolus_levitin_rate(0.0)

    @given(st.floats(min_value=1e-25, max_value=1e-15),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_degree_one_homogeneity(self, energy, scale):
        assert margolus_levitin_rate(energy * scale) == pytest.approx(
            scale * margolus_levitin_rate(energy), rel=1e-12)


class TestHeisenberg:
    def test_room_temperature_electron(self):
        length = heisenberg_min_length(300.0, ELECTRON_MASS)
        assert length == pytest.approx(1.5e-9, rel=0.05)

    def test_quadruple_mass_halves_length(self):
        base = heisenberg_min_length(300.0, _ME)
        assert heisenberg_min_length(300.0, 4.0 * _ME) == pytest.approx(base / 2.0, rel=1e-12)

    def test_quadruple_temperature_halves_length(self):
        base = heisenberg_min_length(300.0, _ME)
        assert heisenberg_min_length(1200.0, _ME) == pytest.approx(base / 2.0, rel=1e-12)

    def test_non_positive_inputs_rejected(self):
        with pytest.raises(DomainError):
            heisenberg_min_length(0.0, _ME)
        with pytest.raises(DomainError):
            heisenberg_min_length(300.0, 0.0)

    @given(st.floats(min_value=1.0, max_value=1e4))
    def test_sqrt_temperature_product_constant(self, temperature):
        reference = heisenberg_min_length(300.0, _ME) * math.sqrt(300.0)
        value = heisenberg_min_length(temperature, _ME) * math.sqrt(temperature)
        assert value == pytest.approx(reference, rel=1e-9)


class TestBremermann:
    def test_one_kilogram(self):
        assert bremermann_rate(1.0) == pytest.approx(_BREMERMANN_1KG, rel=1e-12)

    def test_two_minimum_silicon_cubes_exceed_1e16(self):
        mass = minimum_device_pair_mass(300.0, ELECTRON_MASS)
        assert bremermann_rate(mass) > 1e16

    def test_linear_in_mass(self):
        assert bremermann_rate(10.0) == pytest.approx(10.0 * bremermann_rate(1.0), rel=1e-12)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(DomainError):
            bremermann_rate(-1e-3)

    @given(st.floats(min_value=1e-27, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_degree_one_homogeneity(self, mass, scale):
        assert bremermann_rate(mass * scale) == pytest.approx(
            scale * bremermann_rate(mass), rel=1e-12)


class TestTimeOfFlight:
    def test_hundred_micron_near_one_thz(self):
        assert time_of_flight_rate_limit(100e-6, 3.0) == pytest.approx(1e12, rel=1e-3)

    def test_decade_steps_with_length(self):
        r1 = time_of_flight_rate_limit(100e-6, 3.0)
        r2 = time_of_flight_rate_limit(1e-3, 3.0)
        r3 = time_of_flight_rate_limit(1e-2, 3.0)
        assert r1 / r2 == pytest.approx(10.0, rel=1e-12)
        assert r2 / r3 == pytest.approx(10.0, rel=1e-12)

    def test_light_second_is_one_hertz(self):
        assert time_of_flight_rate_limit(_C, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            time_of_flight_rate_limit(0.0, 3.0)
        with pytest.raises(DomainError):
            time_of_flight_rate_limit(1e-3, 0.5)


class TestMakeLimitSet:
    def test_device_level_values(self):
        limits = make_limit_set(300.0, level=Level.DEVICE)
        assert limits.energy == pytest.approx(2.87e-21, rel=0.01)
        assert limits.latency == pytest.approx(1.5e-9, rel=0.05)
        assert limits.amount == limits.latency ** 2
        assert limits.resistance == 1.0 / 1e10

    def test_link_energy_doubles_exactly(self):
        device = make_limit_set(300.0, level=Level.DEVICE)
        link = make_limit_set(300.0, level=Level.LINK)
        assert link.energy == 2.0 * device.energy
        assert link.amount == 2.0 * device.amount

    def test_link_area_matches_doubled_heisenberg_square(self):
        link = make_limit_set(300.0, level=Level.LINK)
        side = heisenberg_min_length(300.0, ELECTRON_MASS)
        assert link.amount == 2.0 * side ** 2
        # The rounded nominal 1.5 nm side puts the figure near 4.5e-18 m^2.
        assert link.amount == pytest.approx(4.5e-18, rel=0.07)

    def test_link_capacity_is_two_cube_bound(self):
        link = make_limit_set(300.0, level=Level.LINK)
        mass = minimum_device_pair_mass(300.0, ELECTRON_MASS)
        assert link.capability == bremermann_rate(mass)

    def test_tof_latency_follows_link_length(self):
        short = make_limit_set(300.0, link_length=1e-4, level=Level.LINK)
        long = make_limit_set(300.0, link_length=1e-2, level=Level.LINK)
        assert long.latency / short.latency == pytest.approx(100.0, rel=1e-12)

    def test_margolus_levitin_window(self):
        limits = make_limit_set(300.0)
        assert 1.6e13 <= limits.capability <= 1.8e13

    def test_rejects_zero_temperature(self):
        with pytest.raises(DomainError):
            make_limit_set(0.0)

    @pytest.mark.parametrize("level", [Level.NETWORK, Level.SYSTEM])
    def test_only_device_and_link_levels(self, level):
        with pytest.raises(DomainError, match=f"not {level.value}"):
            make_limit_set(300.0, level=level)

    def test_device_level_skips_link_only_limits(self):
        # At 1e-200 K only the link capacity ceiling leaves the float range.
        assert all(0.0 < value < math.inf for value in make_limit_set(1e-200))
        with pytest.raises(DomainError, match="temperature 1e-200 K puts the link capability"):
            make_limit_set(1e-200, level=Level.LINK)


# Independent oracle for the five limits of each level: the closed forms
# from the constants table, not through limits.py's helpers.
def _oracle(temperature, level, link_length, group_index, cost_axis):
    energy = BOLTZMANN_K * temperature * math.log(2.0)           # k_B T ln 2
    length = REDUCED_PLANCK / math.sqrt(2.0 * ELECTRON_MASS * energy)
    if level is Level.DEVICE:
        return (4.0 * energy / PLANCK_H,                         # 4E/h
                length, energy, length * length, 1.0 / cost_axis)
    pair_mass = 2.0 * SILICON_DENSITY * length ** 3              # two silicon cubes
    return (pair_mass * LIGHT_SPEED_VACUUM ** 2 / PLANCK_H,      # m c^2 / h
            group_index * link_length / LIGHT_SPEED_VACUUM,      # n L / c
            2.0 * energy, 2.0 * length * length, 1.0 / cost_axis)


class TestLimitOracle:
    @pytest.mark.parametrize("level", [Level.DEVICE, Level.LINK])
    @pytest.mark.parametrize("temperature", [4.0, 77.0, 300.0, 1e4])
    def test_five_limits_match_closed_forms(self, level, temperature):
        limits = make_limit_set(temperature, link_length=3e-3, group_index=4.2, level=level)
        expected = _oracle(temperature, level, link_length=3e-3, group_index=4.2,
                           cost_axis=1e10)
        assert limits == pytest.approx(expected, rel=1e-12, abs=0.0)
