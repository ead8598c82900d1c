import pytest
from hypothesis import given
from hypothesis import strategies as st

from clearfom.device import (
    DeviceSpec,
    device_clear,
    device_factors,
    radar_normalize,
)
from clearfom.errors import DomainError
from clearfom.limits import make_limit_set
from clearfom.metric import Level, default_floors, radar_area
from clearfom.validation import load_device_config

_scale = st.floats(min_value=1e-3, max_value=1e3)


def _floors(specs):
    return default_floors(map(device_factors, specs))


def _spec(**overrides):
    base = dict(name="dev", technology="electronic", capability_hz=1.0,
                critical_length_m=1.0, energy_j_per_bit=1.0, footprint_m2=1.0,
                unit_cost_usd=1.0)
    base.update(overrides)
    return DeviceSpec(**base)


class TestDeviceClear:
    def test_all_unit_factors(self):
        assert device_clear(_spec()).value == 1.0
        assert device_clear(_spec()).level is Level.DEVICE

    def test_doubling_energy_halves_value(self):
        assert device_clear(_spec(energy_j_per_bit=2.0)).value == \
            pytest.approx(device_clear(_spec()).value / 2.0, rel=1e-12)

    def test_smaller_denominator_wins(self):
        for field in ("critical_length_m", "energy_j_per_bit", "footprint_m2",
                      "unit_cost_usd"):
            smaller = device_clear(_spec(**{field: 0.5})).value
            larger = device_clear(_spec(**{field: 2.0})).value
            assert smaller > device_clear(_spec()).value > larger

    def test_non_positive_factor_rejected(self):
        with pytest.raises(DomainError):
            _spec(footprint_m2=0.0)

    @given(_scale, _scale, _scale, _scale, _scale)
    def test_unit_consistent_recomputation(self, a, b, c, d, e):
        # Express the same device in a rescaled-but-consistent unit system;
        # CLEAR transforms by the exact product of the scale factors.
        spec = _spec(capability_hz=7.0, critical_length_m=0.3, energy_j_per_bit=1.1,
                     footprint_m2=0.9, unit_cost_usd=2.2)
        rescaled = DeviceSpec(
            name=spec.name, technology=spec.technology,
            capability_hz=spec.capability_hz * a,
            critical_length_m=spec.critical_length_m * b,
            energy_j_per_bit=spec.energy_j_per_bit * c,
            footprint_m2=spec.footprint_m2 * d,
            unit_cost_usd=spec.unit_cost_usd * e,
        )
        back = device_clear(rescaled).value * (b * c * d * e) / a
        assert back == pytest.approx(device_clear(spec).value, rel=1e-9)


class TestDeviceRadar:
    def _limits(self):
        return make_limit_set(300.0, level=Level.DEVICE)

    def test_factor_at_limit_scores_one(self):
        limits = self._limits()
        spec = _spec(capability_hz=limits.capability,
                     critical_length_m=limits.latency,
                     energy_j_per_bit=limits.energy,
                     footprint_m2=limits.amount,
                     unit_cost_usd=limits.resistance)
        floors = _floors([spec, _spec(capability_hz=0.5)])
        scores = radar_normalize(spec, limits, floors)
        assert scores == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_factor_at_floor_scores_zero(self):
        limits = self._limits()
        spec = _spec()
        floors = _floors([spec])
        worst = _spec(capability_hz=floors.capability,
                      critical_length_m=floors.latency,
                      energy_j_per_bit=floors.energy,
                      footprint_m2=floors.amount,
                      unit_cost_usd=floors.resistance)
        scores = radar_normalize(worst, limits, floors)
        assert scores == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_improving_one_factor_never_lowers_its_score(self):
        limits = self._limits()
        base = _spec(energy_j_per_bit=1e-12)
        better = _spec(energy_j_per_bit=1e-15)
        floors = _floors([base, better])
        assert radar_normalize(better, limits, floors).energy >= \
            radar_normalize(base, limits, floors).energy

    def test_limit_violations_reported_not_clamped(self):
        limits = self._limits()
        spec = _spec(energy_j_per_bit=limits.energy / 2.0)
        problems = spec.limit_violations(limits)
        assert any("energy" in p for p in problems)
        assert spec.energy_j_per_bit < limits.energy

    @pytest.mark.parametrize("field,axis,scale,problem", [
        ("critical_length_m", "latency", 0.5,
         "critical_length_m below the minimum localization length"),
        ("footprint_m2", "amount", 0.5, "footprint_m2 below the minimum device area"),
        ("capability_hz", "capability", 2.0, "capability_hz above the maximum transition rate"),
    ])
    def test_each_violated_limit_is_named(self, field, axis, scale, problem):
        limits = self._limits()
        spec = _spec(**{field: getattr(limits, axis) * scale})
        assert spec.limit_violations(limits) == [problem]


class TestShippedDevices:
    def test_radar_area_ordering_matches_clear_ordering(self, device_config_path):
        config = load_device_config(device_config_path)
        limits = make_limit_set(config.temperature_k, level=Level.DEVICE)
        floors = _floors(config.devices)
        entries = []
        for spec in config.devices:
            entries.append((device_clear(spec).value,
                            radar_area(radar_normalize(spec, limits, floors)),
                            spec.name))
        by_clear = [name for _, _, name in sorted(entries, key=lambda e: e[0])]
        by_area = [name for _, _, name in sorted(entries, key=lambda e: e[1])]
        assert by_clear == by_area

    def test_shipped_devices_respect_all_limits(self, device_config_path):
        config = load_device_config(device_config_path)
        limits = make_limit_set(config.temperature_k, level=Level.DEVICE)
        for spec in config.devices:
            assert spec.limit_violations(limits) == []

    def test_factors_roundtrip(self, device_config_path):
        config = load_device_config(device_config_path)
        for spec in config.devices:
            factors = device_factors(spec)
            assert factors.capability == spec.capability_hz
            assert factors.latency == spec.critical_length_m
