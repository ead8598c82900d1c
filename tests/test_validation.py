import copy

import pytest

from clearfom.validation import (
    load_device_config,
    load_link_config,
    load_network_config,
    load_trend_config,
    validate_config,
)


def _paths(diagnostics):
    return [d.path for d in diagnostics]


class TestShippedConfigsValidate:
    def test_device_config_clean(self, device_config_doc):
        assert validate_config(device_config_doc) == []

    def test_link_config_clean(self, link_config_doc):
        assert validate_config(link_config_doc) == []

    def test_network_config_clean(self, network_config_doc):
        assert validate_config(network_config_doc) == []

    def test_trend_config_clean(self, sample_records_path):
        doc = {"kind": "trend", "records_csv": str(sample_records_path), "band_db": 5.0}
        assert validate_config(doc) == []


class TestRejections:
    def test_unknown_kind(self):
        diags = validate_config({"kind": "bogus"})
        assert _paths(diags) == ["$.kind"]

    def test_non_object_document(self):
        assert _paths(validate_config([1, 2])) == ["$"]

    def test_unknown_key_is_named_with_path(self, device_config_doc):
        doc = copy.deepcopy(device_config_doc)
        doc["devices"][0]["bogus_field"] = 1.0
        diags = validate_config(doc)
        assert any(d.path == "$.devices[0].bogus_field" and "unknown key" in d.message
                   for d in diags)

    def test_negative_energy_cites_invariant(self, device_config_doc):
        doc = copy.deepcopy(device_config_doc)
        doc["devices"][1]["energy_j_per_bit"] = -1e-15
        diags = validate_config(doc)
        assert any(d.path == "$.devices[1].energy_j_per_bit" for d in diags)

    def test_all_errors_collected_not_fail_fast(self, device_config_doc):
        doc = copy.deepcopy(device_config_doc)
        doc["devices"][0]["capability_hz"] = -1.0
        doc["devices"][1]["footprint_m2"] = 0.0
        doc["extra"] = True
        assert len(validate_config(doc)) == 3

    def test_repeater_spacing_without_repeater_component(self, link_config_doc):
        doc = copy.deepcopy(link_config_doc)
        electronic = next(l for l in doc["links"] if l["name"] == "electronic")
        electronic["repeater_spacing_m"] = 1e-4
        diags = validate_config(doc)
        assert any("repeater" in d.message and d.path.endswith("repeater_spacing_m")
                   for d in diags)

    def test_transport_kind_required(self, link_config_doc):
        doc = copy.deepcopy(link_config_doc)
        del doc["links"][0]["transport"]["kind"]
        diags = validate_config(doc)
        assert any(d.path.endswith("transport.kind") for d in diags)

    def test_case_technology_must_have_tables(self, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        del doc["noc"]["link_templates"]["hybrid"]
        diags = validate_config(doc)
        assert any("hybrid" in d.message and "link_templates" in d.path for d in diags)

    def test_duplicate_case_labels(self, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        doc["cases"][1]["label"] = doc["cases"][0]["label"]
        diags = validate_config(doc)
        assert any(d.path == "$.cases" for d in diags)

    def test_sweep_baseline_must_be_a_case(self, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        doc["flit_sweep"]["baseline"] = "nope"
        diags = validate_config(doc)
        assert any(d.path == "$.flit_sweep.baseline" for d in diags)

    def test_hotspot_fraction_bounds(self, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        doc["traffic"]["hotspot_fraction"] = 1.5
        diags = validate_config(doc)
        assert any(d.path == "$.traffic.hotspot_fraction" for d in diags)

    def test_wafer_curve_needs_both_fields(self, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        doc["noc"]["wafer_cost_usd_per_m2"]["electronic"] = {"usd_per_m2": 2e5,
                                                             "halving_period_years": 4.0}
        diags = validate_config(doc)
        assert any("reference_year" in d.message for d in diags)

    def test_inline_and_csv_cost_curves_exclusive(self, link_config_doc):
        doc = copy.deepcopy(link_config_doc)
        doc["links"][0]["cost_curve"] = {"initial_unit_cost": 1.0, "halving_period": 2.0,
                                         "reference_time": 2016.0}
        doc["links"][0]["cost_curve_csv"] = "costs.csv"
        diags = validate_config(doc)
        assert any("mutually exclusive" in d.message for d in diags)


class TestLoaders:
    def test_device_loader(self, device_config_doc):
        config = load_device_config(device_config_doc)
        assert len(config.devices) == 4
        assert config.temperature_k == 300.0

    def test_link_loader_defaults(self, link_config_doc):
        config = load_link_config(link_config_doc)
        assert config.lengths_m == (1e-4, 1e-3, 1e-2)
        assert config.limit_group_index == 3.0
        assert {l.name for l in config.links} == \
            {"electronic", "photonic", "plasmonic", "hyppi"}

    def test_link_loader_fits_cost_curve_from_csv(self, link_config_doc, tmp_path):
        (tmp_path / "costs.csv").write_text(
            "year,cost_usd\n2014,4.0\n2016,1.0\n", encoding="utf-8")
        doc = copy.deepcopy(link_config_doc)
        doc["links"][0]["cost_curve_csv"] = "costs.csv"
        config = load_link_config(doc, base_dir=str(tmp_path))
        curve = config.links[0].cost_curve
        assert curve is not None
        assert curve.halving_period == pytest.approx(1.0, rel=1e-9)

    def test_network_loader(self, network_config_doc):
        config = load_network_config(network_config_doc)
        assert config.rows == config.cols == 16
        assert config.flit_sizes == (32, 64, 128, 256)
        express_cases = [c for c in config.cases if c.express_span is not None]
        assert len(express_cases) == 1
        assert express_cases[0].express_span == 3

    def test_trend_loader_defaults(self):
        config = load_trend_config({"kind": "trend", "records_csv": "x.csv"})
        assert config.band_db == 5.0
