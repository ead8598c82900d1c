import copy
import json
import shutil
import typing
from pathlib import Path

import pytest

from clearfom.errors import ConfigurationError
from clearfom.link import ElectricalTransport
from clearfom.metric import Technology
from clearfom import validation
from clearfom.validation import (
    _build,
    load_device_config,
    load_link_config,
    load_network_config,
    load_trend_config,
    validate_config,
)


def _paths(diagnostics):
    return [d.path for d in diagnostics]


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


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

    def test_transport_kind_required(self, link_config_doc):
        doc = copy.deepcopy(link_config_doc)
        del doc["links"][0]["transport"]["kind"]
        diags = validate_config(doc)
        assert any(d.path.endswith("transport.kind") for d in diags)

    def test_duplicate_case_labels(self, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        doc["cases"][1]["label"] = doc["cases"][0]["label"]
        diags = validate_config(doc)
        assert any(d.path == "$.cases" for d in diags)

    @pytest.mark.parametrize("labels,problems", [
        (("a b", "a-b", "c"), ["$.cases: case labels must be unique: 'a b' and 'a-b' both "
                               "write link_activity_a_b.csv"]),
        (("A", "a", "_a_", "a.b"), ["$.cases: case labels must be unique: 'A' and 'a' both "
                                    "write link_activity_a.csv"]),
        (("a b", "a-c", "ab"), []),
    ], ids=["space_and_dash", "case_and_trim", "distinct_file_names"])
    def test_labels_are_unique_as_file_names(self, network_config_doc, labels, problems):
        doc = copy.deepcopy(network_config_doc)
        doc["cases"] = [{**doc["cases"][0], "label": label} for label in labels]
        assert [str(d) for d in validate_config(doc)] == problems

    @pytest.mark.parametrize("doc_name,where,key,value", [
        ("network_config_doc", ("noc", "router"), "die", "electronic"),
        ("network_config_doc", ("flit_sweep",), "baseline", "electronic"),
        ("network_config_doc", ("noc", "wafer_cost_usd_per_m2"), "typo_die",
         {"usd_per_m2": 1.0}),
        ("device_config_doc", (), "floor_margin", 10.0),
        ("device_config_doc", (), "cost_efficiency_axis", 1e10),
        ("link_config_doc", (), "limit_group_index", 3.0),
        ("link_config_doc", (), "cost_efficiency_axis", 1e10),
    ], ids=["router_die", "sweep_baseline", "wafer_die", "floor_margin",
            "device_cost_efficiency_axis", "limit_group_index", "link_cost_efficiency_axis"])
    def test_removed_keys_are_unknown(self, request, doc_name, where, key, value):
        doc = copy.deepcopy(request.getfixturevalue(doc_name))
        node = doc
        for part in where:
            node = node[part]
        node[key] = value
        assert [str(d) for d in validate_config(doc)] == [
            "$." + ".".join((*where, key)) + ": unknown key"]

    def test_electronic_wafer_rate_is_required(self, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        del doc["noc"]["wafer_cost_usd_per_m2"]["electronic"]
        assert [str(d) for d in validate_config(doc)] == [
            "$.noc.wafer_cost_usd_per_m2.electronic: required key is missing"]

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

    @pytest.mark.parametrize("doc_name,key", [("device_config_doc", "devices"),
                                              ("link_config_doc", "lengths_m")])
    def test_empty_list_is_below_min_items(self, request, doc_name, key):
        doc = copy.deepcopy(request.getfixturevalue(doc_name))
        doc[key] = []
        assert [str(d) for d in validate_config(doc)] == [
            f"$.{key}: must have at least 1 item(s)"]


class TestLoaders:
    def test_device_loader(self, device_config_path):
        config = load_device_config(device_config_path)
        assert len(config.devices) == 4
        assert config.temperature_k == 300.0

    def test_link_loader_defaults(self, link_config_path):
        config = load_link_config(link_config_path)
        assert config.lengths_m == (1e-4, 1e-3, 1e-2)
        assert {l.name for l in config.links} == \
            {"electronic", "photonic", "plasmonic", "hyppi"}

    def test_link_loader_fits_cost_curve_from_csv(self, link_config_doc, tmp_path):
        (tmp_path / "costs.csv").write_text(
            "year,cost_usd\n2014,4.0\n2016,1.0\n", encoding="utf-8")
        doc = copy.deepcopy(link_config_doc)
        doc["links"][0]["cost_curve_csv"] = "costs.csv"
        config = load_link_config(_write(tmp_path / "link.json", doc))
        curve = config.links[0].cost_curve
        assert curve is not None
        assert curve.halving_period == pytest.approx(1.0, rel=1e-9)

    def test_network_loader(self, network_config_path):
        config = load_network_config(network_config_path)
        assert {(mesh.rows, mesh.cols) for mesh in config.cases.values()} == {(16, 16)}
        assert config.flit_sizes == (32, 64, 128, 256)
        express_cases = [mesh for mesh in config.cases.values() if mesh.express_span is not None]
        assert len(express_cases) == 1
        assert express_cases[0].express_span == 3
        assert express_cases[0].express_technology is Technology.HYBRID

    def test_trend_loader_defaults(self, tmp_path, sample_records_path):
        shutil.copy(sample_records_path, tmp_path / "records.csv")
        config = load_trend_config(
            _write(tmp_path / "trend.json", {"kind": "trend", "records_csv": "records.csv"}))
        assert config.band_db == 5.0
        assert config.records_csv == tmp_path / "records.csv"
        assert len(config.records) >= 10
        assert config.records[0].name == "relay-one"

    def test_relative_csv_paths_resolve_against_the_config(
            self, tmp_path, monkeypatch, link_config_doc, sample_records_path):
        inputs, elsewhere = tmp_path / "inputs", tmp_path / "elsewhere"
        inputs.mkdir()
        elsewhere.mkdir()
        (inputs / "costs.csv").write_text("year,cost_usd\n2014,4.0\n2016,1.0\n",
                                          encoding="utf-8")
        shutil.copy(sample_records_path, inputs / "records.csv")
        doc = copy.deepcopy(link_config_doc)
        doc["links"][0]["cost_curve_csv"] = "costs.csv"
        link = _write(inputs / "link.json", doc)
        trend = _write(inputs / "trend.json", {"kind": "trend", "records_csv": "records.csv"})
        monkeypatch.chdir(elsewhere)
        config = load_link_config(Path("..") / "inputs" / link.name)
        assert config.links[0].cost_curve.halving_period == pytest.approx(1.0, rel=1e-9)
        assert len(load_trend_config(trend).records) >= 10

    def test_build_converts_plain_number_fields(self):
        # The annotations of a checked record sit on its NamedTuple base, as ForwardRefs.
        transport = _build(ElectricalTransport, {"capacitance_f_per_m": 1, "lanes": 16.0,
                                                 "resistance_ohm_per_m": 0, "kind": "x"},
                           voltage_swing_v=1)
        assert transport == ElectricalTransport(1.0, 0.0, 1, 16)
        assert [type(value) for value in transport] == [float, float, int, int]

    def test_every_annotation_build_reads_is_a_forward_ref(
            self, tmp_path, monkeypatch, link_config_doc, device_config_path,
            network_config_path, sample_records_path):
        # _build maps an annotation's __forward_arg__ to its converter; an interpreter
        # that evaluated annotations would make it skip every conversion.
        built = set()

        def spy(cls, obj, **given):
            built.add(cls)
            return _build(cls, obj, **given)

        monkeypatch.setattr(validation, "_build", spy)
        doc = copy.deepcopy(link_config_doc)
        doc["links"][0]["cost_curve"] = {"initial_unit_cost": 2.0, "halving_period": 3.0,
                                         "reference_time": 2016.0}
        load_link_config(_write(tmp_path / "link.json", doc))
        load_device_config(device_config_path)
        load_network_config(network_config_path)
        shutil.copy(sample_records_path, tmp_path / "records.csv")
        load_trend_config(_write(tmp_path / "trend.json",
                                 {"kind": "trend", "records_csv": "records.csv"}))
        assert {cls.__name__ for cls in built} >= {
            "LinkSpec", "LinkComponent", "ElectricalTransport", "OpticalTransport",
            "ExperienceCurve", "LinkConfig", "DeviceSpec", "DeviceConfig", "RouterModel",
            "NocConfig", "TrafficParams", "NetworkConfig", "TrendConfig"}
        for cls in built:
            types = next(klass.__annotations__ for klass in cls.__mro__
                         if klass.__annotations__)
            assert all(isinstance(types[name], typing.ForwardRef) for name in cls._fields), cls

    def test_integer_valued_floats_load_as_ints(self, tmp_path, network_config_doc):
        doc = copy.deepcopy(network_config_doc)
        doc["noc"].update(flit_bits=32.0, router_pipeline_clks=3.0)
        doc["traffic"] = {"pattern": "hotspot", "hotspot_count": 2.0,
                          "injection_bps_per_node": 1000000000}
        config = load_network_config(_write(tmp_path / "network.json", doc))
        numbers = (config.noc.flit_bits, config.noc.router_pipeline_clks,
                   config.noc.link_templates[Technology.ELECTRONIC].transport.lanes,
                   config.traffic_params.hotspot_count, config.traffic_params.injection_bps_per_node)
        assert numbers == (32, 3, 32, 2, 1e9)
        assert [type(n) for n in numbers] == [int, int, int, int, float]

    def test_loaders_refuse_an_invalid_or_other_kind_of_config(
            self, tmp_path, device_config_doc, link_config_path):
        doc = copy.deepcopy(device_config_doc)
        doc["devices"][0]["bogus_field"] = 1.0
        with pytest.raises(ConfigurationError, match=r"\$\.devices\[0\]\.bogus_field"):
            load_device_config(_write(tmp_path / "device.json", doc))
        with pytest.raises(ConfigurationError, match="does not match"):
            load_device_config(link_config_path)
