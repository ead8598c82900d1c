import hashlib
import json
import os
import re
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from clearfom import cli, network, validation
from clearfom.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from clearfom.data import example_path
from clearfom.device import device_factors
from clearfom.errors import DomainError
from clearfom.ioutil import fmt, write_json
from clearfom.limits import make_limit_set
from clearfom.metric import AXIS_NAMES, Axes, default_floors, radar_vertices
from clearfom.network import find_crossover, network_clear
from clearfom.validation import load_device_config

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


@pytest.fixture(scope="session")
def schema_registry():
    resources = []
    schemas = {}
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        schemas[path.name] = doc
        # Registered by $id, which is what their $refs resolve against.
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources), schemas


def _assert_valid(document, schema_name, registry_and_schemas):
    registry, schemas = registry_and_schemas
    validator = jsonschema.Draft202012Validator(schemas[schema_name], registry=registry)
    errors = [e.message for e in validator.iter_errors(document)]
    assert errors == []


def _hash_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _vertex_cells(radar: dict) -> list[list[str]]:
    """The radar.csv cells a report entry's radar scores render to."""
    return [[fmt(cell) for cell in vertex] for vertex in radar_vertices(Axes(**radar))]


def _config_copy(tmp_path, example, edit) -> Path:
    with open(example_path(example), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _small_network_config(tmp_path, cases=None, sweep=(16, 32)):
    with open(example_path("networks/mesh16_comparison.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["mesh"] = {"rows": 4, "cols": 4, "spacing_m": 1e-3}
    if cases is not None:
        doc["cases"] = [c for c in doc["cases"] if c["label"] in cases]
    doc["flit_sweep"] = {"flit_bits": list(sweep)}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLimitsCommand:
    def test_table_contains_headline_values(self, tmp_path, capsys):
        assert main(["limits", "--temperature", "300", "--out", str(tmp_path)]) == EXIT_OK
        table = capsys.readouterr().out
        energy = float(re.search(r"device\s+min_energy_j_per_bit\s+(\S+)", table).group(1))
        length = float(re.search(r"device\s+min_length_m\s+(\S+)", table).group(1))
        assert energy == pytest.approx(2.87e-21, rel=0.01)
        assert length == pytest.approx(1.5e-9, rel=0.05)

    def test_report_validates_against_schema(self, tmp_path, schema_registry):
        main(["limits", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "limits.json").read_text(encoding="utf-8"))
        _assert_valid(report, "limits_report.schema.json", schema_registry)
        levels = report["levels"]
        assert sorted(levels["device"]) == ["max_rate_hz", "min_area_m2", "min_energy_j_per_bit",
                                            "min_length_m", "min_unit_cost_usd"]
        assert sorted(levels["link"]) == ["max_capacity_bps", "min_area_m2", "min_cost_usd",
                                          "min_energy_j_per_bit", "min_latency_s"]
        header, *rows = _csv_rows(tmp_path / "limits.csv")
        assert header == ["level", "quantity", "value"]
        assert len(rows) == 10
        assert {(level, key): float(value) for level, key, value in rows} == {
            (level, key): value for level, limits in levels.items()
            for key, value in limits.items()}

    def test_format_filter_skips_artifacts(self, tmp_path):
        main(["limits", "--out", str(tmp_path), "--format", "table"])
        assert list(tmp_path.iterdir()) == []


class TestDeviceCommand:
    def test_artifacts_and_schema(self, tmp_path, schema_registry, capsys):
        config = example_path("devices/four_technologies.json")
        assert main(["device", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "device_report.json").read_text(encoding="utf-8"))
        _assert_valid(report, "device_report.schema.json", schema_registry)
        header, *rows = _csv_rows(tmp_path / "radar.csv")
        assert header == ["name", "axis", "score", "x", "y"]
        devices = report["devices"]
        assert len(rows) == len(devices) * len(AXIS_NAMES)
        assert [d["name"] for d in devices] == sorted(d["name"] for d in devices)
        assert rows == [[d["name"], *cells] for d in devices
                        for cells in _vertex_cells(d["radar"])]
        assert [row[1] for row in rows[:len(AXIS_NAMES)]] == list(AXIS_NAMES)

    def test_unknown_field_names_path_on_stderr(self, tmp_path, capsys):
        with open(example_path("devices/four_technologies.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["devices"][0]["typo_field"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["device", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "$.devices[0].typo_field" in err
        assert "unknown key" in err

    def test_failed_run_leaves_no_artifacts(self, tmp_path):
        out = tmp_path / "out"
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "device_comparison"}', encoding="utf-8")
        assert main(["device", "--config", str(bad), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists() or list(out.iterdir()) == []

    def test_report_lists_a_device_below_the_landauer_energy(self, tmp_path):
        config = _config_copy(tmp_path, "devices/four_technologies.json", lambda doc: (
            doc["devices"][0].update(energy_j_per_bit=1e-22)))
        out = tmp_path / "out"
        assert main(["device", "--config", str(config), "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        report = json.loads((out / "device_report.json").read_text(encoding="utf-8"))
        flagged = {d["name"]: d["limit_violations"] for d in report["devices"]
                   if d["limit_violations"]}
        assert flagged == {
            "cmos-transistor-14nm": ["energy_j_per_bit below the minimum switching energy"]}

    def test_names_that_slug_alike_get_rows_each(self, tmp_path):
        config = _config_copy(tmp_path, "devices/four_technologies.json", lambda doc: (
            doc["devices"].append(dict(doc["devices"][0], name=doc["devices"][0]["name"] + "!"))))
        out = tmp_path / "out"
        assert main(["device", "--config", str(config), "--out", str(out)]) == EXIT_OK
        names = [row[0] for row in _csv_rows(out / "radar.csv")[1:]]
        assert names.count("cmos-transistor-14nm") == names.count("cmos-transistor-14nm!") \
            == len(AXIS_NAMES)


class TestItemTables:
    """The device and link tables that hold every item of a run."""

    @pytest.mark.parametrize("command,example,items", [
        ("device", "devices/four_technologies.json", "devices"),
        ("link", "links/four_technologies.json", "links"),
    ])
    def test_repeated_names_are_refused(self, tmp_path, capsys, command, example, items):
        config = _config_copy(tmp_path, example, lambda doc: doc[items].append(doc[items][0]))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert f"$.{items}: {items[:-1]} names must be unique" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,example", [
        ("device", "devices/four_technologies.json"),
        ("link", "links/four_technologies.json"),
    ])
    def test_radar_csv_format_selects_only_the_radar_table(self, tmp_path, command, example):
        written = {}
        for fmt_name in ("radar_csv", "csv"):
            out = tmp_path / fmt_name
            assert main([command, "--config", str(example_path(example)), "--out", str(out),
                         "--format", fmt_name]) == EXIT_OK
            written[fmt_name] = sorted(p.name for p in out.iterdir())
        assert written["radar_csv"] == ["radar.csv"]
        assert written["csv"] and "radar.csv" not in written["csv"]


class TestLinkCommand:
    def test_sweep_and_schema(self, tmp_path, schema_registry):
        config = example_path("links/four_technologies.json")
        assert main(["link", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "link_report.json").read_text(encoding="utf-8"))
        _assert_valid(report, "link_report.schema.json", schema_registry)
        header, *rows = _csv_rows(tmp_path / "link_sweep.csv")
        assert header == ["link", "length_m", "capacity_bps", "latency_s", "energy_j",
                          "area_m2", "cost_usd", "clear"]
        keys = ("length_m", "capacity_bps", "latency_s", "energy_j_per_bit", "area_m2",
                "cost_usd", "clear")
        assert rows == [[link["name"], *(fmt(e[key]) for key in keys)]
                        for link in report["links"] for e in link["sweep"]]
        assert len(rows) == 4 * 3  # four links at three lengths
        header, *rows = _csv_rows(tmp_path / "radar.csv")
        assert header == ["name", "length_m", "axis", "score", "x", "y"]
        assert len(rows) == 4 * 3 * len(AXIS_NAMES)
        assert rows == [[link["name"], fmt(e["length_m"]), *cells]
                        for link in report["links"] for e in link["sweep"]
                        for cells in _vertex_cells(e["radar"])]

    def test_infeasible_budget_exits_two(self, tmp_path, capsys):
        with open(example_path("links/four_technologies.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        plasmonic = next(l for l in doc["links"] if l["name"] == "plasmonic")
        del plasmonic["repeater_spacing_m"]  # 150 dB/mm with no repeaters
        plasmonic["components"] = [c for c in plasmonic["components"]
                                   if c["role"] != "repeater"]
        bad = tmp_path / "infeasible.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["link", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "kind=infeasible" in err
        assert "span" in err

    def test_power_ratio_that_underflows_exits_two(self, tmp_path, capsys):
        def edit(doc):
            photonic = next(l for l in doc["links"] if l["name"] == "photonic")
            photonic["transport"].update(launch_power_w=1e-300, detector_sensitivity_w=1e300)

        config = _config_copy(tmp_path, "links/four_technologies.json", edit)
        out = tmp_path / "o"
        assert main(["link", "--config", str(config), "--out", str(out)]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=2 kind=infeasible")
        assert "budget -6000 dB" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("role", [["repeater"], {"kind": "repeater"}])
    def test_non_string_role_is_a_validation_error(self, tmp_path, capsys, role):
        with open(example_path("links/four_technologies.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        plasmonic = next(l for l in doc["links"] if l["name"] == "plasmonic")
        assert "repeater_spacing_m" in plasmonic
        plasmonic["components"][0]["role"] = role
        bad = tmp_path / "bad_role.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["link", "--config", str(bad), "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert ".role: must be a string" in err
        assert "Traceback" not in err

    def test_close_lengths_get_rows_each(self, tmp_path):
        lengths = [0.001, 0.0010000001, 0.01]
        config = _config_copy(tmp_path, "links/four_technologies.json",
                              lambda doc: doc.update(lengths_m=lengths))
        out = tmp_path / "out"
        assert main(["link", "--config", str(config), "--out", str(out)]) == EXIT_OK
        sweep = [row[:2] for row in _csv_rows(out / "link_sweep.csv")[1:]]
        assert sweep == [[name, repr(length)]
                         for name in ("electronic", "hyppi", "photonic", "plasmonic")
                         for length in lengths]
        radar = [row[:2] for row in _csv_rows(out / "radar.csv")[1:]]
        assert radar == [row for row in sweep for _ in AXIS_NAMES]

    def test_missing_config_exits_three(self, tmp_path, capsys):
        assert main(["link", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_IO
        assert "kind=io" in capsys.readouterr().err


class TestNetworkCommand:
    def test_seed_is_optional_where_nothing_reads_it(self, tmp_path, schema_registry):
        config = _small_network_config(tmp_path)
        hashes = []
        for seed in ([], ["--seed", "1"]):
            out = tmp_path / f"out{len(hashes)}"
            assert main(["network", "--config", str(config), *seed, "--out", str(out),
                         "--format", "csv,json"]) == EXIT_OK
            report = json.loads((out / "network_report.json").read_text(encoding="utf-8"))
            _assert_valid(report, "network_report.schema.json", schema_registry)
            assert report["seed"] == (int(seed[1]) if seed else None)
            hashes.append({name: digest for name, digest in _hash_tree(out).items()
                           if name != "network_report.json"})
        assert hashes[0] == hashes[1]

    def test_a_seeded_hotspot_pick_needs_the_seed(self, tmp_path, capsys):
        config = _small_network_config(tmp_path)
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["traffic"].update(pattern="hotspot", hotspot_count=3)
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["network", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "pass --seed" in err
        assert not out.exists()

    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys):
        config = _small_network_config(tmp_path)
        assert main(["network", "--config", str(config), "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "--seed" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_express_span_of_the_mesh_width_is_refused(self, tmp_path, capsys):
        doc = json.loads(Path(_NETWORK_CONFIG).read_text(encoding="utf-8"))
        next(c for c in doc["cases"] if "express" in c)["express"]["hop_span"] = 16
        config = tmp_path / "net.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["network", "--config", str(config), "--seed", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "got span 16 on 16 cols" in err and "Traceback" not in err
        assert not out.exists()

    def test_a_link_rate_table_is_an_unknown_key(self, tmp_path, capsys):
        # A link's capacity comes from its template alone; a rate table would state it twice.
        config = _config_copy(tmp_path, "networks/mesh16_comparison.json",
                              lambda doc: doc["noc"].update(link_rate_bps={"photonic": 5e11}))
        out = tmp_path / "o"
        assert main(["network", "--config", str(config), "--seed", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "$.noc.link_rate_bps: unknown key" in err
        assert not out.exists()

    def test_a_template_lane_count_is_an_unknown_key(self, tmp_path, capsys):
        # An electrical NoC link is noc.flit_bits lanes wide; a template's lanes would restate it.
        config = _config_copy(tmp_path, "networks/mesh16_comparison.json", lambda doc: (
            doc["noc"]["link_templates"]["electronic"]["transport"].update(lanes=32)))
        out = tmp_path / "o"
        assert main(["network", "--config", str(config), "--seed", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "$.noc.link_templates.electronic.transport.lanes: unknown key" in err
        assert not out.exists()

    @pytest.mark.parametrize("flit_bits,sweep,calls", [(32, [32, 64, 128, 256], 20),
                                                        (24, [24, 48], 10)],
                             ids=["shipped", "flit_24"])
    def test_each_case_is_priced_once_per_flit_size(self, tmp_path, monkeypatch, flit_bits,
                                                    sweep, calls):
        config = _config_copy(tmp_path, "networks/mesh16_comparison.json", lambda doc: (
            doc["noc"].update(flit_bits=flit_bits), doc["flit_sweep"].update(flit_bits=sweep)))
        priced = []

        def counted(topology, activity, noc, eval_year=None):
            priced.append(noc.flit_bits)
            return network_clear(topology, activity, noc, eval_year)

        monkeypatch.setattr(network, "network_clear", counted)
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--seed", "1",
                     "--out", str(out), "--format", "csv"]) == EXIT_OK
        assert len(priced) == calls == 5 * len(set(priced))
        # The summary is the sweep at noc.flit_bits, to the last digit of each CLEAR.
        summary = [row[2] for row in _csv_rows(out / "network_summary.csv")[1:]]
        own = [row[2] for row in _csv_rows(out / "flit_sweep.csv")[1:] if row[0] == str(flit_bits)]
        assert summary == own

    @pytest.mark.parametrize("edit,message", [
        (lambda noc: noc.update(link_latency_clks={"electronic": 1, "hybrid": 2}),
         "$.noc.link_latency_clks: unknown key"),
        (lambda noc: noc.pop("clock_hz"), "$.noc.clock_hz: required key is missing"),
    ], ids=["latency_table", "no_clock"])
    def test_link_latency_comes_from_the_clock_alone(self, tmp_path, capsys, edit, message):
        # A hop's clocks come from its link's delay and noc.clock_hz; a table would restate them.
        config = _config_copy(tmp_path, "networks/mesh16_comparison.json",
                              lambda doc: edit(doc["noc"]))
        out = tmp_path / "o"
        assert main(["network", "--config", str(config), "--seed", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert message in err
        assert not out.exists()

    def test_labels_that_share_a_file_name_are_refused(self, tmp_path, capsys):
        config = _small_network_config(tmp_path, cases=("electronic", "hyppi"))
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["cases"][0]["label"], doc["cases"][1]["label"] = "a b", "a-b"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--seed", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "$.cases: case labels must be unique: 'a b' and 'a-b' both write " \
               "link_activity_a_b.csv" in err
        assert not out.exists()

    def test_sweep_baseline_is_the_first_case(self, tmp_path):
        config = _small_network_config(tmp_path, sweep=(16, 32, 64, 128, 256))
        doc = json.loads(config.read_text(encoding="utf-8"))
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--seed", "3",
                     "--out", str(out), "--format", "json"]) == EXIT_OK
        sweep = json.loads((out / "network_report.json").read_text(encoding="utf-8"))["flit_sweep"]
        first = doc["cases"][0]["label"]
        assert sweep["baseline"] == first
        flits = doc["flit_sweep"]["flit_bits"]
        table = {case["label"]: [row["clear"] for row in sweep["rows"]
                                 if row["case"] == case["label"]] for case in doc["cases"]}
        assert sweep["crossover_flit_bits"] == {
            label: find_crossover(flits, series, table[first])
            for label, series in table.items() if label != first}

    def test_deterministic_artifacts_byte_identical(self, tmp_path):
        config = _small_network_config(tmp_path, cases=("electronic", "hyppi"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["network", "--config", str(config), "--seed", "7",
                         "--out", str(out), "--format", "csv,json"]) == EXIT_OK
        hashes_a, hashes_b = _hash_tree(out_a), _hash_tree(out_b)
        assert hashes_a == hashes_b
        assert "network_report.json" in hashes_a
        assert "flit_sweep.csv" in hashes_a

    def test_report_validates_and_no_temp_files(self, tmp_path, schema_registry):
        config = _small_network_config(tmp_path)
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "network_report.json").read_text(encoding="utf-8"))
        _assert_valid(report, "network_report.schema.json", schema_registry)
        assert not list(out.glob("*.tmp"))
        activity = (out / "link_activity_electronic.csv").read_text(encoding="utf-8")
        assert activity.splitlines()[0] == "link_id,load_bps,utilization"
        assert re.match(r"^\d+->\d+,", activity.splitlines()[1])
        summary = (out / "network_summary.csv").read_text(encoding="utf-8")
        assert summary.splitlines()[0] == ("case,technology,clear,capacity_gbps,"
                                           "latency_clks,energy_pj_per_bit,area_mm2,cost_usd")

    @pytest.mark.parametrize("knobs,message", [
        ({"hotspot_nodes": [3], "hotspot_count": 5},
         "$.traffic: hotspot_nodes and hotspot_count are mutually exclusive"),
        ({"hotspot_count": 100}, "hotspot_count 100 exceeds the 16 nodes of the mesh"),
        ({"hotspot_nodes": [3, 3]}, "hotspot node 3 is listed more than once"),
    ], ids=["nodes_and_count", "count_above_nodes", "repeated_node"])
    def test_hotspot_inputs_that_would_be_changed_are_refused(self, tmp_path, capsys,
                                                              knobs, message):
        config = _small_network_config(tmp_path, cases=("electronic",))
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["traffic"].update(pattern="hotspot", **knobs)
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--seed", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert message in err
        assert not out.exists()


class TestTrendCommand:
    def _config(self, tmp_path):
        doc = {"kind": "trend",
               "records_csv": str(example_path("trend/sample_synthetic_systems.csv")),
               "band_db": 5.0}
        path = tmp_path / "trend.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_fit_and_schema(self, tmp_path, schema_registry, capsys):
        config = self._config(tmp_path)
        assert main(["trend", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "trend_report.json").read_text(encoding="utf-8"))
        _assert_valid(report, "trend_report.schema.json", schema_registry)
        assert report["fit"]["doubling_months"] == pytest.approx(12.0, rel=0.2)
        positions = {p["name"]: p["position"] for p in report["points"]}
        assert positions["vector-super-85"] == "below"

    def test_declining_series_reports_negative_doubling_time(self, tmp_path):
        # CLEAR halves every year: a doubling time of -12 months, not null.
        records = tmp_path / "records.csv"
        records.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            + "".join(f"m{k},{2000 + k},{0.5 ** k},1,1,1,1,other\n" for k in range(5)),
            encoding="utf-8")
        config = tmp_path / "trend.json"
        config.write_text(json.dumps({"kind": "trend", "records_csv": str(records)}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(config), "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        report = json.loads((out / "trend_report.json").read_text(encoding="utf-8"))
        assert report["fit"]["doubling_months"] == -12.0

    def test_row_order_does_not_change_the_artifacts(self, tmp_path):
        header, *rows = example_path("trend/sample_synthetic_systems.csv").read_text(
            encoding="utf-8").splitlines(keepends=True)
        assert len({row.partition(",")[0] for row in rows}) == len(rows)  # names are unique
        outputs = []
        for k, order in enumerate((rows, rows[::-1], rows[1::2] + rows[::2])):
            (tmp_path / "records.csv").write_text(header + "".join(order), encoding="utf-8")
            config = tmp_path / "trend.json"
            config.write_text(json.dumps({"kind": "trend", "records_csv": "records.csv"}),
                              encoding="utf-8")
            out = tmp_path / f"out{k}"
            assert main(["trend", "--config", str(config), "--out", str(out)]) == EXIT_OK
            outputs.append([(out / name).read_bytes()
                            for name in ("trend_report.json", "trend_points.csv")])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        config = self._config(tmp_path)
        out = tmp_path / "from_env"
        monkeypatch.setenv("CLEARFOM_OUT", str(out))
        assert main(["trend", "--config", str(config), "--format", "json"]) == EXIT_OK
        assert (out / "trend_report.json").is_file()


class TestReportsMatchTheCli:
    """Each ``report_<kind>`` returns in memory what ``main`` writes for its subcommand,
    and prints and writes nothing itself."""

    @pytest.mark.parametrize("command,config,flags,options", [
        ("limits", None, ["--temperature", "77", "--link-length", "1e-3", "--group-index", "4"],
         {"temperature": 77.0, "link_length": 1e-3, "group_index": 4.0}),
        ("device", "devices/four_technologies.json", [], {}),
        ("link", "links/four_technologies.json", ["--eval-year", "2020"], {"eval_year": 2020.0}),
        ("network", "networks/mesh16_comparison.json", ["--seed", "1", "--eval-year", "2020"],
         {"seed": 1, "eval_year": 2020.0}),
        ("trend", None, [], {}),
    ], ids=["limits", "device", "link", "network", "trend"])
    def test_report_is_what_main_writes(self, tmp_path, capsys, monkeypatch, command, config,
                                        flags, options):
        if command == "trend":
            config = tmp_path / "trend.json"
            config.write_text(json.dumps({"kind": "trend", "records_csv": str(
                example_path("trend/sample_synthetic_systems.csv"))}), encoding="utf-8")
        elif config is not None:
            config = example_path(config)
        loaded = () if config is None else (getattr(validation, f"load_{command}_config")(config),)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        report = getattr(cli, f"report_{command}")(*loaded, **options)
        assert capsys.readouterr() == ("", "") and list(cwd.iterdir()) == []

        out = tmp_path / "out"
        given = [] if config is None else ["--config", str(config)]
        assert main([command, *given, *flags, "--out", str(out)]) == EXIT_OK
        relpath, document = report.json
        assert json.loads((out / relpath).read_text(encoding="utf-8")) == document
        for relpath, header, rows in report.csv:
            text = "".join(",".join(map(fmt, line)) + "\n" for line in (header, *rows))
            assert (out / relpath).read_bytes() == text.encode("utf-8")
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [report.json[0], *(relpath for relpath, _, _ in report.csv)])


class TestConfigSchemasMatchValidator:
    """The published config schemas and the internal validator must agree on
    the shipped examples."""

    @pytest.mark.parametrize("example,schema", [
        ("devices/four_technologies.json", "device_config.schema.json"),
        ("links/four_technologies.json", "link_config.schema.json"),
        ("networks/mesh16_comparison.json", "network_config.schema.json"),
    ])
    def test_examples_validate_against_published_schemas(self, example, schema,
                                                         schema_registry):
        with open(example_path(example), encoding="utf-8") as fh:
            doc = json.load(fh)
        _assert_valid(doc, schema, schema_registry)

    def test_trend_config_schema(self, schema_registry, tmp_path):
        doc = {"kind": "trend", "records_csv": "records.csv", "band_db": 5.0}
        _assert_valid(doc, "trend_config.schema.json", schema_registry)


@pytest.mark.parametrize("command,example,edit,message", [
    ("link", "links/four_technologies.json",
     lambda doc: next(link for link in doc["links"] if link["name"] == "electronic")
     .update(repeater_spacing_m=1e-4),
     "link 'electronic': repeater_spacing_m requires a component with role 'repeater'"),
    ("network", "networks/mesh16_comparison.json",
     lambda doc: doc["noc"]["link_templates"]["hybrid"].update(repeater_spacing_m=1e-4),
     "link 'hybrid-noc-link': repeater_spacing_m requires a component with role "
     "'repeater'"),
    ("network", "networks/mesh16_comparison.json",
     lambda doc: doc["noc"]["link_templates"].pop("hybrid"),
     "link_templates has no entry for technology 'hybrid'"),
], ids=["link_repeater", "noc_template_repeater", "missing_template"])
def test_value_rules_refuse_where_the_values_are_read(tmp_path, capsys, command, example,
                                                      edit, message):
    # The schemas let these through: the link model and the NoC pricing refuse them.
    config = _config_copy(tmp_path, example, edit)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("clearfom: error code=1 kind=validation")
    assert message in err
    assert not out.exists()


class TestNumericRange:
    """Valid inputs whose magnitudes break floating-point arithmetic in the
    model end in a validation error, not a traceback; so do the component
    keys, component role and config keys that are no longer accepted."""

    @pytest.mark.parametrize("command,example,owner,key,value", [
        ("device", "devices/four_technologies.json",
         lambda doc: doc["devices"][0], "unit_cost_usd", 1e-320),
        ("device", "devices/four_technologies.json",
         lambda doc: doc["devices"][0], "critical_length_m", 1e-320),
        ("link", "links/four_technologies.json",
         lambda doc: next(l["transport"] for l in doc["links"]
                          if l["transport"]["kind"] == "electrical"), "voltage_swing_v", 1e308),
        ("link", "links/four_technologies.json",
         lambda doc: next(l for l in doc["links"] if l["name"] == "plasmonic"),
         "repeater_spacing_m", 1e-320),
        ("link", "links/four_technologies.json",
         lambda doc: doc["links"][1]["components"][0], "insertion_loss_db", 1.0),
        ("link", "links/four_technologies.json",
         lambda doc: doc["links"][0]["components"][0], "output_swing_v", 1.0),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["noc"]["link_templates"]["photonic"]["components"][0],
         "role", "amplifier"),
        ("trend", None, lambda doc: doc, "eval_year", 2016.0),
        ("trend", None, lambda doc: doc, "bits_per_instruction", 32),
        ("link", "links/four_technologies.json", lambda doc: doc, "eval_year", 2016.0),
        ("network", "networks/mesh16_comparison.json", lambda doc: doc, "eval_year", 2016.0),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["noc"]["link_templates"]["hybrid"]["components"][0], "cost_usd", 2.0),
        # Routers sit on the electronic die, and the sweep compares with the first case.
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["noc"]["router"], "die", "electronic"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["flit_sweep"], "baseline", "electronic"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["noc"]["wafer_cost_usd_per_m2"], "typo_die", {"usd_per_m2": 1.0}),
        # Radar normalisation takes fixed constants, whatever value a config gives.
        ("device", "devices/four_technologies.json", lambda doc: doc, "floor_margin", 10.0),
        ("device", "devices/four_technologies.json",
         lambda doc: doc, "cost_efficiency_axis", 1e10),
        ("link", "links/four_technologies.json", lambda doc: doc, "cost_efficiency_axis", 1e10),
        ("link", "links/four_technologies.json", lambda doc: doc, "limit_group_index", 3.0),
    ], ids=["unit_cost_usd", "critical_length_m", "voltage_swing_v", "repeater_spacing_m",
            "removed_insertion_loss_db", "removed_output_swing_v", "removed_amplifier_role",
            "removed_trend_eval_year", "removed_bits_per_instruction",
            "removed_link_eval_year", "removed_network_eval_year",
            "removed_noc_template_cost_usd", "removed_router_die", "removed_sweep_baseline",
            "unknown_wafer_die", "removed_floor_margin", "removed_device_cost_efficiency_axis",
            "removed_link_cost_efficiency_axis", "removed_limit_group_index"])
    def test_exits_one_without_artifacts(self, tmp_path, capsys, command, example, owner,
                                         key, value):
        if example is None:
            doc = {"kind": "trend",
                   "records_csv": str(example_path("trend/sample_synthetic_systems.csv"))}
        else:
            with open(example_path(example), encoding="utf-8") as fh:
                doc = json.load(fh)
        owner(doc)[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        seed = ["--seed", "1"] if command == "network" else []
        assert main([command, "--config", str(config), "--out", str(out),
                     *seed]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("year,shown", [("-5000", "-5000"), ("1e5", "100000")],
                             ids=["cost_overflows", "cost_underflows"])
    def test_cost_year_outside_float_range_is_named(self, tmp_path, capsys, year, shown):
        config = _small_network_config(tmp_path, cases=("electronic", "photonic"))
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--seed", "1", "--out", str(out),
                     f"--eval-year={year}"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert f"unit cost in year {shown} is outside the floating-point range" in err
        assert not out.exists()

    @pytest.mark.parametrize("mips,clock_period_s", [("1e-300", "1e300"), ("1e300", "1e-300")],
                             ids=["clear_underflows", "clear_overflows"])
    def test_trend_record_clear_outside_float_range(self, tmp_path, capsys, mips,
                                                    clock_period_s):
        records = tmp_path / "records.csv"
        records.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            f"a,1990,{mips},{clock_period_s},1,1,1,other\n"
            "b,2000,1,1,1,1,1,other\n", encoding="utf-8")
        config = tmp_path / "trend.json"
        config.write_text(json.dumps({"kind": "trend", "records_csv": str(records)}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert f"capability={float(mips):g}" in err and "Traceback" not in err
        assert f'msg="{records}: record \'a\' (year 1990): system CLEAR' in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trend", "link"])
    @pytest.mark.parametrize("years,shown", [
        (("1e300", "-1e300"), "years -1e+300 to 1e+300"),           # a square overflows
        (("1e-320", "2e-320"), "years 9.99989e-321 to 1.99998e-320"),  # the squares underflow
    ], ids=["overflow", "underflow"])
    def test_fit_years_outside_float_range_name_the_csv(self, tmp_path, capsys, command,
                                                        years, shown):
        if command == "trend":
            csv = tmp_path / "records.csv"
            csv.write_text(
                "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
                f"a,{years[0]},1,1,1,1,1,other\nb,{years[1]},2,1,1,1,1,other\n",
                encoding="utf-8")
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"kind": "trend", "records_csv": "records.csv"}),
                              encoding="utf-8")
        else:
            csv = tmp_path / "costs.csv"
            csv.write_text(f"year,cost_usd\n{years[0]},4.0\n{years[1]},1.0\n", encoding="utf-8")
            config = _config_copy(tmp_path, "links/four_technologies.json",
                                  lambda doc: doc["links"][0].update(cost_curve_csv="costs.csv"))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{csv}: {shown} leave the fit's float range" in err
        assert "numeric range" not in err and "Traceback" not in err
        assert not out.exists()

    def test_trend_growth_outside_float_range_names_the_csv(self, tmp_path, capsys):
        # 1024 doublings in a year: the annual factor 2 ** 1024 is past the float range.
        csv = tmp_path / "records.csv"
        csv.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            f"a,2000,{2.0 ** -512!r},1,1,1,1,other\nb,2001,{2.0 ** 512!r},1,1,1,1,other\n",
            encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "trend", "records_csv": "records.csv"}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{csv}: a growth of 1024 doublings a year leaves the float range" in err
        assert "numeric range" not in err and not out.exists()

    def test_trend_decline_outside_float_range_names_the_csv(self, tmp_path, capsys):
        # CLEAR doubles as the year falls by 1e-160: its annual factor underflows to 0.
        csv = tmp_path / "records.csv"
        csv.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            "a,2e-160,1,1,1,1,1,other\nb,1e-160,2,1,1,1,1,other\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "trend", "records_csv": "records.csv"}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{csv}: a growth of -1.00001e+160 doublings a year leaves the float range" in err
        assert "numeric range" not in err and not out.exists()

    def test_refused_report_leaves_no_csv(self, tmp_path, capsys):
        # Finite inputs whose energy efficiency (1 / 1e-320 J/bit) is infinite.
        records = tmp_path / "records.csv"
        records.write_text(
            "name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            "a,1990,1e-20,1e10,1e-320,1,1,other\n"
            "b,2000,1,1,1,1,1,other\n", encoding="utf-8")
        config = tmp_path / "trend.json"
        config.write_text(json.dumps({"kind": "trend", "records_csv": str(records)}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        assert "trend_report.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,quantity", [
        ("--temperature=1e300", "temperature 1e+300 K"),     # transition rate overflows
        ("--temperature=1e-200", "temperature 1e-200 K"),    # capacity ceiling overflows
        ("--temperature=1e-250", "temperature 1e-250 K"),    # pair mass overflows
        ("--temperature=1e-300", "temperature 1e-300 K"),    # minimum length overflows
        ("--link-length=1e-320", "link length 1e-320 m"),
    ], ids=["temperature_high", "temperature_low", "temperature_lower", "temperature_lowest",
            "link_length_short"])
    def test_limits_outside_float_range_name_the_input(self, tmp_path, capsys, flag,
                                                       quantity):
        out = tmp_path / "out"
        assert main(["limits", flag, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert quantity in err and "Traceback" not in err
        assert not out.exists()

    def test_device_limits_skip_link_only_ceilings(self, tmp_path, capsys):
        # At 1e-200 K only the link capacity ceiling leaves the float range;
        # the device radar then refuses its own limits, not the capacity.
        config = _config_copy(tmp_path, "devices/four_technologies.json",
                              lambda doc: doc.update(temperature_k=1e-200))
        assert main(["device", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        # The floors are shared by every device, so the refusal names the axis and values.
        loaded = load_device_config(config)
        floor = default_floors(map(device_factors, loaded.devices)).capability
        limit = make_limit_set(1e-200).capability  # the transition-rate limit, ~5.8e-190 Hz
        assert ("radar axis capability: floor must lie below the limit on a capability axis "
                f"(floor {floor:g}, limit {limit:g})") in err
        assert "capacity" not in err

    @pytest.mark.parametrize("command,example,edit,code,message", [
        ("link", "links/four_technologies.json",
         lambda doc: doc.update(lengths_m=[1e300]), EXIT_INFEASIBLE,
         "the RC-limited lane rate underflows to zero"),
        ("link", "links/four_technologies.json",
         lambda doc: doc.update(lengths_m=[1e-300]), EXIT_OK, None),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["mesh"].update(rows=4, cols=4, spacing_m=1e300), EXIT_INFEASIBLE,
         "the RC-limited lane rate underflows to zero"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["mesh"].update(rows=4, cols=4, spacing_m=1e-300), EXIT_OK, None),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["traffic"].update(injection_bps_per_node=1e308), EXIT_VALIDATION,
         "lower injection_bps_per_node"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["traffic"].update(injection_bps_per_node=1e305), EXIT_VALIDATION,
         "lower injection_bps_per_node"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["traffic"].update(injection_bps_per_node=2e304), EXIT_VALIDATION,
         "lower injection_bps_per_node"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["noc"].update(clock_hz=1e307), EXIT_VALIDATION,
         "lower injection_bps_per_node or clock_hz"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: (doc["noc"].update(clock_hz=1e300),
                      doc["noc"]["link_templates"]["photonic"]["components"][3].update(
                          delay_s=1e10)), EXIT_VALIDATION,
         "the photonic link of span 1 takes 1e+10 s, past the float range in periods of "
         "clock_hz 1e+300"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: (doc["mesh"].update(rows=4, cols=4, spacing_m=1e300),
                      doc["noc"]["link_templates"]["electronic"]["transport"].update(
                          resistance_ohm_per_m=0.0),
                      doc.update(cases=doc["cases"][:1])), EXIT_VALIDATION,
         "network CLEAR is outside the floating-point range"),
        ("link", "links/four_technologies.json",
         lambda doc: (doc.update(lengths_m=[1e300]),
                      [link["transport"].update(resistance_ohm_per_m=0.0)
                       for link in doc["links"] if link["transport"]["kind"] == "electrical"]),
         EXIT_INFEASIBLE, "cannot close its power budget"),
        # One template: the plasmonic one repeats every 1e-4 m, too often to count on 1e308 m.
        ("network", "networks/mesh16_comparison.json",
         lambda doc: (doc["mesh"].update(rows=4, cols=4, spacing_m=1e308),
                      doc["noc"]["link_templates"]["electronic"]["transport"].update(
                          resistance_ohm_per_m=0.0),
                      doc["noc"].update(link_templates={
                          "electronic": doc["noc"]["link_templates"]["electronic"]}),
                      doc.update(cases=[{"label": "electronic", "technology": "electronic",
                                         "express": {"hop_span": 2,
                                                     "technology": "electronic"}}])),
         EXIT_VALIDATION, "link 'electronic-noc-link': length_m must be strictly positive and "
                          "finite, got inf"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: [component.update(delay_s=1e308) for component
                      in doc["noc"]["link_templates"]["photonic"]["components"]],
         EXIT_VALIDATION, "the photonic link of span 1 takes inf s"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: (doc["mesh"].update(rows=4, cols=4, spacing_m=1e-300),
                      doc["noc"]["link_templates"]["electronic"]["transport"].update(
                          capacitance_f_per_m=1.7e308),
                      doc.update(cases=doc["cases"][:1])),
         EXIT_OK, None),  # R'C' overflows, but R'L times C'L does not
        ("link", "links/four_technologies.json",
         lambda doc: [component.update(delay_s=1e308) for component
                      in next(l for l in doc["links"] if l["name"] == "photonic")["components"]],
         EXIT_VALIDATION,
         "link 'photonic' at 0.0001 m: factor latency must be finite and strictly positive"),
        ("link", "links/four_technologies.json",
         lambda doc: next(l["transport"] for l in doc["links"] if l["name"] == "electronic")
         .update(voltage_swing_v=1e308),
         EXIT_VALIDATION,
         "link 'electronic' at 0.0001 m: factor energy must be finite and strictly positive"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["noc"]["link_templates"]["electronic"]["transport"].update(
             voltage_swing_v=1e200),
         EXIT_VALIDATION, "the electronic link of span 1 draws inf J per bit"),
        ("device", "devices/four_technologies.json",
         lambda doc: doc["devices"][1].update(footprint_m2=1e308), EXIT_VALIDATION,
         "radar axis amount: floor and limit lie too far apart for the floating-point range "
         "(floor inf,"),
        ("device", "devices/four_technologies.json",
         lambda doc: doc["devices"][1].update(unit_cost_usd=1e308), EXIT_VALIDATION,
         "radar axis resistance: floor and limit lie too far apart for the floating-point "
         "range (floor inf,"),
        ("device", "devices/four_technologies.json",
         lambda doc: doc["devices"][1].update(capability_hz=1e-320), EXIT_VALIDATION,
         "radar axis capability: floor and limit lie too far apart for the floating-point "
         "range (floor 9.98013e-322,"),
        ("device", "devices/four_technologies.json",
         lambda doc: doc["devices"][1].update(capability_hz=1e-323), EXIT_VALIDATION,
         "radar axis capability: floor and limit lie too far apart for the floating-point "
         "range (floor 0,"),
        ("link", "links/four_technologies.json",
         lambda doc: next(l for l in doc["links"] if l["name"] == "electronic")
         ["components"][0].update(area_m2=1e308), EXIT_VALIDATION,
         "radar axis amount: floor and limit lie too far apart for the floating-point range "
         "(floor inf,"),
        ("link", "links/four_technologies.json",
         lambda doc: next(l for l in doc["links"] if l["name"] == "plasmonic")
         .update(repeater_spacing_m=1e-320), EXIT_VALIDATION,
         "link 'plasmonic': 0.0001 m over repeater_spacing_m 9.99989e-321 is more spans than "
         "a float counts"),
        ("network", "networks/mesh16_comparison.json",
         lambda doc: doc["noc"]["link_templates"]["plasmonic"].update(repeater_spacing_m=1e-320),
         EXIT_VALIDATION,
         "link 'plasmonic-noc-link': 0.001 m over repeater_spacing_m 9.99989e-321 is more spans "
         "than a float counts"),
    ], ids=["link_length_overflows_rc", "link_length_underflows_rc",
            "mesh_spacing_overflows_rc", "mesh_spacing_underflows_rc",
            "injection_overflows_loads", "injection_overflows_hop_total",
            "injection_overflows_latency_total", "clock_overflows_latency_total",
            "clock_overflows_clock_count", "mesh_spacing_squares_past_range_without_rc",
            "link_length_squares_past_range_without_rc", "express_hop_length_overflows",
            "network_component_delays_overflow", "rc_product_overflows_at_underflowing_length",
            "link_component_delays_overflow", "link_swing_squares_past_range",
            "network_swing_squares_past_range", "device_footprint_floor_overflows",
            "device_cost_floor_overflows", "device_capability_floor_is_subnormal",
            "device_capability_floor_underflows", "link_area_floor_overflows",
            "link_repeater_spans_overflow", "network_repeater_spans_overflow"])
    def test_no_input_reaches_the_arithmetic_catch_all(self, tmp_path, capsys, command,
                                                        example, edit, code, message):
        config = _config_copy(tmp_path, example, edit)
        seed = ["--seed", "1"] if command == "network" else []
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--format", "json", *seed]) == code
        err = capsys.readouterr().err
        if message is None:
            assert err == ""
        else:
            assert err.count("\n") == 1 and message in err
            assert "numeric range" not in err

    def test_unrepresentable_device_clear_still_exits_one(self, tmp_path, capsys):
        # Its cost product underflows to 0.0 and its CLEAR is 1e400.
        config = _config_copy(tmp_path, "devices/four_technologies.json", lambda doc: (
            doc["devices"][0].update(capability_hz=1.0, critical_length_m=1e-200,
                                     energy_j_per_bit=1e-200, footprint_m2=1.0,
                                     unit_cost_usd=1.0)))
        assert main(["device", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "device CLEAR is outside the floating-point range" in err
        assert "device 'cmos-transistor-14nm': " in err


_DEVICE_CONFIG = str(example_path("devices/four_technologies.json"))
_LINK_CONFIG = str(example_path("links/four_technologies.json"))
_NETWORK_CONFIG = str(example_path("networks/mesh16_comparison.json"))


# Besides malformed usage: every flag that a subcommand does not read, on an
# otherwise valid run. "{trend}" is a trend config written per test.
@pytest.mark.parametrize("argv", [
    ["device"], ["bogus"], ["network", "--seed", "abc"],
    ["limits", "--seed", "1"],
    ["limits", "--eval-year", "2020"],
    ["device", "--config", _DEVICE_CONFIG, "--seed", "1"],
    ["device", "--config", _DEVICE_CONFIG, "--eval-year", "2020"],
    ["device", "--config", _DEVICE_CONFIG, "--temperature", "77"],
    ["link", "--config", _LINK_CONFIG, "--seed", "1"],
    ["link", "--config", _LINK_CONFIG, "--temperature", "77"],
    ["network", "--config", _NETWORK_CONFIG, "--seed", "1", "--temperature", "77"],
    ["trend", "--config", "{trend}", "--seed", "1"],
    ["trend", "--config", "{trend}", "--eval-year", "2020"],
    ["trend", "--config", "{trend}", "--temperature", "77"],
], ids=["missing_config", "unknown_command", "non_integer_seed",
        "limits_seed", "limits_eval_year", "device_seed", "device_eval_year",
        "device_temperature", "link_seed", "link_temperature", "network_temperature",
        "trend_seed", "trend_eval_year", "trend_temperature"])
def test_usage_error_is_a_validation_error(tmp_path, capsys, argv):
    trend = tmp_path / "trend.json"
    trend.write_text(json.dumps({
        "kind": "trend",
        "records_csv": str(example_path("trend/sample_synthetic_systems.csv"))}),
        encoding="utf-8")
    argv = [str(trend) if arg == "{trend}" else arg for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("clearfom: error code=1 kind=validation")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("formats,message", [
    (",", "at least one output format is required"),
    ("xml", "unknown output format 'xml'"),
], ids=["no_format", "unknown_format"])
def test_format_refusal_names_the_problem(tmp_path, capsys, formats, message):
    out = tmp_path / "out"
    assert main(["limits", "--format", formats, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("clearfom: error code=1 kind=validation") and message in err
    assert not out.exists()


class TestNonFiniteFlags:
    """A NaN or infinite float flag is rejected by name before anything runs."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--temperature", "--link-length", "--group-index"])
    def test_exits_one_naming_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        # The = form, because argparse reads a bare "-inf" as an option.
        assert main(["limits", f"{flag}={value}", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert f"{flag} must be a finite number" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_eval_year_on_link_command(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["link", "--config", _LINK_CONFIG, f"--eval-year={value}",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("clearfom: error code=1 kind=validation")
        assert "--eval-year must be a finite number" in err and "Traceback" not in err
        assert not out.exists()

    def test_write_json_refuses_non_finite_numbers(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(DomainError, match="report.json"):
            write_json(path, {"value": float("nan")})
        assert not path.exists()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask_022", "umask_077"])
def test_artifacts_follow_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        assert main(["limits", "--out", str(tmp_path / "out")]) == EXIT_OK
    finally:
        os.umask(previous)
    written = sorted((tmp_path / "out").iterdir())
    assert [p.name for p in written] == ["limits.csv", "limits.json"]
    assert {p.stat().st_mode & 0o777 for p in written} == {mode}


def test_artifact_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("an artifact write changed the process umask")

    monkeypatch.setattr(os, "umask", umask)
    write_json(tmp_path / "report.json", {"value": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == {"value": 1}


_RECORDS = (b"name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class\n"
            b"a,1990,1,1,1,1,1,other\n")


# A config, or a CSV input it names, that cannot be read exits 3; a malformed
# one exits 1 naming the file and line, and one with too few rows to fit exits 1
# naming the file. ``None`` writes a directory.
@pytest.mark.parametrize("command,inputs,code,where", [
    ("device", {"config.json": b'\xff\xfe{"kind": 1}'}, EXIT_VALIDATION, "not valid JSON"),
    ("device", {"config.json": b"[" * 100000}, EXIT_VALIDATION, "not valid JSON"),
    ("link", {}, EXIT_IO, "costs.csv"),
    ("link", {"costs.csv": None}, EXIT_IO, "costs.csv"),
    ("link", {"costs.csv": b"year,cost_usd\n2014,4\n2016,\xff1\n"},
     EXIT_VALIDATION, "costs.csv:3: not UTF-8"),
    ("trend", {"records.csv": _RECORDS + b"b,2000,\xff1,1,1,1,1,other\n"},
     EXIT_VALIDATION, "records.csv:3: not UTF-8"),
    ("trend", {"records.csv": _RECORDS + b"b,2000,1,1\n"},
     EXIT_VALIDATION, "records.csv:3: expected 8 cells, got 4"),
    ("trend", {"records.csv": _RECORDS + b'b,2000,1,1,1,1,1,"other\n'},
     EXIT_VALIDATION, "records.csv:3: unexpected end of data"),
    ("trend", {"records.csv": _RECORDS + b"b" * 200_000 + b",2000,1,1,1,1,1,other\n"},
     EXIT_VALIDATION, "records.csv:3: field larger than field limit"),
    ("link", {"costs.csv": b"year,cost_usd\n2014,4\n"},
     EXIT_VALIDATION, "costs.csv: need at least two distinct years"),
    ("trend", {"records.csv": _RECORDS},
     EXIT_VALIDATION, "records.csv: need at least two distinct years"),
    ("trend", {"records.csv": _RECORDS + b"b,1990,2,1,1,1,1,other\n"},
     EXIT_VALIDATION, "records.csv: need at least two distinct years"),
], ids=["not_utf8", "nested_too_deep", "cost_csv_missing", "cost_csv_is_a_directory",
        "cost_csv_not_utf8", "records_not_utf8", "records_row_short",
        "records_unterminated_quote", "records_field_200kB", "cost_csv_one_row",
        "records_one_row", "records_one_year"])
def test_undecodable_config_is_a_validation_error(tmp_path, capsys, command, inputs, code,
                                                  where):
    config = tmp_path / "config.json"
    if command == "link":
        doc = json.loads(Path(_LINK_CONFIG).read_text(encoding="utf-8"))
        doc["links"][0]["cost_curve_csv"] = "costs.csv"
        config.write_text(json.dumps(doc), encoding="utf-8")
    elif command == "trend":
        config.write_text(json.dumps({"kind": "trend", "records_csv": "records.csv"}),
                          encoding="utf-8")
    for name, content in inputs.items():
        if content is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(content)
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"clearfom: error code={code}")
    assert where in err and "Traceback" not in err
    assert str(tmp_path) in err  # the file is named by its resolved path
    assert not out.exists()
