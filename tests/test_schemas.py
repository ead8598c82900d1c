"""The shipped JSON Schemas are the config rules.

``validate_config`` interprets them. These tests compare its verdict with
``jsonschema`` on single-leaf mutations of the shipped configs, check that it
implements every keyword the config schemas use, check that the loaders read
every optional key and that every shipped number moves some artifact, and
fuzz the CLI with the same mutations: every run must end in an exit code,
never in a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

from clearfom import validation
from clearfom.cli import main, report_device, report_link, report_network
from clearfom.data import example_path
from clearfom.errors import ClearError
from clearfom.link import ComponentRole
from clearfom.metric import Technology
from clearfom.validation import (
    load_device_config,
    load_link_config,
    load_network_config,
    load_trend_config,
    validate_config,
)
from test_cli import _hash_tree, _small_network_config

REPO = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "src" / "clearfom" / "schemas"

# Keywords the interpreter in clearfom.validation implements, and the ones
# that only annotate a schema.
IMPLEMENTED = {"$ref", "type", "enum", "const", "required", "properties",
               "additionalProperties", "items", "minItems",
               "minimum", "exclusiveMinimum", "maximum", "oneOf", "not",
               "dependentRequired"}
ANNOTATIONS = {"$schema", "$id", "title", "$defs"}
# Keywords whose value maps names to subschemas, and those holding subschemas.
NAMED_SUBSCHEMAS = {"properties", "$defs"}
SUBSCHEMAS = {"items", "not"}

# Messages of the one rule kept in Python because a schema cannot state it.
CROSS_FIELD_MESSAGES = ("names must be unique", "case labels must be unique")

REPLACEMENTS = (None, True, "x", -1, 0, 1.0, 1e-320, [], {})

TREND_DOC = {"kind": "trend", "records_csv": "records.csv", "band_db": 5.0,
             "notes": "synthetic"}


def _shipped(relative):
    with open(example_path(relative), encoding="utf-8") as fh:
        return json.load(fh)


CONFIGS = {
    "device": _shipped("devices/four_technologies.json"),
    "link": _shipped("links/four_technologies.json"),
    "network": _shipped("networks/mesh16_comparison.json"),
    "trend": TREND_DOC,
}


def _nodes(value, path=()):
    """(path, value) of every member and item below ``value``, depth first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def mutations(doc):
    """Every single-leaf mutation of ``doc``: add an unknown key to an object,
    delete a member or item, or replace one with each of REPLACEMENTS."""
    found = [("add", path, 1) for path, value in [((), doc), *_nodes(doc)]
             if isinstance(value, dict)]
    for path, _ in _nodes(doc):
        found.append(("delete", path, None))
        found += [("replace", path, value) for value in REPLACEMENTS]
    return found


def mutate(doc, mutation):
    op, path, value = mutation
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1] if op != "add" else path:
        parent = parent[key]
    if op == "add":
        parent["bogus_key"] = value
    elif op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


MUTATIONS = [(name, m) for name, doc in CONFIGS.items() for m in mutations(doc)]


def config_validators():
    """A ``jsonschema`` validator for each of CONFIGS."""
    schemas = {p.name: json.loads(p.read_text(encoding="utf-8"))
               for p in SCHEMA_DIR.glob("*.schema.json")}
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in schemas.values())
    return {name: jsonschema.Draft202012Validator(
                schemas[f"{name}_config.schema.json"], registry=registry)
            for name in CONFIGS}


@pytest.fixture(scope="module")
def validators():
    return config_validators()


def check_agrees(name, doc, validators):
    """``validate_config`` and ``jsonschema`` give the same verdict, apart from
    documents flagged only by the cross-field rules, and each failing value
    gets one diagnostic."""
    diagnostics = validate_config(doc)
    schema_diagnostics = [d for d in diagnostics
                          if not any(m in d.message for m in CROSS_FIELD_MESSAGES)]
    assert (schema_diagnostics == []) == validators[name].is_valid(doc), diagnostics
    paths = [d.path for d in diagnostics]
    assert len(paths) == len(set(paths)), diagnostics


class TestAgreesWithJsonschema:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_shipped_configs(self, name, validators):
        check_agrees(name, CONFIGS[name], validators)
        assert validate_config(CONFIGS[name]) == []

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(MUTATIONS))
    def test_single_leaf_mutations(self, validators, case):
        name, mutation = case
        check_agrees(name, mutate(CONFIGS[name], mutation), validators)


class TestSchemaKeywords:
    def _keywords(self, schema, where):
        """(where, keyword, schema) for every keyword in a schema and its subschemas."""
        for keyword, value in schema.items():
            yield where, keyword, schema
            if keyword in NAMED_SUBSCHEMAS:
                for key, sub in value.items():
                    yield from self._keywords(sub, f"{where}/{keyword}/{key}")
            elif keyword in SUBSCHEMAS and isinstance(value, dict):
                yield from self._keywords(value, f"{where}/{keyword}")
            elif keyword == "oneOf":
                for i, sub in enumerate(value):
                    yield from self._keywords(sub, f"{where}/oneOf/{i}")

    @pytest.mark.parametrize("path", [SCHEMA_DIR / "common.schema.json",
                                      *sorted(SCHEMA_DIR.glob("*_config.schema.json"))],
                             ids=lambda p: p.name)
    def test_every_keyword_is_implemented(self, path):
        schema = json.loads(path.read_text(encoding="utf-8"))
        found = list(self._keywords(schema, "#"))
        assert [(where, keyword) for where, keyword, _ in found
                if keyword not in IMPLEMENTED | ANNOTATIONS] == []
        for where, keyword, node in found:
            if keyword == "type":
                assert node["type"] in validation._TYPES, where
            if keyword == "$ref":
                # The interpreter follows a reference in place of the schema holding it.
                assert list(node) == ["$ref"], where
            if keyword == "not":
                # The only form whose diagnostic the interpreter can word.
                assert list(node["not"]) == ["required"], where
            if keyword == "additionalProperties":
                # Only the closed form: every member an object takes is a named property.
                assert node["additionalProperties"] is False, where

    def test_config_schemas_are_one_copy(self):
        docs = REPO / "docs" / "schemas"
        assert docs.is_symlink()
        assert docs.resolve() == SCHEMA_DIR.resolve() == validation._SCHEMA_DIR.resolve()

    def test_enums_match_the_python_enums(self):
        common = json.loads((SCHEMA_DIR / "common.schema.json").read_text(encoding="utf-8"))
        assert common["$defs"]["technology"]["enum"] == [t.value for t in Technology]
        assert common["$defs"]["componentRole"]["enum"] == [r.value for r in ComponentRole]


class TestVerdicts:
    """Where the hand-written validator and the schemas disagreed, the schema wins."""

    def test_integer_valued_floats_are_integers(self):
        doc = copy.deepcopy(CONFIGS["network"])
        doc["mesh"]["rows"] = 16.0
        doc["noc"]["flit_bits"] = 64.0
        assert validate_config(doc) == []
        doc["mesh"]["rows"] = 16.5
        assert [str(d) for d in validate_config(doc)] == ["$.mesh.rows: must be an integer"]

    def test_notes_must_be_a_string(self):
        doc = dict(CONFIGS["device"], notes=3)
        assert [str(d) for d in validate_config(doc)] == ["$.notes: must be a string"]

    def test_null_flit_sweep_is_rejected(self):
        doc = dict(CONFIGS["network"], flit_sweep=None)
        assert [str(d) for d in validate_config(doc)] == ["$.flit_sweep: must be an object"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_numbers_must_be_finite(self, value):
        doc = copy.deepcopy(CONFIGS["network"])
        doc["mesh"]["spacing_m"] = value
        doc["noc"]["flit_bits"] = value
        assert [str(d) for d in validate_config(doc)] == [
            "$.mesh.spacing_m: must be finite", "$.noc.flit_bits: must be finite"]

    def test_unknown_technology_is_an_unknown_key(self):
        doc = copy.deepcopy(CONFIGS["network"])
        doc["noc"]["link_templates"]["quantum"] = doc["noc"]["link_templates"]["electronic"]
        assert [str(d) for d in validate_config(doc)] == [
            "$.noc.link_templates.quantum: unknown key"]

    def test_one_diagnostic_per_value(self):
        doc = copy.deepcopy(CONFIGS["link"])
        electronic = next(link for link in doc["links"] if link["name"] == "electronic")
        electronic["repeater_spacing_m"] = "x"
        electronic["cost_curve"] = {"initial_unit_cost": 1.0, "halving_period": 2.0,
                                    "reference_time": 2016.0}
        electronic["cost_curve_csv"] = 3
        i = doc["links"].index(electronic)
        assert sorted(str(d) for d in validate_config(doc)) == sorted([
            f"$.links[{i}]: cost_curve and cost_curve_csv are mutually exclusive",
            f"$.links[{i}].cost_curve_csv: must be a string",
            f"$.links[{i}].repeater_spacing_m: must be a number"])

    def test_wrong_transport_kind_reports_the_closest_alternative(self):
        doc = copy.deepcopy(CONFIGS["link"])
        transport = next(link["transport"] for link in doc["links"]
                         if link["transport"]["kind"] == "optical")
        transport["kind"] = "magnetic"
        assert [d.message for d in validate_config(doc)] == ["must be optical"]

    @pytest.mark.parametrize("traffic,message", [
        ({"hotspot_count": 3}, "$.traffic.hotspot_count: unknown key"),
        ({"locality_scale_hops": 0.5}, "$.traffic.locality_scale_hops: unknown key"),
        ({"hotspot_fraction": 0.9}, "$.traffic.hotspot_fraction: unknown key"),
        ({"pattern": "exponential_locality", "hotspot_fraction": 0.9},
         "$.traffic.hotspot_fraction: unknown key"),
        ({"pattern": "foo"},
         "$.traffic.pattern: must be one of uniform, hotspot, exponential_locality"),
    ], ids=["uniform_hotspot_count", "uniform_locality_scale", "uniform_hotspot_fraction",
            "locality_hotspot_fraction", "unknown_pattern"])
    def test_a_traffic_knob_its_pattern_does_not_read_is_refused(self, tmp_path, capsys,
                                                                 traffic, message):
        # Each pattern's alternative is closed to its own knobs; a value is reported
        # against the alternative of its pattern, even where another is as close.
        doc = copy.deepcopy(CONFIGS["network"])
        doc["traffic"].update(traffic)
        assert [str(d) for d in validate_config(doc)] == [message]
        config = tmp_path / "network.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["network", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f'clearfom: error code=1 kind=validation msg="invalid config: {message}"\n')
        assert not out.exists()


class TestIntegerFieldsAsFloats:
    def test_network_artifacts_identical(self, tmp_path):
        doc = CONFIGS["network"]
        floats = copy.deepcopy(doc)
        floats["mesh"]["rows"] = float(doc["mesh"]["rows"])
        floats["mesh"]["cols"] = float(doc["mesh"]["cols"])
        floats["noc"]["flit_bits"] = float(doc["noc"]["flit_bits"])
        floats["noc"]["router_pipeline_clks"] = float(doc["noc"]["router_pipeline_clks"])
        express = next(c["express"] for c in floats["cases"] if "express" in c)
        express["hop_span"] = float(express["hop_span"])
        floats["flit_sweep"]["flit_bits"] = [float(v) for v in doc["flit_sweep"]["flit_bits"]]
        hashes = []
        for label, variant in (("ints", doc), ("floats", floats)):
            config = tmp_path / f"{label}.json"
            config.write_text(json.dumps(variant), encoding="utf-8")
            out = tmp_path / label
            assert main(["network", "--config", str(config), "--seed", "7",
                         "--out", str(out), "--format", "csv,json"]) == 0
            hashes.append(_hash_tree(out))
        assert hashes[0] == hashes[1]
        assert "network_report.json" in hashes[0]

    def test_float_hotspot_node_gives_same_traffic(self, tmp_path):
        from clearfom.network import generate_traffic

        matrices = []
        for node in (3, 3.0):
            doc = copy.deepcopy(CONFIGS["network"])
            # Four columns: the shipped express case spans three.
            doc["mesh"] = {"rows": 3, "cols": 4, "spacing_m": 1e-3}
            doc["traffic"] = {"pattern": "hotspot", "injection_bps_per_node": 1e9,
                              "hotspot_nodes": [node], "hotspot_fraction": 0.5}
            path = tmp_path / "network.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            config = load_network_config(path)
            assert config.traffic_params.hotspot_nodes == (3,)
            assert type(config.traffic_params.hotspot_nodes[0]) is int
            matrices.append(generate_traffic(config.traffic_pattern, config.traffic_params,
                                             config.cases["electronic"], 7).rates)
        assert np.array_equal(matrices[0], matrices[1])


LOADERS = {"device": load_device_config, "link": load_link_config,
           "network": load_network_config, "trend": load_trend_config}

# For each optional config key, a valid value that differs from the default of
# the field it fills and from the shipped configs. No loader reads ``notes``.
OPTIONAL_VALUES = {
    "band_db": 3.0,
    "bandwidth_hz": 7e9, "energy_j_per_bit": 7e-15, "area_m2": 7e-10, "cost_usd": 0.07,
    "delay_s": 7e-12, "lanes": 3, "wdm_channels": 3, "per_channel_rate_cap_bps": 7e9,
    "repeater_spacing_m": 3e-4, "cost_curve_csv": "costs.csv",
    "cost_curve": {"initial_unit_cost": 5.0, "halving_period": 4.0, "reference_time": 2016.0},
    "hotspot_fraction": 0.25, "hotspot_nodes": [3], "hotspot_count": 2,
    "locality_scale_hops": 2.0,
    "halving_period_years": 4.0, "reference_year": 2020.0,
    "express": {"hop_span": 2, "technology": "hybrid"},
    "flit_sweep": {"flit_bits": [16]},
}
# A traffic knob is read by one pattern: it is set with that pattern.
KNOB_PATTERNS = {"hotspot_fraction": "hotspot", "hotspot_nodes": "hotspot",
                 "hotspot_count": "hotspot", "locality_scale_hops": "exponential_locality"}
# Objects whose named properties are members of one kind, each a NoC
# technology or a die: the walker treats every member as ``*``.
MEMBER_TABLES = {("noc", "link_templates"), ("noc", "wafer_cost_usd_per_m2")}


def _optional_keys(schema, base, path=(), named=()):
    """(path, key) of every optional property below ``schema`` but ``notes`` and
    those in ``named``; ``*`` in a path stands for any array item or object member."""
    schema, base = validation._resolve(schema, base)
    properties = schema.get("properties", {})
    for sub in schema.get("oneOf", ()):
        # An alternative's own keys are new; the ones the schema names are not.
        yield from _optional_keys(sub, base, path, named=properties)
    if path in MEMBER_TABLES:
        members = list(properties.values())
        for i, sub in enumerate(members):
            if sub not in members[:i]:
                yield from _optional_keys(sub, base, path + ("*",))
        return
    for key, sub in properties.items():
        if key in named:
            continue
        if key not in schema.get("required", ()) and key != "notes":
            yield path, key
        yield from _optional_keys(sub, base, path + (key,))
    if "items" in schema:
        yield from _optional_keys(schema["items"], base, path + ("*",))


def _locations(value, path, where=()):
    """The concrete location of every node of ``value`` at ``path``, in document order."""
    if not path:
        yield where
        return
    head, rest = path[0], path[1:]
    if head != "*":
        keys = [head] if isinstance(value, dict) and head in value else []
    else:
        keys = range(len(value)) if isinstance(value, list) else list(value)
    for key in keys:
        yield from _locations(value[key], rest, where + (key,))


OPTIONAL_KEYS = [pytest.param(name, path, key, id=f"{name}:" + ".".join(("$", *path, key)))
                 for name in CONFIGS
                 for path, key in _optional_keys(validation._schema(f"{name}_config.schema.json"),
                                                 f"{name}_config.schema.json")]


class TestEveryOptionalKeyIsLoaded:
    """A loader fills a field from each key of the same name and skips the rest,
    so a key whose name no field has would be dropped without a word."""

    def _load(self, name, doc, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "records.csv").write_bytes(
            example_path("trend/sample_synthetic_systems.csv").read_bytes())
        (tmp_path / "costs.csv").write_text("year,cost_usd\n2010,10.0\n2020,5.0\n",
                                            encoding="utf-8")
        return LOADERS[name](path)

    def test_every_config_has_optional_keys(self):
        # A device config's only optional key is ``notes``, which no loader reads.
        assert {param.values[0] for param in OPTIONAL_KEYS} == set(CONFIGS) - {"device"}

    @pytest.mark.parametrize("name, path, key", OPTIONAL_KEYS)
    def test_a_non_default_value_changes_the_config(self, tmp_path, name, path, key):
        base = copy.deepcopy(CONFIGS[name])
        if key in KNOB_PATTERNS:
            base["traffic"]["pattern"] = KNOB_PATTERNS[key]
        # Set the key on the first node at its path where the loader takes the config.
        for where in _locations(base, path):
            doc = copy.deepcopy(base)
            node = doc
            for part in where:
                node = node[part]
            node[key] = OPTIONAL_VALUES[key]
            try:
                loaded = self._load(name, doc, tmp_path)
                break
            except ClearError:
                continue
        else:
            pytest.fail(f"no node of the shipped {name} config takes {key} and loads")
        assert loaded != self._load(name, base, tmp_path)


def _scan_network():
    """The shipped network config on a 4 x 4 mesh, whose express links span 2 hops."""
    doc = copy.deepcopy(CONFIGS["network"])
    doc["mesh"].update(rows=4, cols=4)
    for case in doc["cases"]:
        if "express" in case:
            case["express"]["hop_span"] = 2
    return doc


# The configs the leaf scan evaluates, with their report functions and options.
# An evaluation year makes the wafer-rate and cost-curve keys count.
SCANNED = {"device": (CONFIGS["device"], report_device, {}),
           "link": (CONFIGS["link"], report_link, {"eval_year": 2020.0}),
           "network": (_scan_network(), report_network, {"seed": 1, "eval_year": 2020.0})}
# Smallest first: the scan stops at the first scale that moves the outcome,
# so a mesh dimension shrinks before it could grow a thousandfold.
LEAF_SCALES = (1e-3, 0.5, 2.0, 1e3)
NUMERIC_LEAVES = [
    pytest.param(name, path, value, id=f"{name}:$" + "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in path))
    for name, (doc, _, _) in SCANNED.items()
    for path, value in _nodes(doc) if type(value) in (int, float)]


def _outcome(name, doc):
    """The JSON report and CSV tables of ``name`` on ``doc``, or the class of its refusal."""
    _, report, options = SCANNED[name]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        try:
            result = report(LOADERS[name](config), **options)
        except ClearError as exc:
            return type(exc)
    # repr tells -0.0 from 0.0, as the artifact bytes do.
    return repr((result.json, result.csv))


@functools.cache
def _scanned_outcome(name):
    return _outcome(name, SCANNED[name][0])


class TestEveryNumericLeafCounts:
    """A shipped number that no scale of it moves reaches no artifact: nothing
    prices it, so the config states a figure the model ignores."""

    @pytest.mark.parametrize("name, path, value", NUMERIC_LEAVES)
    def test_some_scale_changes_the_outcome(self, name, path, value):
        doc = SCANNED[name][0]
        for scale in LEAF_SCALES:
            scaled = (value or 1e-12) * scale
            if isinstance(value, int):
                scaled = max(1, round(scaled))
            if _outcome(name, mutate(doc, ("replace", path, scaled))) != _scanned_outcome(name):
                return
        pytest.fail(f"no scale in {LEAF_SCALES} changes the refusal or an artifact")


def _run_mutated(command, doc, extra=()):
    """The exit code of ``command`` on ``doc``, and what it printed on stderr."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out"),
                     "--format", "csv,json", *extra])
    return code, err.getvalue()


class TestCliNeverRaises:
    """Every mutated config ends in exit code 0-3, never in a traceback, and no
    error reaches the catch-all for arithmetic outside the model's numeric range."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(name, m) for name, m in MUTATIONS if name in ("device", "link")]))
    def test_device_and_link(self, case):
        name, mutation = case
        code, err = _run_mutated(name, mutate(CONFIGS[name], mutation))
        assert code in (0, 1, 2, 3) and "numeric range" not in err

    @pytest.fixture(scope="class")
    def small_network(self, tmp_path_factory):
        path = _small_network_config(tmp_path_factory.mktemp("net"))
        doc = json.loads(path.read_text(encoding="utf-8"))
        return doc, mutations(doc)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_small_network(self, small_network, data):
        doc, found = small_network
        mutation = data.draw(st.sampled_from(found))
        code, err = _run_mutated("network", mutate(doc, mutation), ("--seed", "7"))
        assert code in (0, 1, 2, 3) and "numeric range" not in err
