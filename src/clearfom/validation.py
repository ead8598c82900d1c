"""Config loading: from a ``--config`` path to the typed config a command runs.

Each ``load_*_config`` takes the path of a config file and does every step
between that file and the domain objects: it reads and decodes the JSON,
validates it, checks its ``kind``, reads the CSV inputs it names and builds
the typed config. No loader runs on an unchecked document. A config key
fills the field of the same name, and an optional key that is left out takes
that field's default; the defaults live on the domain types (``LinkComponent``,
``TrafficParams``, ...) and on ``TrendConfig`` here. A relative CSV
path in a config (``cost_curve_csv``, ``records_csv``) names a file relative
to the directory of the config file, never to the working directory. A
config or CSV that cannot be read raises :class:`~clearfom.ioutil.IoError`;
every other bad input raises a :class:`~clearfom.errors.ConfigurationError`
or :class:`~clearfom.errors.DomainError` that names it.

The JSON Schemas shipped as package data in ``clearfom/schemas`` state the
config rules. :func:`validate_config` interprets the subset of JSON Schema
2020-12 that those schemas use: it walks the whole document, collects every
problem with a JSONPath-style location (it is not fail-fast) and gives each
failing value one diagnostic. Only two rules live in Python, because a
schema cannot state them: numbers must be finite (Python's ``json`` parses
NaN and Infinity), and names must be unique (:func:`_cross_field_errors`).
Every other rule on values lives on the domain type that reads them.

Each loader imports the domain types it builds, so a config loads only its
own model: :mod:`clearfom.network`, say, only for a network config.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections.abc import Mapping
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from .constants import DEFAULT_TREND_BAND_DB
from .errors import ConfigurationError, DomainError
from .ioutil import IoError
from .metric import Technology

if TYPE_CHECKING:
    from .device import DeviceSpec
    from .economics import ExperienceCurve
    from .link import LinkSpec
    from .network import MeshTopology, NocConfig, TrafficParams, TrafficPattern
    from .trend import SystemRecord

__all__ = [
    "Diagnostic",
    "validate_config",
    "DeviceConfig",
    "LinkConfig",
    "NetworkConfig",
    "TrendConfig",
    "load_device_config",
    "load_link_config",
    "load_network_config",
    "load_trend_config",
    "link_activity_csv",
    "CONFIG_KINDS",
]

_SCHEMA_DIR = Path(__file__).parent / "schemas"
_CONFIG_SCHEMAS = {
    "device_comparison": "device_config.schema.json",
    "link_comparison": "link_config.schema.json",
    "network_comparison": "network_config.schema.json",
    "trend": "trend_config.schema.json",
}
CONFIG_KINDS = tuple(_CONFIG_SCHEMAS)

# JSON Schema type -> (Python classes, noun for the message).
_TYPES = {
    "object": (Mapping, "an object"),
    "array": (list, "an array"),
    "string": (str, "a string"),
    "number": ((int, float), "a number"),
    "integer": ((int, float), "an integer"),
}
# Bound keyword -> (test the value must pass, words for the message).
_BOUNDS = {
    "exclusiveMinimum": (operator.gt, "greater than"),
    "minimum": (operator.ge, "at least"),
    "maximum": (operator.le, "at most"),
}


class Diagnostic(NamedTuple):
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@cache
def _schema(name: str) -> dict:
    """One shipped schema document, read on first use."""
    return json.loads((_SCHEMA_DIR / name).read_text(encoding="utf-8"))


def _value_problem(value, schema: Mapping) -> str | None:
    """The first of type, const, enum, bounds and minItems that ``value`` breaks."""
    if "type" in schema:
        classes, noun = _TYPES[schema["type"]]
        if not isinstance(value, classes) or isinstance(value, bool):
            return f"must be {noun}"
        if isinstance(value, float) and not math.isfinite(value):
            return "must be finite"
        if schema["type"] == "integer" and isinstance(value, float) and not value.is_integer():
            return f"must be {noun}"
    if "const" in schema and value != schema["const"]:
        return f"must be {schema['const']}"
    if "enum" in schema and value not in schema["enum"]:
        return "must be one of " + ", ".join(map(str, schema["enum"]))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        for key, (holds, words) in _BOUNDS.items():
            if key in schema and not holds(value, schema[key]):
                return f"must be {words} {schema[key]}"
    if isinstance(value, list) and len(value) < schema.get("minItems", 0):
        return f"must have at least {schema['minItems']} item(s)"
    return None


def _resolve(schema: Mapping, base: str) -> tuple[Mapping, str]:
    """``schema`` with its ``$ref`` followed, and the file that its ``#`` references name."""
    while "$ref" in schema:
        target, _, pointer = schema["$ref"].partition("#")
        base = target or base
        schema = _schema(base)
        for part in pointer.split("/")[1:]:
            schema = schema[part]
    return schema, base


def _meets_consts(value, schema: Mapping, base: str) -> bool:
    """Whether ``value`` is an object with every member that ``schema`` fixes by ``const``."""
    properties = _resolve(schema, base)[0].get("properties", {})
    return isinstance(value, Mapping) and all(
        value.get(key) == sub["const"] for key, sub in properties.items() if "const" in sub)


def _errors(value, schema: Mapping, path: str, base: str) -> list[Diagnostic]:
    """Diagnostics for ``value`` under ``schema``; ``#`` references resolve in ``base``."""
    schema, base = _resolve(schema, base)
    problem = _value_problem(value, schema)
    if problem:
        return [Diagnostic(path, problem)]
    out = []
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            out += _errors(item, schema["items"], f"{path}[{i}]", base)
    if isinstance(value, Mapping):
        out += _object_errors(value, schema, path, base)
    # The schemas use ``not`` only as {"required": [...]}: keys that exclude each other.
    if "not" in schema and not _errors(value, schema["not"], path, base):
        out.append(Diagnostic(path, " and ".join(schema["not"]["required"])
                              + " are mutually exclusive"))
    if "oneOf" in schema:
        branches = [_errors(value, sub, path, base) for sub in schema["oneOf"]]
        matched = branches.count([])
        if matched == 0:
            # Report against the alternative whose const members the value meets, else
            # the closest one; where this schema's own keywords reported a value (an
            # enum, an unknown key), that diagnostic stands alone.
            met = [errors for sub, errors in zip(schema["oneOf"], branches)
                   if _meets_consts(value, sub, base)]
            flagged = {d.path for d in out}
            out += [d for d in min(met or branches, key=len) if d.path not in flagged]
        elif matched > 1:
            out.append(Diagnostic(path, "matches more than one alternative"))
    return out


def _object_errors(value: Mapping, schema: Mapping, path: str, base: str) -> list[Diagnostic]:
    out = [Diagnostic(f"{path}.{key}", "required key is missing")
           for key in schema.get("required", ()) if key not in value]
    properties = schema.get("properties", {})
    for key, item in value.items():
        where = f"{path}.{key}"
        if key in properties:
            out += _errors(item, properties[key], where, base)
        elif schema.get("additionalProperties") is False:
            out.append(Diagnostic(where, "unknown key"))
    for key, needed in schema.get("dependentRequired", {}).items():
        if key in value:
            out += [Diagnostic(path, f"{key} requires {other}")
                    for other in needed if other not in value]
    return out


def link_activity_csv(label: str) -> str:
    """The file of a network case's link loads; no two case labels may give one name."""
    return f"link_activity_{re.sub(r'[^a-z0-9]+', '_', label.lower()).strip('_')}.csv"


# Config kind -> the list whose items must differ, and the member that names an item.
_NAMED_ITEMS = {"device_comparison": ("devices", "name"), "link_comparison": ("links", "name"),
                "network_comparison": ("cases", "label")}


def _cross_field_errors(doc: Mapping) -> list[Diagnostic]:
    """Names that must be unique: the one rule that the schemas cannot state.

    A device or link name keys its rows in the shared radar and sweep tables, and a case
    label names its link activity file. Only string names of object items are read, so the
    rule never reports at a path where the schema pass does (an empty or non-list value).
    """
    if doc["kind"] not in _NAMED_ITEMS:  # a trend config names no items
        return []
    items, member = _NAMED_ITEMS[doc["kind"]]
    listed = doc.get(items)
    seen: dict[str, str] = {}  # what must differ -> the first name that has it
    for item in listed if isinstance(listed, list) else ():
        name = item.get(member) if isinstance(item, Mapping) else None
        if not isinstance(name, str):
            continue
        key = link_activity_csv(name) if items == "cases" else name
        if key in seen:
            clash = f": {seen[key]!r} and {name!r} both write {key}" if items == "cases" else ""
            return [Diagnostic(f"$.{items}", f"{items[:-1]} {member}s must be unique{clash}")]
        seen[key] = name
    return []


def validate_config(doc: Any) -> list[Diagnostic]:
    """Validate a parsed config document; an empty list means it is clean."""
    if not isinstance(doc, Mapping):
        return [Diagnostic("$", "must be an object")]
    kind = doc.get("kind")
    if kind not in CONFIG_KINDS:
        return [Diagnostic("$.kind", f"must be one of {', '.join(CONFIG_KINDS)}")]
    name = _CONFIG_SCHEMAS[kind]
    return _errors(doc, _schema(name), "$", name) + _cross_field_errors(doc)


def _read_config(path: str | Path, kind: str) -> Mapping:
    """The config document at ``path``, which must be a valid ``kind`` config."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, nesting too deep
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    diagnostics = validate_config(doc)
    if diagnostics:
        raise ConfigurationError("invalid config: " + "; ".join(map(str, diagnostics)))
    if doc["kind"] != kind:
        raise ConfigurationError(
            f"config kind '{doc['kind']}' does not match the '{kind}' command")
    return doc


# ---------------------------------------------------------------------------
# Loaders.

class DeviceConfig(NamedTuple):
    temperature_k: float
    devices: tuple[DeviceSpec, ...]


class LinkConfig(NamedTuple):
    temperature_k: float
    lengths_m: tuple[float, ...]
    links: tuple[LinkSpec, ...]


class NetworkConfig(NamedTuple):
    cases: Mapping[str, MeshTopology]  # label -> mesh in config order, all of one shape
    traffic_pattern: TrafficPattern
    traffic_params: TrafficParams
    noc: NocConfig
    flit_sizes: tuple[int, ...] | None  # the sweep compares each case with the first


class TrendConfig(NamedTuple):
    records: tuple[SystemRecord, ...]
    records_csv: Path  # the records' file, which a fit error names
    band_db: float = DEFAULT_TREND_BAND_DB


# A field annotated exactly ``float`` or ``int`` converts its value: JSON has one
# number type, and the schemas accept ``16.0`` for an integer.
_NUMBER_FIELDS = {"float": float, "int": int}


def _build(cls, obj: Mapping, **given):
    """A ``cls`` from the keys of ``obj`` that name its fields; ``given`` adds or overrides.

    A field that neither fills takes its default. A value for a field that is not a plain number
    passes through as it is. Annotations are ForwardRefs, on a checked record's NamedTuple base.
    """
    types = next(klass.__annotations__ for klass in cls.__mro__ if klass.__annotations__)
    for name in cls._fields:
        if name in obj and name not in given:
            convert = _NUMBER_FIELDS.get(types[name].__forward_arg__)
            given[name] = convert(obj[name]) if convert else obj[name]
    return cls(**given)


def _load_link(obj: Mapping, name: str, technology: str, length_m: float,
               cost_curve: ExperienceCurve | None = None) -> LinkSpec:
    """One link body: a link-config entry, or a NoC link template."""
    from .link import ElectricalTransport, LinkComponent, LinkSpec, OpticalTransport
    transport = obj["transport"]
    kind = ElectricalTransport if transport["kind"] == "electrical" else OpticalTransport
    return _build(LinkSpec, obj, name=name, technology=technology, length_m=length_m,
                  components=tuple(_build(LinkComponent, c) for c in obj["components"]),
                  transport=_build(kind, transport), cost_curve=cost_curve)


def load_device_config(path: str | Path) -> DeviceConfig:
    from .device import DeviceSpec
    doc = _read_config(path, "device_comparison")
    return _build(DeviceConfig, doc,
                  devices=tuple(_build(DeviceSpec, entry) for entry in doc["devices"]))


def load_link_config(path: str | Path) -> LinkConfig:
    from .economics import ExperienceCurve, fit_experience_curve, load_cost_observations
    doc = _read_config(path, "link_comparison")
    lengths = tuple(float(v) for v in doc["lengths_m"])
    links = []
    for entry in doc["links"]:
        if "cost_curve" in entry:
            curve = _build(ExperienceCurve, entry["cost_curve"])
        elif "cost_curve_csv" in entry:
            csv_path = Path(path).parent / entry["cost_curve_csv"]
            observations = load_cost_observations(csv_path)
            try:  # too few observations or distinct years, or a cost that is not positive
                curve = fit_experience_curve(observations).curve
            except DomainError as exc:
                raise DomainError(f"{csv_path}: {exc}") from exc
        else:
            curve = None
        links.append(_load_link(entry, entry["name"], entry["technology"], lengths[0], curve))
    return _build(LinkConfig, doc, lengths_m=lengths, links=tuple(links))


def load_network_config(path: str | Path) -> NetworkConfig:
    from .economics import ExperienceCurve
    from .network import (
        NocConfig,
        RouterModel,
        TrafficParams,
        TrafficPattern,
        add_express_links,
        build_mesh,
    )

    doc = _read_config(path, "network_comparison")
    mesh = doc["mesh"]
    traffic = doc["traffic"]
    hotspots = ({"hotspot_nodes": tuple(int(v) for v in traffic["hotspot_nodes"])}
                if "hotspot_nodes" in traffic else {})
    noc_doc = doc["noc"]
    rows, cols, spacing_m = int(mesh["rows"]), int(mesh["cols"]), float(mesh["spacing_m"])
    templates = {Technology(tech): _load_link(body, f"{tech}-noc-link", tech, spacing_m)
                 for tech, body in noc_doc["link_templates"].items()}
    # A wafer rate without a halving period is flat: an infinite halving period.
    wafer = {
        die: ExperienceCurve(
            initial_unit_cost=float(entry["usd_per_m2"]),
            halving_period=float(entry.get("halving_period_years", math.inf)),
            reference_time=float(entry.get("reference_year", 0.0)),
        )
        for die, entry in noc_doc["wafer_cost_usd_per_m2"].items()}
    noc = _build(
        NocConfig, noc_doc,
        router=_build(RouterModel, noc_doc["router"]),
        link_templates=templates,
        wafer_cost=wafer,
    )
    cases = {}
    for entry in doc["cases"]:
        topology = build_mesh(rows, cols, spacing_m, entry["technology"])
        if "express" in entry:
            express = entry["express"]
            topology = add_express_links(topology, int(express["hop_span"]),
                                         express["technology"])
        cases[entry["label"]] = topology
    sweep = doc.get("flit_sweep")
    return _build(
        NetworkConfig, doc,
        cases=cases,
        traffic_pattern=TrafficPattern(traffic["pattern"]),
        traffic_params=_build(TrafficParams, traffic, **hotspots),
        noc=noc,
        flit_sizes=tuple(int(v) for v in sweep["flit_bits"]) if sweep else None,
    )


def load_trend_config(path: str | Path) -> TrendConfig:
    from .trend import load_system_records
    doc = _read_config(path, "trend")
    records_csv = Path(path).parent / doc["records_csv"]
    records = tuple(load_system_records(records_csv))
    return _build(TrendConfig, doc, records=records, records_csv=records_csv)
