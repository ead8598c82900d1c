"""Config document validation and loading.

Validation walks a whole parsed JSON document, collects every problem (it is
not fail-fast), and rejects unknown keys. Loaders assume a clean validation
pass and build domain objects; the CLI runs them in that order. The NoC types
come from :mod:`clearfom.network`, which needs numpy, so they are imported
only on the ``network_comparison`` validation and loading paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from .device import DeviceSpec
from .economics import ExperienceCurve, fit_experience_curve, load_cost_observations
from .errors import ConfigurationError
from .link import (
    ComponentRole,
    ElectricalTransport,
    LinkComponent,
    LinkSpec,
    OpticalTransport,
)
from .metric import Technology

if TYPE_CHECKING:
    from .network import NocConfig, TrafficParams, TrafficPattern

__all__ = [
    "Diagnostic",
    "validate_config",
    "DeviceConfig",
    "LinkConfig",
    "NetworkCaseSpec",
    "NetworkConfig",
    "TrendConfig",
    "load_device_config",
    "load_link_config",
    "load_network_config",
    "load_trend_config",
    "CONFIG_KINDS",
]

TECHNOLOGIES = tuple(t.value for t in Technology)
ROLES = tuple(r.value for r in ComponentRole)
CONFIG_KINDS = ("device_comparison", "link_comparison", "network_comparison", "trend")


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class _Check:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def error(self, path: str, message: str):
        self.diagnostics.append(Diagnostic(path=path, message=message))

    def mapping(self, value, path) -> Mapping | None:
        if not isinstance(value, Mapping):
            self.error(path, "must be an object")
            return None
        return value

    def keys(self, obj: Mapping, path: str, required: tuple, optional: tuple = ()) -> bool:
        ok = True
        for key in required:
            if key not in obj:
                self.error(f"{path}.{key}", "required key is missing")
                ok = False
        allowed = set(required) | set(optional)
        for key in obj:
            if key not in allowed:
                self.error(f"{path}.{key}", "unknown key")
                ok = False
        return ok

    def number(self, obj: Mapping, key: str, path: str, *,
               minimum=None, exclusive_minimum=None, maximum=None) -> float | None:
        if key not in obj:
            return None
        value = obj[key]
        full = f"{path}.{key}"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(full, "must be a number")
            return None
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            self.error(full, "must be finite")
            return None
        if exclusive_minimum is not None and value <= exclusive_minimum:
            self.error(full, f"must be greater than {exclusive_minimum}")
            return None
        if minimum is not None and value < minimum:
            self.error(full, f"must be at least {minimum}")
            return None
        if maximum is not None and value > maximum:
            self.error(full, f"must be at most {maximum}")
            return None
        return value

    def integer(self, obj: Mapping, key: str, path: str, *, minimum=None) -> int | None:
        if key not in obj:
            return None
        value = obj[key]
        full = f"{path}.{key}"
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(full, "must be an integer")
            return None
        if minimum is not None and value < minimum:
            self.error(full, f"must be at least {minimum}")
            return None
        return value

    def string(self, obj: Mapping, key: str, path: str, *, choices=None) -> str | None:
        if key not in obj:
            return None
        value = obj[key]
        full = f"{path}.{key}"
        if not isinstance(value, str):
            self.error(full, "must be a string")
            return None
        if choices is not None and value not in choices:
            self.error(full, f"must be one of {', '.join(choices)}")
            return None
        return value

    def array(self, obj: Mapping, key: str, path: str, *, min_items=0) -> list | None:
        if key not in obj:
            return None
        value = obj[key]
        full = f"{path}.{key}"
        if not isinstance(value, list):
            self.error(full, "must be an array")
            return None
        if len(value) < min_items:
            self.error(full, f"must have at least {min_items} item(s)")
            return None
        return value


def _validate_curve(check: _Check, obj, path: str):
    obj = check.mapping(obj, path)
    if obj is None:
        return
    check.keys(obj, path, required=("initial_unit_cost", "halving_period", "reference_time"))
    check.number(obj, "initial_unit_cost", path, exclusive_minimum=0.0)
    check.number(obj, "halving_period", path, exclusive_minimum=0.0)
    check.number(obj, "reference_time", path)


def _validate_component(check: _Check, obj, path: str):
    obj = check.mapping(obj, path)
    if obj is None:
        return
    check.keys(obj, path, required=("name", "role"),
               optional=("bandwidth_hz", "energy_j_per_bit", "area_m2", "cost_usd",
                         "delay_s", "insertion_loss_db", "output_swing_v"))
    check.string(obj, "name", path)
    check.string(obj, "role", path, choices=ROLES)
    for key in ("bandwidth_hz", "energy_j_per_bit", "area_m2", "cost_usd",
                "delay_s", "insertion_loss_db"):
        check.number(obj, key, path, minimum=0.0)
    check.number(obj, "output_swing_v", path, exclusive_minimum=0.0)


def _validate_transport(check: _Check, obj, path: str):
    obj = check.mapping(obj, path)
    if obj is None:
        return
    kind = check.string(obj, "kind", path, choices=("electrical", "optical"))
    if "kind" not in obj:
        check.error(f"{path}.kind", "required key is missing")
        return
    if kind == "electrical":
        check.keys(obj, path,
                   required=("kind", "capacitance_f_per_m", "resistance_ohm_per_m",
                             "voltage_swing_v"),
                   optional=("lanes",))
        check.number(obj, "capacitance_f_per_m", path, minimum=0.0)
        check.number(obj, "resistance_ohm_per_m", path, minimum=0.0)
        check.number(obj, "voltage_swing_v", path, exclusive_minimum=0.0)
        check.integer(obj, "lanes", path, minimum=1)
    elif kind == "optical":
        check.keys(obj, path,
                   required=("kind", "loss_db_per_m", "group_index", "launch_power_w",
                             "detector_sensitivity_w"),
                   optional=("wdm_channels", "per_channel_rate_cap_bps"))
        check.number(obj, "loss_db_per_m", path, minimum=0.0)
        check.number(obj, "group_index", path, minimum=1.0)
        check.number(obj, "launch_power_w", path, exclusive_minimum=0.0)
        check.number(obj, "detector_sensitivity_w", path, exclusive_minimum=0.0)
        check.integer(obj, "wdm_channels", path, minimum=1)
        check.number(obj, "per_channel_rate_cap_bps", path, exclusive_minimum=0.0)


def _validate_link_body(check: _Check, obj: Mapping, path: str):
    """Shared structure of standalone links and NoC link templates."""
    components = check.array(obj, "components", path)
    if components is not None:
        for i, comp in enumerate(components):
            _validate_component(check, comp, f"{path}.components[{i}]")
    check.number(obj, "cross_section_width_m", path, minimum=0.0)
    spacing = check.number(obj, "repeater_spacing_m", path, exclusive_minimum=0.0)
    if "transport" in obj:
        _validate_transport(check, obj["transport"], f"{path}.transport")
    if spacing is not None and isinstance(components, list):
        # A role of the wrong type already has its own diagnostic above.
        roles = {c.get("role") for c in components
                 if isinstance(c, Mapping) and isinstance(c.get("role"), str)}
        if "repeater" not in roles:
            check.error(f"{path}.repeater_spacing_m",
                        "repeater_spacing_m requires a component with role 'repeater'")


def _validate_device_config(check: _Check, doc: Mapping):
    check.keys(doc, "$", required=("kind", "temperature_k", "devices"),
               optional=("floor_margin", "cost_efficiency_axis", "notes"))
    check.number(doc, "temperature_k", "$", exclusive_minimum=0.0)
    check.number(doc, "floor_margin", "$", exclusive_minimum=1.0)
    check.number(doc, "cost_efficiency_axis", "$", exclusive_minimum=0.0)
    devices = check.array(doc, "devices", "$", min_items=1)
    if devices is None:
        return
    for i, entry in enumerate(devices):
        path = f"$.devices[{i}]"
        obj = check.mapping(entry, path)
        if obj is None:
            continue
        check.keys(obj, path,
                   required=("name", "technology", "capability_hz", "critical_length_m",
                             "energy_j_per_bit", "footprint_m2", "unit_cost_usd"))
        check.string(obj, "name", path)
        check.string(obj, "technology", path, choices=TECHNOLOGIES)
        for key in ("capability_hz", "critical_length_m", "energy_j_per_bit",
                    "footprint_m2", "unit_cost_usd"):
            check.number(obj, key, path, exclusive_minimum=0.0)


def _validate_link_config(check: _Check, doc: Mapping):
    check.keys(doc, "$", required=("kind", "temperature_k", "lengths_m", "links"),
               optional=("limit_group_index", "cost_efficiency_axis", "eval_year", "notes"))
    check.number(doc, "temperature_k", "$", exclusive_minimum=0.0)
    check.number(doc, "limit_group_index", "$", minimum=1.0)
    check.number(doc, "cost_efficiency_axis", "$", exclusive_minimum=0.0)
    check.number(doc, "eval_year", "$")
    lengths = check.array(doc, "lengths_m", "$", min_items=1)
    if lengths is not None:
        for i, value in enumerate(lengths):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
                check.error(f"$.lengths_m[{i}]", "must be a strictly positive number")
    links = check.array(doc, "links", "$", min_items=1)
    if links is None:
        return
    for i, entry in enumerate(links):
        path = f"$.links[{i}]"
        obj = check.mapping(entry, path)
        if obj is None:
            continue
        check.keys(obj, path,
                   required=("name", "technology", "components", "transport",
                             "cross_section_width_m"),
                   optional=("repeater_spacing_m", "cost_curve", "cost_curve_csv"))
        check.string(obj, "name", path)
        check.string(obj, "technology", path, choices=TECHNOLOGIES)
        _validate_link_body(check, obj, path)
        if "cost_curve" in obj:
            _validate_curve(check, obj["cost_curve"], f"{path}.cost_curve")
        check.string(obj, "cost_curve_csv", path)
        if "cost_curve" in obj and "cost_curve_csv" in obj:
            check.error(f"{path}.cost_curve_csv",
                        "cost_curve and cost_curve_csv are mutually exclusive")


def _validate_traffic(check: _Check, doc: Mapping):
    from .network import TrafficPattern

    obj = check.mapping(doc.get("traffic"), "$.traffic")
    if obj is None:
        return
    patterns = tuple(p.value for p in TrafficPattern)
    check.keys(obj, "$.traffic", required=("pattern", "injection_bps_per_node"),
               optional=("hotspot_fraction", "hotspot_nodes", "hotspot_count",
                         "locality_scale_hops"))
    check.string(obj, "pattern", "$.traffic", choices=patterns)
    check.number(obj, "injection_bps_per_node", "$.traffic", minimum=0.0)
    check.number(obj, "hotspot_fraction", "$.traffic", minimum=0.0, maximum=1.0)
    check.integer(obj, "hotspot_count", "$.traffic", minimum=1)
    check.number(obj, "locality_scale_hops", "$.traffic", exclusive_minimum=0.0)
    nodes = check.array(obj, "hotspot_nodes", "$.traffic", min_items=1)
    if nodes is not None:
        for i, node in enumerate(nodes):
            if isinstance(node, bool) or not isinstance(node, int) or node < 0:
                check.error(f"$.traffic.hotspot_nodes[{i}]", "must be a non-negative integer")


def _validate_tech_map(check: _Check, obj: Mapping, key: str, path: str, value_check):
    if key not in obj:
        check.error(f"{path}.{key}", "required key is missing")
        return
    table = check.mapping(obj[key], f"{path}.{key}")
    if table is None:
        return
    for tech, value in table.items():
        if tech not in TECHNOLOGIES:
            check.error(f"{path}.{key}.{tech}", "unknown technology")
            continue
        value_check(tech, value, f"{path}.{key}.{tech}")


def _validate_noc(check: _Check, doc: Mapping):
    obj = check.mapping(doc.get("noc"), "$.noc")
    if obj is None:
        return
    check.keys(obj, "$.noc",
               required=("flit_bits", "router_clock_hz", "router_pipeline_clks",
                         "link_latency_clks", "link_rate_bps", "router",
                         "wafer_cost_usd_per_m2", "link_templates"))
    check.integer(obj, "flit_bits", "$.noc", minimum=1)
    check.number(obj, "router_clock_hz", "$.noc", exclusive_minimum=0.0)
    check.integer(obj, "router_pipeline_clks", "$.noc", minimum=1)

    def latency_entry(tech, value, path):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            check.error(path, "must be an integer of at least 1")

    def rate_entry(tech, value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            check.error(path, "must be a strictly positive number")

    _validate_tech_map(check, obj, "link_latency_clks", "$.noc", latency_entry)
    _validate_tech_map(check, obj, "link_rate_bps", "$.noc", rate_entry)

    router = check.mapping(obj.get("router"), "$.noc.router")
    if router is not None:
        check.keys(router, "$.noc.router", required=("dynamic_j_per_bit", "area_m2"),
                   optional=("die",))
        check.number(router, "dynamic_j_per_bit", "$.noc.router", minimum=0.0)
        check.number(router, "area_m2", "$.noc.router", minimum=0.0)
        check.string(router, "die", "$.noc.router")

    wafer = check.mapping(obj.get("wafer_cost_usd_per_m2"), "$.noc.wafer_cost_usd_per_m2")
    if wafer is not None:
        for die, entry in wafer.items():
            path = f"$.noc.wafer_cost_usd_per_m2.{die}"
            table = check.mapping(entry, path)
            if table is None:
                continue
            check.keys(table, path, required=("usd_per_m2",),
                       optional=("halving_period_years", "reference_year"))
            check.number(table, "usd_per_m2", path, exclusive_minimum=0.0)
            halving = check.number(table, "halving_period_years", path, exclusive_minimum=0.0)
            reference = check.number(table, "reference_year", path)
            if (halving is None) != (reference is None) and \
                    ("halving_period_years" in table) != ("reference_year" in table):
                check.error(path, "cost curves need both halving_period_years and reference_year")

    def template_entry(tech, value, path):
        table = check.mapping(value, path)
        if table is None:
            return
        check.keys(table, path, required=("components", "transport", "cross_section_width_m"),
                   optional=("repeater_spacing_m",))
        _validate_link_body(check, table, path)

    _validate_tech_map(check, obj, "link_templates", "$.noc", template_entry)


def _validate_network_config(check: _Check, doc: Mapping):
    check.keys(doc, "$", required=("kind", "mesh", "traffic", "noc", "cases"),
               optional=("flit_sweep", "eval_year", "notes"))
    mesh = check.mapping(doc.get("mesh"), "$.mesh")
    if mesh is not None:
        check.keys(mesh, "$.mesh", required=("rows", "cols", "spacing_m"))
        check.integer(mesh, "rows", "$.mesh", minimum=1)
        check.integer(mesh, "cols", "$.mesh", minimum=1)
        check.number(mesh, "spacing_m", "$.mesh", exclusive_minimum=0.0)
    _validate_traffic(check, doc)
    _validate_noc(check, doc)
    check.number(doc, "eval_year", "$")

    labels = []
    technologies = []
    cases = check.array(doc, "cases", "$", min_items=1)
    if cases is not None:
        for i, entry in enumerate(cases):
            path = f"$.cases[{i}]"
            obj = check.mapping(entry, path)
            if obj is None:
                continue
            check.keys(obj, path, required=("label", "technology"), optional=("express",))
            label = check.string(obj, "label", path)
            if label is not None:
                labels.append(label)
            tech = check.string(obj, "technology", path, choices=TECHNOLOGIES)
            if tech is not None:
                technologies.append(tech)
            if "express" in obj:
                express = check.mapping(obj["express"], f"{path}.express")
                if express is not None:
                    check.keys(express, f"{path}.express", required=("hop_span", "technology"))
                    check.integer(express, "hop_span", f"{path}.express", minimum=2)
                    express_tech = check.string(express, "technology", f"{path}.express",
                                                choices=TECHNOLOGIES)
                    if express_tech is not None:
                        technologies.append(express_tech)
        if len(set(labels)) != len(labels):
            check.error("$.cases", "case labels must be unique")

    sweep = doc.get("flit_sweep")
    if sweep is not None:
        obj = check.mapping(sweep, "$.flit_sweep")
        if obj is not None:
            check.keys(obj, "$.flit_sweep", required=("flit_bits",), optional=("baseline",))
            sizes = check.array(obj, "flit_bits", "$.flit_sweep", min_items=1)
            if sizes is not None:
                for i, size in enumerate(sizes):
                    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                        check.error(f"$.flit_sweep.flit_bits[{i}]",
                                    "must be an integer of at least 1")
            baseline = check.string(obj, "baseline", "$.flit_sweep")
            if baseline is not None and labels and baseline not in labels:
                check.error("$.flit_sweep.baseline", "must match one of the case labels")

    # Every technology the cases use must be present in all three NoC tables.
    noc = doc.get("noc")
    if isinstance(noc, Mapping):
        for table_key in ("link_latency_clks", "link_rate_bps", "link_templates"):
            table = noc.get(table_key)
            if not isinstance(table, Mapping):
                continue
            for tech in sorted(set(technologies)):
                if tech not in table:
                    check.error(f"$.noc.{table_key}",
                                f"missing entry for technology '{tech}' used by a case")


def _validate_trend_config(check: _Check, doc: Mapping):
    check.keys(doc, "$", required=("kind", "records_csv"),
               optional=("band_db", "bits_per_instruction", "eval_year", "notes"))
    check.string(doc, "records_csv", "$")
    check.number(doc, "band_db", "$", minimum=0.0)
    check.integer(doc, "bits_per_instruction", "$", minimum=1)
    check.number(doc, "eval_year", "$")


def validate_config(doc: Any) -> list[Diagnostic]:
    """Validate a parsed config document; an empty list means it is clean."""
    check = _Check()
    root = check.mapping(doc, "$")
    if root is None:
        return check.diagnostics
    kind = root.get("kind")
    if kind not in CONFIG_KINDS:
        check.error("$.kind", f"must be one of {', '.join(CONFIG_KINDS)}")
        return check.diagnostics
    if kind == "device_comparison":
        _validate_device_config(check, root)
    elif kind == "link_comparison":
        _validate_link_config(check, root)
    elif kind == "network_comparison":
        _validate_network_config(check, root)
    else:
        _validate_trend_config(check, root)
    return check.diagnostics


# ---------------------------------------------------------------------------
# Loaders (assume a clean validation pass).

@dataclass(frozen=True)
class DeviceConfig:
    temperature_k: float
    devices: tuple[DeviceSpec, ...]
    floor_margin: float
    cost_efficiency_axis: float | None


@dataclass(frozen=True)
class LinkConfig:
    temperature_k: float
    limit_group_index: float
    lengths_m: tuple[float, ...]
    links: tuple[LinkSpec, ...]
    cost_efficiency_axis: float | None
    eval_year: float | None


@dataclass(frozen=True)
class NetworkCaseSpec:
    label: str
    technology: Technology
    express_span: int | None = None
    express_technology: Technology | None = None


@dataclass(frozen=True)
class NetworkConfig:
    rows: int
    cols: int
    spacing_m: float
    traffic_pattern: TrafficPattern
    traffic_params: TrafficParams
    noc: NocConfig
    cases: tuple[NetworkCaseSpec, ...]
    flit_sizes: tuple[int, ...] | None
    sweep_baseline: str | None
    eval_year: float | None


@dataclass(frozen=True)
class TrendConfig:
    records_csv: str
    band_db: float
    bits_per_instruction: int


def _load_component(obj: Mapping) -> LinkComponent:
    return LinkComponent(
        name=obj["name"],
        role=ComponentRole(obj["role"]),
        bandwidth_hz=float(obj.get("bandwidth_hz", 0.0)),
        energy_j_per_bit=float(obj.get("energy_j_per_bit", 0.0)),
        area_m2=float(obj.get("area_m2", 0.0)),
        cost_usd=float(obj.get("cost_usd", 0.0)),
        delay_s=float(obj.get("delay_s", 0.0)),
        insertion_loss_db=obj.get("insertion_loss_db"),
        output_swing_v=obj.get("output_swing_v"),
    )


def _load_transport(obj: Mapping):
    if obj["kind"] == "electrical":
        return ElectricalTransport(
            capacitance_f_per_m=float(obj["capacitance_f_per_m"]),
            resistance_ohm_per_m=float(obj["resistance_ohm_per_m"]),
            voltage_swing_v=float(obj["voltage_swing_v"]),
            lanes=int(obj.get("lanes", 1)),
        )
    return OpticalTransport(
        loss_db_per_m=float(obj["loss_db_per_m"]),
        group_index=float(obj["group_index"]),
        launch_power_w=float(obj["launch_power_w"]),
        detector_sensitivity_w=float(obj["detector_sensitivity_w"]),
        wdm_channels=int(obj.get("wdm_channels", 1)),
        per_channel_rate_cap_bps=obj.get("per_channel_rate_cap_bps"),
    )


def _load_curve(obj: Mapping) -> ExperienceCurve:
    return ExperienceCurve(
        initial_unit_cost=float(obj["initial_unit_cost"]),
        halving_period=float(obj["halving_period"]),
        reference_time=float(obj["reference_time"]),
    )


def load_device_config(doc: Mapping) -> DeviceConfig:
    devices = tuple(
        DeviceSpec(
            name=entry["name"],
            technology=Technology(entry["technology"]),
            capability_hz=float(entry["capability_hz"]),
            critical_length_m=float(entry["critical_length_m"]),
            energy_j_per_bit=float(entry["energy_j_per_bit"]),
            footprint_m2=float(entry["footprint_m2"]),
            unit_cost_usd=float(entry["unit_cost_usd"]),
        )
        for entry in doc["devices"])
    return DeviceConfig(
        temperature_k=float(doc["temperature_k"]),
        devices=devices,
        floor_margin=float(doc.get("floor_margin", 10.0)),
        cost_efficiency_axis=doc.get("cost_efficiency_axis"),
    )


def load_link_config(doc: Mapping, base_dir: str | None = None) -> LinkConfig:
    lengths = tuple(float(v) for v in doc["lengths_m"])
    links = []
    for entry in doc["links"]:
        if "cost_curve" in entry:
            curve = _load_curve(entry["cost_curve"])
        elif "cost_curve_csv" in entry:
            path = Path(entry["cost_curve_csv"])
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            curve = fit_experience_curve(load_cost_observations(path)).curve
        else:
            curve = None
        links.append(LinkSpec(
            name=entry["name"],
            technology=Technology(entry["technology"]),
            length_m=lengths[0],
            components=tuple(_load_component(c) for c in entry["components"]),
            transport=_load_transport(entry["transport"]),
            cross_section_width_m=float(entry["cross_section_width_m"]),
            repeater_spacing_m=entry.get("repeater_spacing_m"),
            cost_curve=curve,
        ))
    return LinkConfig(
        temperature_k=float(doc["temperature_k"]),
        limit_group_index=float(doc.get("limit_group_index", 3.0)),
        lengths_m=lengths,
        links=tuple(links),
        cost_efficiency_axis=doc.get("cost_efficiency_axis"),
        eval_year=doc.get("eval_year"),
    )


def load_network_config(doc: Mapping) -> NetworkConfig:
    from .network import (
        NocConfig,
        NocLinkTemplate,
        RouterModel,
        TrafficParams,
        TrafficPattern,
        WaferCost,
    )

    mesh = doc["mesh"]
    traffic = doc["traffic"]
    params = TrafficParams(
        injection_bps_per_node=float(traffic["injection_bps_per_node"]),
        hotspot_fraction=float(traffic.get("hotspot_fraction", 0.5)),
        hotspot_nodes=tuple(traffic["hotspot_nodes"]) if "hotspot_nodes" in traffic else None,
        hotspot_count=int(traffic.get("hotspot_count", 1)),
        locality_scale_hops=float(traffic.get("locality_scale_hops", 4.0)),
    )
    noc_doc = doc["noc"]
    templates = {}
    for tech, body in noc_doc["link_templates"].items():
        templates[Technology(tech)] = NocLinkTemplate(
            technology=Technology(tech),
            components=tuple(_load_component(c) for c in body["components"]),
            transport=_load_transport(body["transport"]),
            cross_section_width_m=float(body["cross_section_width_m"]),
            repeater_spacing_m=body.get("repeater_spacing_m"),
        )
    router_doc = noc_doc["router"]
    wafer = {
        die: WaferCost(
            usd_per_m2=float(entry["usd_per_m2"]),
            halving_period_years=entry.get("halving_period_years"),
            reference_year=entry.get("reference_year"),
        )
        for die, entry in noc_doc["wafer_cost_usd_per_m2"].items()}
    noc = NocConfig(
        flit_bits=int(noc_doc["flit_bits"]),
        router_clock_hz=float(noc_doc["router_clock_hz"]),
        router_pipeline_clks=int(noc_doc["router_pipeline_clks"]),
        link_latency_clks={Technology(t): int(v)
                           for t, v in noc_doc["link_latency_clks"].items()},
        link_rate_bps={Technology(t): float(v)
                       for t, v in noc_doc["link_rate_bps"].items()},
        router=RouterModel(
            dynamic_j_per_bit=float(router_doc["dynamic_j_per_bit"]),
            area_m2=float(router_doc["area_m2"]),
            die=router_doc.get("die", "electronic"),
        ),
        link_templates=templates,
        wafer_cost=wafer,
    )
    cases = []
    for entry in doc["cases"]:
        express = entry.get("express")
        cases.append(NetworkCaseSpec(
            label=entry["label"],
            technology=Technology(entry["technology"]),
            express_span=int(express["hop_span"]) if express else None,
            express_technology=Technology(express["technology"]) if express else None,
        ))
    sweep = doc.get("flit_sweep")
    return NetworkConfig(
        rows=int(mesh["rows"]),
        cols=int(mesh["cols"]),
        spacing_m=float(mesh["spacing_m"]),
        traffic_pattern=TrafficPattern(traffic["pattern"]),
        traffic_params=params,
        noc=noc,
        cases=tuple(cases),
        flit_sizes=tuple(int(v) for v in sweep["flit_bits"]) if sweep else None,
        sweep_baseline=sweep.get("baseline") if sweep else None,
        eval_year=doc.get("eval_year"),
    )


def load_trend_config(doc: Mapping) -> TrendConfig:
    return TrendConfig(
        records_csv=doc["records_csv"],
        band_db=float(doc.get("band_db", 5.0)),
        bits_per_instruction=int(doc.get("bits_per_instruction", 32)),
    )


def require_clean(doc: Any) -> str:
    """Validate and return the config kind; raise with all diagnostics otherwise."""
    diagnostics = validate_config(doc)
    if diagnostics:
        detail = "; ".join(str(d) for d in diagnostics)
        raise ConfigurationError(f"invalid config: {detail}")
    return doc["kind"]
