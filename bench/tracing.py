"""In-memory span recorder that wraps clearfom's public functions from outside.

``Recorder.install`` replaces each function named in ``TRACED`` by a wrapper,
both in its defining module and under every name another clearfom module
imported it as (``clearfom.cli`` imports most of them). Calls made inside the
program, such as ``flit_sweep`` re-routing through ``link_activity``, are
therefore recorded too. A span is ``[name, start, end, parent, op, attrs]``;
spans of one operation share ``op``. Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer boundaries: clearfom module -> public functions wrapped there.
TRACED = {
    "cli": ("main",),
    "network": ("build_mesh", "add_express_links", "generate_traffic", "link_activity",
                "network_clear", "flit_sweep"),
    "validation": ("validate_config", "load_device_config", "load_link_config",
                   "load_network_config", "load_trend_config"),
    "link": ("link_factors",),
    "metric": ("radar_scores", "radar_area", "radar_vertices"),
    "device": ("device_clear", "radar_normalize"),
    "limits": ("make_limit_set",),
    "trend": ("load_system_records", "fit_growth", "system_clear", "efficiency_point",
              "classify_vs_trend"),
    "ioutil": ("write_csv", "write_json"),
}

# Per-layer time metrics: metric name -> spans whose self time it sums.
SELF_TIME = {
    "network.link_activity_s": ("network.link_activity",),
    "network.generate_traffic_s": ("network.generate_traffic",),
    "network.build_topology_s": ("network.build_mesh", "network.add_express_links"),
    "network.network_clear_s": ("network.network_clear",),
    "network.flit_sweep_s": ("network.flit_sweep",),
    "validation.validate_config_s": ("validation.validate_config",),
    "validation.load_config_s": ("validation.load_device_config", "validation.load_link_config",
                                 "validation.load_network_config",
                                 "validation.load_trend_config"),
    "link.link_factors_s": ("link.link_factors",),
    "metric.radar_s": ("metric.radar_scores", "metric.radar_area", "metric.radar_vertices",
                       "device.radar_normalize"),
    "device.device_clear_s": ("device.device_clear",),
    "limits.make_limit_set_s": ("limits.make_limit_set",),
    "trend.load_system_records_s": ("trend.load_system_records",),
    "trend.fit_growth_s": ("trend.fit_growth",),
    "trend.score_s": ("trend.system_clear", "trend.efficiency_point",
                      "trend.classify_vs_trend"),
    "ioutil.write_csv_s": ("ioutil.write_csv",),
    "ioutil.write_json_s": ("ioutil.write_json",),
}

CALL_COUNTS = {
    "network.link_activity_calls": "network.link_activity",
    "network.network_clear_calls": "network.network_clear",
    "link.link_factors_calls": "link.link_factors",
}


def _routing_geometry(topology) -> str:
    """Routing depends on the mesh shape and the express links, not on technology."""
    key = (topology.rows, topology.cols,
           tuple((link.a, link.b) for link in topology.express_links))
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _link_activity_attrs(topology, traffic) -> dict:
    return {"geometry": _routing_geometry(topology),
            "flows": int((traffic.rates != 0).sum())}


# Counts recorded at a boundary, from the call's arguments, outside its span.
ATTRS = {"network.link_activity": _link_activity_attrs}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.enabled = False

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        describe = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            attrs = describe(*args, **kwargs) if describe else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Import clearfom and wrap every function in ``TRACED``; returns ``cli.main``."""
        modules = {name: importlib.import_module(f"clearfom.{name}") for name in TRACED}
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "clearfom" or key.startswith("clearfom."))]
        for module_name, functions in TRACED.items():
            for function in functions:
                original = getattr(modules[module_name], function)
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        return modules["cli"].main

    def op_metrics(self, first: int) -> dict[str, float]:
        """Per-layer self times and counts of the operation whose spans start at ``first``."""
        spans = self.spans[first:]
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3] - first] -= s[2] - s[1]
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, self_time in zip(spans, own):
            totals[s[0]] += self_time
            calls[s[0]] += 1
        metrics = {name: sum(totals[n] for n in names) for name, names in SELF_TIME.items()}
        metrics.update({name: calls[span] for name, span in CALL_COUNTS.items()})
        routed = [s[5] for s in spans if s[0] == "network.link_activity"]
        distinct = len({a["geometry"] for a in routed})
        flows = sum(a["flows"] for a in routed)
        metrics["network.distinct_geometries"] = distinct
        # Calls == 0 (catalog) leaves both ratios undefined; they read 0 there.
        metrics["network.route_reuse"] = distinct / len(routed) if routed else 0.0
        metrics["network.flows_routed"] = flows
        metrics["network.link_activity_us_per_flow"] = (
            metrics["network.link_activity_s"] * 1e6 / flows if flows else 0.0)
        metrics["cli.main_s"] = sum(s[2] - s[1] for s in spans
                                    if s[0] == "cli.main" and s[3] == -1)
        return metrics

    def write(self, path: Path):
        """Gzipped JSON; ``parent`` is the parent's index in ``spans``, or -1."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op",
                                                "attrs"], "spans": self.spans}))
