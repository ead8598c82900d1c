"""Output checks for one benchmark operation, against oracles independent of clearfom.

None of these oracles imports clearfom: traffic and channel loads are rebuilt
with numpy from the config, CLEAR is recomputed from the factors each report
prints, the trend fit is redone with numpy least squares from the generated
records, and reports are validated with ``jsonschema`` against the schemas in
``docs/schemas``. A check returns a list of problems; an empty list passes.

The timed benchmark process runs this file as a child, so that it never loads
numpy itself (see ``run.py``).
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from workloads import Workload

REL_TOL = 1e-9        # loads, closed forms and fits: sums over up to 3e5 flows
CLEAR_REL_TOL = 1e-12  # CLEAR is a single quotient of the printed factors

REPORTS = {"limits": "limits.json", "device": "device_report.json",
           "link": "link_report.json", "network": "network_report.json",
           "trend": "trend_report.json"}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _clear(capability, latency, energy, amount, resistance) -> float:
    return capability / (latency * energy * amount * resistance)


def slug(label: str) -> str:
    """File-name form of a case label, as the CLI documents it."""
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


def offered_traffic(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Offered rates and Manhattan hop counts for every (src, dst) pair."""
    rows, cols = doc["mesh"]["rows"], doc["mesh"]["cols"]
    traffic = doc["traffic"]
    n = rows * cols
    r, c = np.divmod(np.arange(n), cols)
    hops = np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :])
    inj = traffic["injection_bps_per_node"]
    if traffic["pattern"] == "uniform":
        rates = np.full((n, n), inj / (n - 1))
    elif traffic["pattern"] == "exponential_locality":
        weights = np.exp(-hops / traffic.get("locality_scale_hops", 4.0))
        np.fill_diagonal(weights, 0.0)
        rates = inj * weights / weights.sum(axis=1, keepdims=True)
    else:
        raise ValueError(f"no traffic oracle for pattern '{traffic['pattern']}'")
    np.fill_diagonal(rates, 0.0)
    return rates, hops


def uniform_max_channel_load(k: int, injection_bps: float) -> float:
    """Busiest directed link of XY routing on a k x k mesh under uniform traffic.

    k * floor(k/2) * ceil(k/2) flows cross the bisection link, each at
    injection/(n-1); for even k this is k*lambda*n / (4(n-1)) (Dally & Towles,
    Principles and Practices of Interconnection Networks).
    """
    n = k * k
    return k * (k // 2) * ((k + 1) // 2) * injection_bps / (n - 1)


class Checker:
    """Validates the artifacts of one operation of ``workload``."""

    def __init__(self, root: Path, workload: Workload):
        self.workload = workload
        schema_dir = root / "docs" / "schemas"
        schemas = {p.name: json.loads(p.read_text(encoding="utf-8"))
                   for p in sorted(schema_dir.glob("*.schema.json"))}
        registry = Registry().with_resources(
            (doc["$id"], Resource.from_contents(doc)) for doc in schemas.values())
        self.validators = {
            step: Draft202012Validator(schemas[f"{step}_report.schema.json"], registry=registry)
            for step in REPORTS}
        self.expected = {}
        if workload.network_doc is not None:
            rates, hops = offered_traffic(workload.network_doc)
            self.expected["load_sum"] = math.fsum((rates * hops).ravel())
        if workload.trend_records is not None:
            self.expected["records"] = _read_records(workload.trend_records)

    def check(self, opdir: Path) -> list[str]:
        problems = []
        for step in self.workload.steps:
            path = opdir / step.name / REPORTS[step.name]
            try:
                report = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"{step.name}: cannot read report: {exc}")
                continue
            errors = sorted(self.validators[step.name].iter_errors(report), key=str)
            problems += [f"{step.name}: schema: {e.message} at {e.json_path}" for e in errors[:3]]
            if not errors:
                problems += getattr(self, f"_check_{step.name}")(report, opdir / step.name)
        return problems

    def _check_limits(self, report, outdir):
        return []

    def _check_device(self, report, outdir):
        return [f"device {d['name']}: clear {d['clear']!r} != recomputed {value!r}"
                for d in report["devices"]
                for f in [d["factors"]]
                for value in [_clear(f["capability_hz"], f["critical_length_m"],
                                     f["energy_j_per_bit"], f["footprint_m2"],
                                     f["unit_cost_usd"])]
                if not _close(d["clear"], value, CLEAR_REL_TOL)]

    def _check_link(self, report, outdir):
        return [f"link {link['name']} at {e['length_m']:g} m: clear {e['clear']!r} "
                f"!= recomputed {value!r}"
                for link in report["links"] for e in link["sweep"]
                for value in [_clear(e["capacity_bps"], e["latency_s"], e["energy_j_per_bit"],
                                     e["area_m2"], e["cost_usd"])]
                if not _close(e["clear"], value, CLEAR_REL_TOL)]

    def _check_network(self, report, outdir):
        problems = [f"network case {c['label']}: clear {c['clear']!r} != recomputed {value!r}"
                    for c in report["cases"]
                    for value in [_clear(c["capacity_bps_per_node"], c["latency_clks"],
                                         c["energy_j_per_bit"], c["area_m2"], c["cost_usd"])]
                    if not _close(c["clear"], value, CLEAR_REL_TOL)]
        doc = self.workload.network_doc
        mesh, traffic = doc["mesh"], doc["traffic"]
        closed_form = None
        if traffic["pattern"] == "uniform" and mesh["rows"] == mesh["cols"]:
            closed_form = uniform_max_channel_load(mesh["rows"], traffic["injection_bps_per_node"])
        for case in doc["cases"]:
            if "express" in case:
                continue  # the oracles below hold for the plain mesh only
            path = outdir / f"link_activity_{slug(case['label'])}.csv"
            try:
                with open(path, newline="", encoding="utf-8") as handle:
                    loads = [float(row["load_bps"]) for row in csv.DictReader(handle)]
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"network case {case['label']}: cannot read loads: {exc}")
                continue
            total = math.fsum(loads)
            if not _close(total, self.expected["load_sum"], REL_TOL):
                problems.append(f"network case {case['label']}: link loads sum to {total!r}, "
                                f"sum of rate*Manhattan is {self.expected['load_sum']!r}")
            if closed_form is not None and not _close(max(loads), closed_form, REL_TOL):
                problems.append(f"network case {case['label']}: max link load {max(loads)!r}, "
                                f"closed form {closed_form!r}")
        return problems

    def _check_trend(self, report, outdir):
        records = self.expected["records"]
        problems = [f"trend point {p['name']}: clear {p['clear']!r} != recomputed {value!r}"
                    for p in report["points"]
                    for value in [records.get(p["name"], (None, math.nan))[1]]
                    if not _close(p["clear"], value, CLEAR_REL_TOL)]
        if len(report["points"]) != len(records):
            problems.append(f"trend: {len(report['points'])} points for {len(records)} records")
        years = np.array([year for year, _ in records.values()])
        logs = np.log2([value for _, value in records.values()])
        design = np.column_stack([years - years.mean(), np.ones_like(years)])
        (slope, centred), *_ = np.linalg.lstsq(design, logs, rcond=None)
        residual = logs - design @ np.array([slope, centred])
        r_squared = 1.0 - residual @ residual / np.sum((logs - logs.mean()) ** 2)
        fit = report["fit"]
        for name, got, want, tol in (
                ("annual_factor", fit["annual_factor"], float(2.0 ** slope), REL_TOL),
                ("intercept", fit["intercept"], float(centred - slope * years.mean()), REL_TOL),
                ("r_squared", fit["r_squared"], float(r_squared), REL_TOL)):
            if got is None or not _close(got, want, tol):
                problems.append(f"trend fit {name}: {got!r}, numpy refit {want!r}")
        return problems


def _read_records(path: str) -> dict[str, tuple[float, float]]:
    """name -> (year, system CLEAR) recomputed from the generated records CSV."""
    with open(path, newline="", encoding="utf-8") as handle:
        return {row["name"]: (float(row["year"]),
                              _clear(float(row["mips"]), float(row["clock_period_s"]),
                                     float(row["energy_j_per_bit"]), float(row["volume_m3"]),
                                     float(row["cost_usd"])))
                for row in csv.DictReader(handle)}



def main(argv: list[str]) -> int:
    """Print the problems of one operation's artifacts as a JSON list."""
    if len(argv) != 2:
        print("usage: python3 bench/checks.py WORKLOAD_JSON OPERATION_DIR", file=sys.stderr)
        return 2
    workload = Workload.load(Path(argv[0]))
    print(json.dumps(Checker(Path.cwd(), workload).check(Path(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
