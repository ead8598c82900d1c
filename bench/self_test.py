"""Self-test of the benchmark's output checks.

A 4x4 mesh and a small catalog run through clearfom must pass every oracle,
and each deliberately corrupted artifact must be counted as a failed
operation by the oracle it targets. Exits 0 when every case behaves.

Usage (from the repository root): python3 bench/self_test.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import Checker
from run import Outcomes, child_env, timed_operation
from workloads import NOC16_CONFIG, Workload, catalog, network_step


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _scale(obj: dict, key: str, factor: float):
    obj[key] *= factor


def _raise_busiest_load(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    busiest = max(range(len(rows)), key=lambda i: float(rows[i][1]))
    rows[busiest][1] = repr(float(rows[busiest][1]) * 1.01)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


# (label, corruption applied to an operation's output directory, expected problem text)
NOC_CORRUPTIONS = (
    ("case clear off by 1e-6",
     lambda d: _edit_json(d / "network" / "network_report.json",
                          lambda r: _scale(r["cases"][1], "clear", 1 + 1e-6)),
     "recomputed"),
    ("busiest link load raised by 1%",
     lambda d: _raise_busiest_load(d / "network" / "link_activity_electronic.csv"),
     "closed form"),
    ("unknown key in the report",
     lambda d: _edit_json(d / "network" / "network_report.json",
                          lambda r: r.update(extra=1)),
     "schema"),
    ("link activity CSV removed",
     lambda d: (d / "network" / "link_activity_photonic.csv").unlink(),
     "cannot read loads"),
)

CATALOG_CORRUPTIONS = (
    ("device clear off by 1e-6",
     lambda d: _edit_json(d / "device" / "device_report.json",
                          lambda r: _scale(r["devices"][0], "clear", 1 + 1e-6)),
     "device"),
    ("link clear off by 1e-6",
     lambda d: _edit_json(d / "link" / "link_report.json",
                          lambda r: _scale(r["links"][0]["sweep"][0], "clear", 1 + 1e-6)),
     "link"),
    ("trend point clear off by 1e-6",
     lambda d: _edit_json(d / "trend" / "trend_report.json",
                          lambda r: _scale(r["points"][0], "clear", 1 + 1e-6)),
     "trend point"),
    ("trend fit slope changed",
     lambda d: _edit_json(d / "trend" / "trend_report.json",
                          lambda r: _scale(r["fit"], "annual_factor", 1 + 1e-6)),
     "numpy refit"),
    ("negative physical limit",
     lambda d: _edit_json(d / "limits" / "limits.json",
                          lambda r: _scale(r["levels"]["device"], "max_rate_hz", -1.0)),
     "schema"),
)


def noc4_workload(root: Path, scratch: Path) -> Workload:
    doc = json.loads((root / NOC16_CONFIG).read_text(encoding="utf-8"))
    doc["mesh"].update(rows=4, cols=4)
    config = scratch / "noc4_uniform.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return Workload("noc4_uniform", (network_step(config, 1),), network_doc=doc)


def main() -> int:
    root = Path.cwd()
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="self-test-", dir=out))
    env = child_env(root)
    results = []
    try:
        (scratch / "catalog").mkdir()
        small_catalog = catalog(root, 1, scratch / "catalog", device_copies=2,
                                link_lengths=6, records=50)
        for workload, corruptions in ((noc4_workload(root, scratch), NOC_CORRUPTIONS),
                                      (small_catalog, CATALOG_CORRUPTIONS)):
            check = Checker(root, workload).check
            clean = scratch / f"{workload.name}-clean"
            outcomes = Outcomes(check)
            outcomes.record(clean, timed_operation(root, env, workload, clean).errors)
            _, failed, problems = outcomes.finish()
            results.append((f"{workload.name}: clean operation passes every oracle",
                            failed == 0, problems))
            for label, corrupt, expected in corruptions:
                broken = scratch / "broken"
                shutil.copytree(clean, broken)
                corrupt(broken)
                fresh = Outcomes(check)
                fresh.record(broken, [])
                _, failed, problems = fresh.finish()
                results.append((f"{workload.name}: {label} is a failed operation",
                                failed == 1 and any(expected in p for p in problems[0]),
                                problems))
                shutil.rmtree(broken)
            # A later operation must reproduce the first one's artifacts byte for byte.
            later = scratch / "later"
            shutil.copytree(clean, later)
            first_csv = sorted(later.rglob("*.csv"))[0]
            first_csv.write_text(first_csv.read_text(encoding="utf-8") + "\n", encoding="utf-8")
            outcomes.record(later, [])
            attempted, failed, problems = outcomes.finish()
            results.append((f"{workload.name}: a changed artifact in a later operation "
                            "is a failed operation", failed == 1 and attempted == 2, problems))
            shutil.rmtree(later)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for label, ok, problems in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + ("" if ok else f": {problems[:2]}"))
        if problems and ok:
            print(f"       caught: {problems[0][0][:150]}")
    passed = all(ok for _, ok, _ in results)
    print(f"self-test {'passed' if passed else 'FAILED'}: "
          f"{sum(ok for _, ok, _ in results)} of {len(results)} cases")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
