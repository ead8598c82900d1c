"""Pinned artifacts: every shipped CLI run must reproduce its recorded bytes.

Each run below writes all formats to its own directory; the SHA-256 of every
artifact is compared with ``artifact_digests.json``. A change that means to
alter an artifact regenerates the file and says why:

    PYTHONPATH=src python tests/test_artifacts.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from clearfom.cli import EXIT_OK, main
from clearfom.data import example_path

DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"

# Run name -> CLI arguments; each "{...}" argument is a config written per run.
RUNS = {
    "limits": ["limits"],
    "device": ["device", "--config", "devices/four_technologies.json"],
    "link": ["link", "--config", "links/four_technologies.json"],
    "link_2020": ["link", "--config", "links/four_technologies.json", "--eval-year", "2020"],
    "network": ["network", "--config", "networks/mesh16_comparison.json", "--seed", "1"],
    "network_2020": ["network", "--config", "networks/mesh16_comparison.json", "--seed", "1",
                     "--eval-year", "2020"],
    "network_locality": ["network", "--config", "{locality}", "--seed", "1"],
    "network_hotspot": ["network", "--config", "{hotspot}", "--seed", "1"],
    "trend": ["trend", "--config", "{trend}"],
    "trend_200": ["trend", "--config", "{trend_200}"],
}

# 10 ** (k / 10) for k = 0..9, to three significant digits.
_TENTHS = ("1", "1.26", "1.58", "2", "2.51", "3.16", "3.98", "5.01", "6.31", "7.94")
_CLASSES = ("mainframe", "personal", "supercomputer", "optical_projection", "other")


def _power_of_ten(tenths: int) -> str:
    """About 10 ** (tenths / 10), as an exact decimal literal."""
    exponent, digit = divmod(tenths, 10)
    return f"{_TENTHS[digit]}e{exponent}"


def trend_200_csv() -> str:
    """200 machines over 1950-1999, four a year, built from decimal literals alone.

    Each quantity moves a whole number of tenths of a decade per machine, so
    log10(CLEAR) rises on a line; every third machine sits three decades of
    MIPS above it and every third below, so all three positions occur, and the
    class cycles through all five. No float arithmetic makes the inputs, so
    they parse to the same bits on every Python version.
    """
    lines = ["name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class"]
    for i in range(200):
        offset = (0, 30, -30)[i % 3]
        quantities = (2 * i - 20 + offset, -i - 50, -i - 10, -i + 20, -i + 60)
        lines.append(f"m{i:03d},{1950 + i // 4}.{25 * (i % 4):02d},"
                     f"{','.join(map(_power_of_ten, quantities))},{_CLASSES[i % 5]}")
    return "\n".join(lines) + "\n"


def locality_doc() -> dict:
    """The shipped tables on a 24x24 mesh under exponential locality at 2 hops.

    Two cases, plain electronic and electronic with span-4 hybrid express
    links, and no flit sweep.
    """
    doc = json.loads(example_path("networks/mesh16_comparison.json").read_text(encoding="utf-8"))
    doc["mesh"].update(rows=24, cols=24)
    doc["traffic"] = {"pattern": "exponential_locality",
                      "injection_bps_per_node": doc["traffic"]["injection_bps_per_node"],
                      "locality_scale_hops": 2.0}
    doc["cases"] = [
        {"label": "electronic", "technology": "electronic"},
        {"label": "electronic+hyppi-express", "technology": "electronic",
         "express": {"hop_span": 4, "technology": "hybrid"}},
    ]
    del doc["flit_sweep"]
    return doc


def hotspot_doc() -> dict:
    """The shipped config with explicit hotspots: nodes 5 and 37 share column 5, 200 is apart."""
    doc = json.loads(example_path("networks/mesh16_comparison.json").read_text(encoding="utf-8"))
    doc["traffic"] = {"pattern": "hotspot", "hotspot_nodes": [5, 37, 200],
                      "injection_bps_per_node": doc["traffic"]["injection_bps_per_node"]}
    return doc


def _sha256_tree(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_and_digest(name: str, work: Path) -> dict[str, str]:
    """Run one pinned command into ``work/out`` and hash what it wrote."""
    records_200 = work / "records_200.csv"
    records_200.write_text(trend_200_csv(), encoding="utf-8")
    configs = {}
    for placeholder, records in (("{trend}", example_path("trend/sample_synthetic_systems.csv")),
                                 ("{trend_200}", records_200)):
        configs[placeholder] = work / f"{placeholder[1:-1]}.json"
        configs[placeholder].write_text(json.dumps({
            "kind": "trend", "records_csv": str(records), "band_db": 5.0}), encoding="utf-8")
    for placeholder, doc in (("{locality}", locality_doc()), ("{hotspot}", hotspot_doc())):
        configs[placeholder] = work / f"{placeholder[1:-1]}.json"
        configs[placeholder].write_text(json.dumps(doc), encoding="utf-8")
    args = []
    for arg in RUNS[name]:
        if arg in configs:
            arg = str(configs[arg])
        elif arg.endswith(".json"):
            arg = str(example_path(arg))
        args.append(arg)
    out = work / "out"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    return _sha256_tree(out)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_pinned_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert run_and_digest(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    digests = {}
    for run_name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as scratch:
            digests[run_name] = run_and_digest(run_name, Path(scratch))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{sum(map(len, digests.values()))} artifacts pinned in {DIGESTS}", file=sys.stderr)
