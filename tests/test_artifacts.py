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

# Run name -> CLI arguments; "{trend}" is the trend config written per run.
RUNS = {
    "limits": ["limits"],
    "device": ["device", "--config", "devices/four_technologies.json"],
    "link": ["link", "--config", "links/four_technologies.json"],
    "link_2020": ["link", "--config", "links/four_technologies.json", "--eval-year", "2020"],
    "network": ["network", "--config", "networks/mesh16_comparison.json", "--seed", "1"],
    "network_2020": ["network", "--config", "networks/mesh16_comparison.json", "--seed", "1",
                     "--eval-year", "2020"],
    "trend": ["trend", "--config", "{trend}"],
}


def _sha256_tree(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_and_digest(name: str, work: Path) -> dict[str, str]:
    """Run one pinned command into ``work/out`` and hash what it wrote."""
    trend = work / "trend.json"
    trend.write_text(json.dumps({
        "kind": "trend",
        "records_csv": str(example_path("trend/sample_synthetic_systems.csv")),
        "band_db": 5.0}), encoding="utf-8")
    args = []
    for arg in RUNS[name]:
        if arg == "{trend}":
            arg = str(trend)
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
