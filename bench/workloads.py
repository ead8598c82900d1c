"""Seeded benchmark inputs and the clearfom invocations that form one operation.

Each workload is a list of steps; one operation runs every step once, each as
its own ``clearfom`` invocation writing into its own output directory. The
inputs are written into a scratch directory inside the checkout, never into
``src/``; clearfom only ever sees those generated files (or, for
``noc16_uniform``, the shipped config as it stands).
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

SHIPPED = Path("src") / "clearfom" / "data"
NOC16_CONFIG = SHIPPED / "networks" / "mesh16_comparison.json"

WORKLOADS = ("noc16_uniform", "noc24_locality", "catalog")

# Catalog sizes, as given in the benchmark's definition.
CATALOG_DEVICE_COPIES = 24          # x 4 shipped devices = 96 devices
CATALOG_LINK_LENGTHS = 48           # log-spaced from 10 um to 10 cm
CATALOG_TREND_RECORDS = 3000
TREND_CLASSES = ("mainframe", "personal", "supercomputer", "optical_projection", "other")


@dataclass(frozen=True)
class Step:
    """One clearfom invocation: ``argv`` excludes ``--out``, added per operation."""

    name: str
    argv: tuple[str, ...]


@dataclass
class Workload:
    name: str
    steps: tuple[Step, ...]
    # What the output checks need to know about the inputs.
    network_doc: dict | None = None
    trend_records: str | None = None
    notes: list[str] = field(default_factory=list)

    def save(self, path: Path) -> Path:
        path.write_text(json.dumps(asdict(self)), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path) -> "Workload":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["steps"] = tuple(Step(step["name"], tuple(step["argv"])) for step in doc["steps"])
        return cls(**doc)


def _load(root: Path, relpath: Path):
    with open(root / relpath, encoding="utf-8") as handle:
        return json.load(handle)


def _dump(doc, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def network_step(config: Path, seed: int) -> Step:
    return Step("network", ("network", "--config", str(config), "--seed", str(seed),
                            "--format", "csv,json"))


def noc16_uniform(root: Path, seed: int, scratch: Path) -> Workload:
    return Workload(
        "noc16_uniform", (network_step(root / NOC16_CONFIG, seed),),
        network_doc=_load(root, NOC16_CONFIG),
        notes=["shipped config; the uniform traffic generator ignores --seed"])


def noc24_doc(shipped: dict) -> dict:
    """24x24 mesh, exponential-locality traffic, two routing geometries, no sweep."""
    doc = copy.deepcopy(shipped)
    doc["mesh"].update(rows=24, cols=24)
    doc["traffic"] = {"pattern": "exponential_locality",
                      "injection_bps_per_node": shipped["traffic"]["injection_bps_per_node"],
                      "locality_scale_hops": 2.0}
    doc["cases"] = [
        {"label": "electronic", "technology": "electronic"},
        {"label": "electronic+hyppi-express", "technology": "electronic",
         "express": {"hop_span": 4, "technology": "hybrid"}},
    ]
    doc.pop("flit_sweep", None)
    return doc


def noc24_locality(root: Path, seed: int, scratch: Path) -> Workload:
    doc = noc24_doc(_load(root, NOC16_CONFIG))
    config = _dump(doc, scratch / "noc24_locality.json")
    return Workload(
        "noc24_locality", (network_step(config, seed),), network_doc=doc,
        notes=["generated from the shipped NoC tables; the exponential-locality "
               "generator ignores --seed, so every seed gives the same matrix"])


def catalog_devices(shipped: dict, rng: random.Random, copies: int) -> dict:
    """Copies of the shipped devices with every factor scaled by a log-normal draw."""
    devices = []
    for i in range(copies):
        for device in shipped["devices"]:
            entry = dict(device, name=f"{device['name']}-{i:02d}")
            for key in ("capability_hz", "critical_length_m", "energy_j_per_bit",
                        "footprint_m2", "unit_cost_usd"):
                entry[key] = device[key] * 10.0 ** rng.gauss(0.0, 0.25)
            devices.append(entry)
    return dict(shipped, devices=devices)


def catalog_links(shipped: dict, lengths: int) -> dict:
    return dict(shipped, lengths_m=[10.0 ** (-5 + 4 * i / (lengths - 1)) for i in range(lengths)])


# log10 of (mips, clock_period_s, energy_j_per_bit, volume_m3, cost_usd) in 1950,
# and its change per year.
TREND_START = (-2.0, -5.0, -1.3, 1.3, 5.0)
TREND_SLOPE = (0.12, -0.05, -0.08, -0.04, -0.02)


def trend_records_csv(rng: random.Random, count: int) -> str:
    """Synthetic machines on log-linear improvement trends, with log-normal scatter."""
    lines = ["name,year,mips,clock_period_s,energy_j_per_bit,volume_m3,cost_usd,class"]
    for i in range(count):
        year = rng.uniform(1950.0, 2020.0)
        values = ",".join(repr(10.0 ** (start + slope * (year - 1950.0) + rng.gauss(0.0, 0.3)))
                          for start, slope in zip(TREND_START, TREND_SLOPE))
        lines.append(f"synthetic-{i:04d},{year!r},{values},{rng.choice(TREND_CLASSES)}")
    return "\n".join(lines) + "\n"


def catalog(root: Path, seed: int, scratch: Path, *, device_copies=CATALOG_DEVICE_COPIES,
            link_lengths=CATALOG_LINK_LENGTHS, records=CATALOG_TREND_RECORDS) -> Workload:
    rng = random.Random(seed)
    devices = _dump(catalog_devices(_load(root, SHIPPED / "devices" / "four_technologies.json"),
                                    rng, device_copies), scratch / "devices.json")
    links = _dump(catalog_links(_load(root, SHIPPED / "links" / "four_technologies.json"),
                                link_lengths), scratch / "links.json")
    records_csv = scratch / "records.csv"
    records_csv.write_text(trend_records_csv(rng, records), encoding="utf-8")
    trend = _dump({"kind": "trend", "records_csv": records_csv.name, "band_db": 5.0},
                  scratch / "trend.json")
    formats = ("--format", "csv,json,radar_csv")
    return Workload(
        "catalog",
        (Step("limits", ("limits",) + formats),
         Step("device", ("device", "--config", str(devices)) + formats),
         Step("link", ("link", "--config", str(links)) + formats),
         Step("trend", ("trend", "--config", str(trend)) + formats)),
        trend_records=str(records_csv),
        notes=["devices and trend records are drawn from --seed; link lengths are fixed"])


_BY_NAME = {"noc16_uniform": noc16_uniform, "noc24_locality": noc24_locality,
             "catalog": catalog}


def prepare(name: str, root: Path, seed: int, scratch: Path) -> Workload:
    return _BY_NAME[name](root, seed, scratch)
