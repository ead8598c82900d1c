"""The package surface and the import boundaries of the CLI.

Each public name has one home: it is imported from the module that defines
it, and no two modules list it in ``__all__``. ``import clearfom.cli`` loads no
model module: each subcommand imports only the modules it runs, so each run
loads exactly the ``clearfom`` modules listed in ``ADDED``. Only the network
subcommand imports :mod:`clearfom.network`, and no subcommand imports numpy:
generated traffic is routed from closed-form demands, and every command runs
in an interpreter that cannot import numpy. Neither the import, any run nor
the NoC library loads ``dataclasses`` or ``inspect``: the value types are
NamedTuples, so start-up does not pay for that machinery. Only a run that
reads a CSV input, ``trend``, loads :mod:`csv`.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import clearfom
from clearfom.data import example_path

# The package and every module in it.
MODULES = ["clearfom", *sorted(info.name for info in
                               pkgutil.walk_packages(clearfom.__path__, "clearfom."))]

# The clearfom modules that ``import clearfom.cli`` loads.
CLI_MODULES = ["clearfom", "clearfom.cli", "clearfom.errors", "clearfom.ioutil", "clearfom.metric"]

# The clearfom modules each subcommand loads on top of CLI_MODULES.
ADDED = {
    "limits": ["constants", "limits"],
    "device": ["constants", "device", "limits", "validation"],
    "link": ["constants", "economics", "limits", "link", "validation"],
    "trend": ["constants", "economics", "limits", "trend", "validation"],
    "network": ["constants", "economics", "link", "network", "validation"],
}

# Standard-library modules that no clearfom path may load.
_MACHINERY = """
def machinery():
    return [name for name in ("dataclasses", "inspect") if name in sys.modules]
"""

# Imports ``clearfom.cli``, runs its ``main`` on argv and reports the clearfom
# modules loaded by the import and added by the run, whether numpy loaded, and
# the machinery loaded and whether csv is loaded, after the import and after the run.
_PROBE = """
import json, sys
def loaded():
    return [name for name in sorted(sys.modules) if name.partition(".")[0] == "clearfom"]
""" + _MACHINERY + """
from clearfom.cli import main
imported, at_import, csv_at_import = loaded(), machinery(), "csv" in sys.modules
code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "imported": imported,
                  "added": [name.removeprefix("clearfom.") for name in loaded()
                            if name not in imported],
                  "machinery": [at_import, machinery()],
                  "csv": [csv_at_import, "csv" in sys.modules]}))
"""


# Blocks numpy, then runs ``main`` on each argv of a JSON list and reports the exit codes.
_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from clearfom.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


# Blocks numpy, then runs the NoC library on the shipped cases under each traffic
# pattern, routes traffic generated on 4x6 over a 6x4 mesh, and reports the machinery.
_BLOCKED_LIBRARY = """
import json, sys
sys.modules["numpy"] = None
""" + _MACHINERY + """
from clearfom.network import (TrafficParams, build_mesh, case_activities, flit_sweep,
                              generate_traffic, link_activity, network_clear)
from clearfom.validation import load_network_config
config = load_network_config(sys.argv[1])
cases, mesh = config.cases, config.cases["electronic"]
params = TrafficParams(injection_bps_per_node=1e9)
report = {}
for pattern in ("uniform", "hotspot", "exponential_locality"):
    traffic = generate_traffic(pattern, params, mesh, seed=7)
    clear = network_clear(mesh, link_activity(mesh, traffic), config.noc).value
    table = flit_sweep(cases, case_activities(cases, traffic), config.noc, [32, 64])
    report[pattern] = [clear > 0, {flit: len(column) for flit, column in table.items()}]
wide = generate_traffic("uniform", params, build_mesh(4, 6, 1e-3, "electronic"), seed=7)
try:
    link_activity(build_mesh(6, 4, 1e-3, "electronic"), wide)
    report["other_shape"] = "routed"
except Exception as exc:
    report["other_shape"] = type(exc).__name__
report["machinery"] = machinery()
print(json.dumps(report))
"""


def _run(script, args):
    src = str(Path(clearfom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _probe(argv, tmp_path):
    return _run(_PROBE, [*argv, "--out", str(tmp_path / "out"), "--format", "csv,json"])


def _trend_config(tmp_path):
    path = tmp_path / "trend.json"
    path.write_text(json.dumps({
        "kind": "trend",
        "records_csv": str(example_path("trend/sample_synthetic_systems.csv"))}),
        encoding="utf-8")
    return str(path)


def _command_args(command, tmp_path):
    return {
        "limits": [],
        "device": ["--config", str(example_path("devices/four_technologies.json"))],
        "link": ["--config", str(example_path("links/four_technologies.json"))],
        "trend": ["--config", _trend_config(tmp_path)],
    }[command]


# Traffic beyond the shipped uniform config; locality runs on a 24x24 mesh.
TRAFFIC = {
    "locality_24x24": {"pattern": "exponential_locality", "locality_scale_hops": 2.0},
    "explicit_hotspots": {"pattern": "hotspot", "hotspot_fraction": 0.7,
                          "hotspot_nodes": [5, 17]},
    "seeded_hotspots": {"pattern": "hotspot", "hotspot_fraction": 0.7, "hotspot_count": 3},
}


def _network_config(tmp_path, shipped_doc, name):
    doc = dict(shipped_doc)
    doc["traffic"] = {**TRAFFIC[name], "injection_bps_per_node":
                      shipped_doc["traffic"]["injection_bps_per_node"]}
    if TRAFFIC[name]["pattern"] == "exponential_locality":
        doc["mesh"] = {**doc["mesh"], "rows": 24, "cols": 24}
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return str(config)


class TestImportBoundary:
    @pytest.mark.parametrize("command", ["limits", "device", "link", "trend"])
    def test_non_network_commands_skip_numpy(self, command, tmp_path):
        result = _probe([command, *_command_args(command, tmp_path)], tmp_path)
        assert result == {"code": 0, "numpy": False, "imported": CLI_MODULES,
                          "added": ADDED[command], "machinery": [[], []],
                          "csv": [False, command == "trend"]}

    def test_network_command_skips_numpy(self, tmp_path):
        config = str(example_path("networks/mesh16_comparison.json"))
        result = _probe(["network", "--config", config, "--seed", "7"], tmp_path)
        assert result == {"code": 0, "numpy": False, "imported": CLI_MODULES,
                          "added": ADDED["network"], "machinery": [[], []],
                          "csv": [False, False]}

    @pytest.mark.parametrize("traffic", list(TRAFFIC))
    def test_no_traffic_pattern_loads_numpy(self, tmp_path, network_config_doc, traffic):
        config = _network_config(tmp_path, network_config_doc, traffic)
        result = _probe(["network", "--config", config, "--seed", "7"], tmp_path)
        assert result == {"code": 0, "numpy": False, "imported": CLI_MODULES,
                          "added": ADDED["network"], "machinery": [[], []],
                          "csv": [False, False]}

    def test_every_command_runs_without_numpy(self, tmp_path, network_config_doc):
        configs = [str(example_path("networks/mesh16_comparison.json")),
                   *(_network_config(tmp_path, network_config_doc, name) for name in TRAFFIC)]
        runs = [*([command, *_command_args(command, tmp_path)]
                  for command in ("limits", "device", "link", "trend")),
                *(["network", "--config", config, "--seed", "7"] for config in configs)]
        runs = [[*argv, "--out", str(tmp_path / f"out{index}"), "--format", "csv,json"]
                for index, argv in enumerate(runs)]
        assert _run(_BLOCKED, [json.dumps(runs)]) == [0] * len(runs)

    def test_noc_library_runs_without_numpy(self, network_config_path, network_config_doc):
        sweep = {flit: len(network_config_doc["cases"]) for flit in ("32", "64")}  # JSON keys
        assert _run(_BLOCKED_LIBRARY, [str(network_config_path)]) == {
            "uniform": [True, sweep], "hotspot": [True, sweep],
            "exponential_locality": [True, sweep], "other_shape": "DomainError",
            "machinery": []}


@pytest.mark.parametrize("module_name", MODULES)
def test_all_lists_only_defined_names(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# Every public name, with the module whose ``__all__`` lists it.
PUBLIC = [(module_name, name) for module_name in MODULES
          for name in getattr(importlib.import_module(module_name), "__all__", ())]


@pytest.mark.parametrize("module_name,name", PUBLIC)
def test_each_public_name_has_one_home(module_name, name):
    assert [home for home, listed in PUBLIC if listed == name] == [module_name]
    value = getattr(importlib.import_module(module_name), name)
    assert getattr(value, "__module__", module_name) == module_name
