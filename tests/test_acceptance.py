"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute. Tolerances are pinned here and nowhere else.
"""

import functools
import hashlib
import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from clearfom.cli import EXIT_OK, main
from clearfom.constants import ELECTRON_MASS
from clearfom.data import example_path
from clearfom.limits import (
    bremermann_rate,
    heisenberg_min_length,
    landauer_energy,
    margolus_levitin_rate,
    minimum_device_pair_mass,
    time_of_flight_rate_limit,
)
from clearfom.link import (
    ElectricalTransport,
    LinkSpec,
    link_capacity,
    link_energy_per_bit,
    p2p_latency,
)
from clearfom.metric import Axes, Level, Technology, clear_value
from clearfom.network import (
    TrafficMatrix,
    TrafficParams,
    add_express_links,
    build_mesh,
    case_activities,
    find_crossover,
    flit_sweep,
    generate_traffic,
    link_activity,
    network_clear,
)
from clearfom.trend import SystemRecord, fit_growth, system_clear
from clearfom.validation import load_network_config


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")
        return wrapper
    return decorate


@criterion(1, "physical limits: Landauer, Heisenberg, Margolus-Levitin, Bremermann")
def test_criterion_1_physical_limits():
    assert landauer_energy(300.0) == pytest.approx(2.87e-21, rel=0.01)
    electron = ELECTRON_MASS
    assert heisenberg_min_length(300.0, electron) == pytest.approx(1.5e-9, rel=0.05)
    assert margolus_levitin_rate(landauer_energy(300.0)) > 1.6e13
    assert bremermann_rate(minimum_device_pair_mass(300.0, electron)) > 1e16


@criterion(2, "wire charging energy: 1 cm at 1.65 pF/cm and 1 V >= 0.8 pJ/bit")
def test_criterion_2_wire_energy():
    link = LinkSpec(
        name="bare-wire", technology="electronic", length_m=1e-2, components=(),
        transport=ElectricalTransport(capacitance_f_per_m=1.65e-10,
                                      resistance_ohm_per_m=1e5, voltage_swing_v=1.0),
        cross_section_width_m=5e-7)
    energy = link_energy_per_bit(link)
    assert energy >= 8.0e-13
    assert energy == pytest.approx(8.25e-13, rel=1e-12)


@criterion(3, "time-of-flight ceilings: 1e12/1e11/1e10 Hz at n=3 on the decade grid")
def test_criterion_3_time_of_flight():
    # The decade grid follows from c ~ 3e8 m/s; with CODATA c the absolute
    # values sit 0.07% below it, so the grid is asserted at 0.1% and the
    # decade RATIOS, which are exact in the formula, at 1e-12.
    r100um = time_of_flight_rate_limit(100e-6, 3.0)
    r1mm = time_of_flight_rate_limit(1e-3, 3.0)
    r1cm = time_of_flight_rate_limit(1e-2, 3.0)
    assert r100um == pytest.approx(1e12, rel=1e-3)
    assert r1mm == pytest.approx(1e11, rel=1e-3)
    assert r1cm == pytest.approx(1e10, rel=1e-3)
    assert r100um / r1mm == pytest.approx(10.0, rel=1e-12)
    assert r1mm / r1cm == pytest.approx(10.0, rel=1e-12)


@criterion(4, "NoC structure: 480 base links, 5 express per row, 80 total")
def test_criterion_4_mesh_structure():
    mesh = build_mesh(16, 16, 1e-3, "electronic")
    assert mesh.link_counts() == {(Technology.ELECTRONIC, 1): 480}
    express = add_express_links(mesh, 3, "hybrid")
    assert express.link_counts() == {(Technology.ELECTRONIC, 1): 480,
                                     (Technology.HYBRID, 3): 80}
    assert len(express.express_links) == 80
    for row in range(16):
        in_row = [l for l in express.express_links if l.a // 16 == row]
        assert len(in_row) == 5


@criterion(5, "latency accounting: 4/5 clks per hop and the 4x4 BFS oracle")
def test_criterion_5_latency(network_config_path):
    config = load_network_config(network_config_path).noc

    pair_elec = build_mesh(1, 2, 1e-3, "electronic")
    rates = np.zeros((2, 2))
    rates[0, 1] = 1e9
    activity = link_activity(pair_elec, TrafficMatrix(rates=rates.copy()))
    assert network_clear(pair_elec, activity, config).factors.latency == 4.0
    pair_opt = build_mesh(1, 2, 1e-3, "hybrid")
    activity = link_activity(pair_opt, TrafficMatrix(rates=rates.copy()))
    assert network_clear(pair_opt, activity, config).factors.latency == 5.0

    mesh = build_mesh(4, 4, 1e-3, "electronic")
    traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                               mesh, seed=0)

    # Independent oracle: breadth-first hop counts times the per-hop cost.
    def neighbours(node):
        row, col = divmod(node, 4)
        return [r * 4 + c for r, c in ((row - 1, col), (row + 1, col), (row, col - 1),
                                       (row, col + 1)) if 0 <= r < 4 and 0 <= c < 4]

    def bfs(src, dst):
        seen = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nxt in neighbours(node):
                if nxt not in seen:
                    seen[nxt] = seen[node] + 1
                    queue.append(nxt)
        return seen[dst]

    # An electronic hop costs its 1 mm link's delay in whole clocks, at least one.
    delay = p2p_latency(config.link_templates[Technology.ELECTRONIC])
    per_hop = config.router_pipeline_clks + max(1, math.ceil(delay * config.clock_hz))
    weighted = 0.0
    total = 0.0
    for src in range(16):
        for dst in range(16):
            rate = traffic.rates[src, dst]
            if rate > 0:
                weighted += rate * bfs(src, dst) * per_hop
                total += rate
    oracle = weighted / total
    latency = network_clear(mesh, link_activity(mesh, traffic), config).factors.latency
    assert latency == pytest.approx(oracle, rel=1e-12)


@criterion(6, "rate consistency: 32 x 1.5625 GHz and 2 x 25 Gb/s both equal 50 Gb/s")
def test_criterion_6_rate_consistency(network_config_path):
    network = load_network_config(network_config_path)
    config = network.noc
    electronic = config.link_templates[Technology.ELECTRONIC].at_length(1e-3)
    assert electronic.transport.lanes == 32
    assert link_capacity(electronic) == 32 * 1.5625e9 == 5e10
    photonic = config.link_templates[Technology.PHOTONIC].at_length(1e-3)
    assert photonic.transport.wdm_channels == 2
    assert photonic.transport.per_channel_rate_cap_bps == 2.5e10
    assert link_capacity(photonic) == 5e10
    # Every template carries 50 Gb/s on base and span-3 express hops at each swept flit size.
    for flit in network.flit_sizes:
        for technology, template in config.with_flit_bits(flit).link_templates.items():
            for hop_span in (1, 3):
                assert link_capacity(template.at_length(hop_span * 1e-3)) == 5e10, \
                    (technology, flit, hop_span)


@criterion(7, "flow conservation: 1000 random matrices balance exactly")
def test_criterion_7_flow_conservation():
    # Integer bit rates keep every partial sum exact in double precision.
    rng = np.random.default_rng(123)
    mesh = build_mesh(4, 4, 1e-3, "electronic")
    for _ in range(1000):
        rates = rng.integers(0, 2 ** 20, size=(16, 16)).astype(float)
        np.fill_diagonal(rates, 0.0)
        activity = link_activity(mesh, TrafficMatrix(rates=rates))
        assert math.fsum(activity.loads.values()) == activity.flow_hop_bps


@criterion(8, "CLEAR homogeneity: 10^4 random single-factor rescalings")
def test_criterion_8_homogeneity():
    rng = np.random.default_rng(31)
    factor_names = ("capability", "latency", "energy", "amount", "resistance")
    for _ in range(2000):
        raw = 10.0 ** rng.uniform(-6, 6, size=5)
        base = Axes(*raw)
        base_value = clear_value(base, Level.NETWORK).value
        scale = float(10.0 ** rng.uniform(-6, 6))
        for i, name in enumerate(factor_names):
            scaled_raw = list(raw)
            scaled_raw[i] *= scale
            scaled_value = clear_value(Axes(*scaled_raw), Level.NETWORK).value
            expected = base_value * scale if name == "capability" else base_value / scale
            assert abs(scaled_value - expected) <= 1e-12 * abs(expected)


@criterion(9, "trend fitting: exact 12.0-month doubling, noisy recovery within 10%")
def test_criterion_9_trend_fit():
    noiseless = [SystemRecord(name=f"m{y}", year=float(y), mips=2.0 ** (y - 2000),
                              clock_period_s=1.0, energy_j_per_bit=1.0,
                              volume_m3=1.0, cost_usd=1.0)
                 for y in range(2000, 2011)]
    fit = fit_growth([(r.year, system_clear(r).value) for r in noiseless])
    assert fit.doubling_months == 12.0
    assert fit.r_squared == 1.0

    rng = np.random.default_rng(77)
    noisy = [SystemRecord(name=f"n{y}", year=float(y),
                          mips=2.0 ** (y - 1980) * 2.0 ** rng.normal(0.0, math.log2(1.10)),
                          clock_period_s=1.0, energy_j_per_bit=1.0,
                          volume_m3=1.0, cost_usd=1.0)
             for y in range(1980, 2010)]
    noisy_fit = fit_growth([(r.year, system_clear(r).value) for r in noisy])
    assert 10.8 <= noisy_fit.doubling_months <= 13.2
    assert noisy_fit.r_squared > 0.95


@criterion(10, "shipped orderings: express augmentation wins; flit sweep crossover exists")
def test_criterion_10_shipped_orderings(network_config_path):
    config = load_network_config(network_config_path)
    wanted = {"electronic", "hyppi", "electronic+hyppi-express"}
    cases = {label: mesh for label, mesh in config.cases.items() if label in wanted}
    traffic = generate_traffic(config.traffic_pattern, config.traffic_params,
                               cases["electronic"], seed=7)
    flits = [32, 64, 128, 256]
    sweep = flit_sweep(cases, case_activities(cases, traffic), config.noc, flits)
    table = {label: [sweep[flit][label].value for flit in flits] for label in cases}

    assert table["electronic+hyppi-express"][0] > table["electronic"][0]

    differences = [h - e for h, e in zip(table["hyppi"], table["electronic"])]
    assert differences[0] < 0  # electronics wins at the shipped 32-bit flit
    assert any(d > 0 for d in differences)  # and is overtaken at a larger flit
    crossover = find_crossover(flits, table["hyppi"], table["electronic"])
    assert crossover is not None
    assert crossover >= 64


@criterion(11, "determinism: identical seeds give byte-identical artifacts")
def test_criterion_11_determinism(tmp_path):
    config = example_path("networks/mesh16_comparison.json")

    def run(out_dir: Path) -> dict:
        code = main(["network", "--config", str(config), "--seed", "42",
                     "--out", str(out_dir), "--format", "csv,json"])
        assert code == EXIT_OK
        return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.rglob("*")) if p.is_file()}

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second
    assert any(name.endswith(".csv") for name in first)
    assert any(name.endswith(".json") for name in first)
