import math
from collections import deque

import numpy as np
import pytest

from clearfom.economics import ExperienceCurve
from clearfom.errors import ConfigurationError, DomainError
from clearfom.link import (
    ComponentRole,
    ElectricalTransport,
    LinkComponent,
    LinkSpec,
    OpticalTransport,
    link_capacity,
)
from clearfom.metric import Technology
from clearfom.network import (
    NocConfig,
    RouterModel,
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
from clearfom.validation import load_network_config

def _neighbours(topology, node):
    """Nodes one link from ``node`` by the mesh rule, express links included.

    Express links of ``express_span`` columns start at columns 0, span,
    2 span, ... of every row and must end inside the row.
    """
    rows, cols, span = topology.rows, topology.cols, topology.express_span
    row, col = divmod(node, cols)
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if span and col % span == 0:
        if col + span < cols:
            steps.append((0, span))
        if col >= span:
            steps.append((0, -span))
    return {r * cols + c for r, c in ((row + dr, col + dc) for dr, dc in steps)
            if 0 <= r < rows and 0 <= c < cols}


def _path(topology, src, dst):
    """The (from, to) hops of a lone flow from ``src`` to ``dst``, as ``link_activity`` routes it.

    Every loaded link carries the flow once, and chaining the links from
    ``src`` reaches ``dst`` through all of them.
    """
    traffic = _single_flow(topology.node_count, src, dst, rate=float(src != dst))
    loads = link_activity(topology, traffic).loads
    assert set(loads.values()) <= {1.0}
    following = dict(loads.keys())
    path, node = [], src
    while node != dst:
        path.append((node, following[node]))
        node = following[node]
    assert len(path) == len(loads)
    return path


def _bfs_hops(topology, src, dst):
    """Independent breadth-first oracle over base plus express links."""
    if src == dst:
        return 0
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        node, dist = frontier.popleft()
        for nxt in _neighbours(topology, node):
            if nxt == dst:
                return dist + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, dist + 1))
    raise AssertionError("unreachable")


def _manhattan(topology, src, dst):
    r1, c1 = divmod(src, topology.cols)
    r2, c2 = divmod(dst, topology.cols)
    return abs(r1 - r2) + abs(c1 - c2)


def _config(e_link=1e-13, e_router=6e-13, a_router=1.5e-8, a_link=5e-10,
            hybrid_cap=5e10, technologies=("electronic", "hybrid")):
    """Minimal tables: zero-RC electronic wires of 5e10 bit/s and an optical
    channel of min(5e10, ``hybrid_cap``) bit/s. At the 10 GHz clock an
    electronic hop has no delay and costs 1 clock, and a hybrid hop of span 1
    to 7 costs 2: 100 ps of modulator plus 13.3 ps of flight per mm."""
    templates = {}
    if "electronic" in technologies:
        templates[Technology.ELECTRONIC] = LinkSpec(
            name="electronic-noc-link", technology=Technology.ELECTRONIC, length_m=1e-3,
            components=(LinkComponent(name="drv", role=ComponentRole.DRIVER,
                                      bandwidth_hz=1.5625e9, energy_j_per_bit=e_link,
                                      area_m2=a_link),),
            transport=ElectricalTransport(capacitance_f_per_m=0.0,
                                          resistance_ohm_per_m=0.0,
                                          voltage_swing_v=1.0, lanes=32),
            cross_section_width_m=0.0)
    if "hybrid" in technologies:
        templates[Technology.HYBRID] = LinkSpec(
            name="hybrid-noc-link", technology=Technology.HYBRID, length_m=1e-3,
            components=(LinkComponent(name="mod", role=ComponentRole.MODULATOR,
                                      bandwidth_hz=2.5e10, energy_j_per_bit=e_link,
                                      area_m2=a_link, delay_s=1e-10),),
            transport=OpticalTransport(loss_db_per_m=50.0, group_index=4.0,
                                       launch_power_w=1e-3, detector_sensitivity_w=1e-5,
                                       wdm_channels=1, per_channel_rate_cap_bps=hybrid_cap),
            cross_section_width_m=0.0)
    return NocConfig(
        flit_bits=32,
        router_pipeline_clks=3,
        clock_hz=1e10,
        router=RouterModel(dynamic_j_per_bit=e_router, area_m2=a_router),
        link_templates=templates,
        wafer_cost={"electronic": ExperienceCurve(2e5, math.inf, 0.0),
                    "photonic": ExperienceCurve(2.5e6, math.inf, 0.0)},
    )


# Distinct link capacities, 5e10 bit/s electronic and 2e10 bit/s hybrid, so a
# link's utilization shows its class.
DISTINCT_CAPACITIES = _config(hybrid_cap=2e10)


def _single_flow(n, src, dst, rate=1e9):
    rates = [[0.0] * n for _ in range(n)]
    rates[src][dst] = rate
    return TrafficMatrix(rates=rates)


class TestBuildMesh:
    def test_16x16_link_count(self):
        mesh = build_mesh(16, 16, 1e-3, "electronic")
        assert mesh.node_count == 256
        assert mesh.link_counts() == {(Technology.ELECTRONIC, 1): 480}

    def test_1x1_has_no_links(self):
        assert build_mesh(1, 1, 1e-3, "electronic").link_counts() == {}

    def test_2x2_has_four_links(self):
        assert build_mesh(2, 2, 1e-3, "electronic").link_counts() == {(Technology.ELECTRONIC, 1): 4}

    def test_rectangular_count_formula(self):
        mesh = build_mesh(3, 5, 1e-3, "electronic")
        assert mesh.link_counts() == {(Technology.ELECTRONIC, 1): 3 * 4 + 5 * 2}
        degrees = sum(len(_neighbours(mesh, node)) for node in range(mesh.node_count))
        assert degrees == 2 * (3 * 4 + 5 * 2)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            build_mesh(0, 4, 1e-3, "electronic")


class TestExpressLinks:
    def test_sixteen_columns_span_three(self):
        mesh = add_express_links(build_mesh(16, 16, 1e-3, "electronic"), 3, "hybrid")
        assert len(mesh.express_links) == 80
        first_row = [l for l in mesh.express_links if l.b < 16]
        assert len(first_row) == 5

    @pytest.mark.parametrize("span", [4, 5])
    def test_span_of_the_row_width_or_more_is_rejected(self, span):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        with pytest.raises(DomainError, match=f"got span {span} on 4 cols"):
            add_express_links(mesh, span, "hybrid")

    def test_four_columns_span_three(self):
        mesh = add_express_links(build_mesh(4, 4, 1e-3, "electronic"), 3, "hybrid")
        assert len(mesh.express_links) == 4  # one per row

    def test_express_links_are_horizontal_and_tagged(self):
        mesh = add_express_links(build_mesh(4, 8, 1e-3, "electronic"), 3, "hybrid")
        assert mesh.link_counts() == {(Technology.ELECTRONIC, 1): 4 * 7 + 8 * 3,
                                      (Technology.HYBRID, 3): 8}
        for link in mesh.express_links:
            assert link.b - link.a == 3  # same row, three columns apart
            for src, dst in ((link.a, link.b), (link.b, link.a)):
                # One hop either way, over the hybrid capacity.
                activity = link_activity(mesh, _single_flow(32, src, dst, rate=1e10))
                assert activity.utilization(mesh, DISTINCT_CAPACITIES) == {(src, dst): 0.5}

    def test_span_below_two_rejected(self):
        with pytest.raises(DomainError):
            add_express_links(build_mesh(4, 4, 1e-3, "electronic"), 1, "hybrid")

    @pytest.mark.parametrize("second_span", [3, 2])
    def test_a_second_layout_is_rejected(self, second_span):
        mesh = add_express_links(build_mesh(1, 7, 1e-3, "electronic"), 3, "hybrid")
        with pytest.raises(DomainError, match="already has an express layout"):
            add_express_links(mesh, second_span, "hybrid")

    @pytest.mark.parametrize("rows,cols,span", [(2, 7, 3), (3, 10, 3), (2, 9, 2), (1, 16, 3)])
    def test_leftward_routes_match_bfs(self, rows, cols, span):
        mesh = add_express_links(build_mesh(rows, cols, 1e-3, "electronic"), span, "hybrid")
        for src in range(mesh.node_count):
            for dst in range(mesh.node_count):
                if dst % cols < src % cols:
                    assert len(_path(mesh, src, dst)) == _bfs_hops(mesh, src, dst)


class TestDerivedCopiesAreChecked:
    """A copy goes through the record's constructor, so it is checked and coerced too."""

    @pytest.mark.parametrize("flit_bits", [0, -8])
    def test_with_flit_bits_refuses_a_size_below_one(self, flit_bits):
        with pytest.raises(DomainError, match="flit_bits must be at least 1"):
            _config().with_flit_bits(flit_bits)

    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
    def test_injection_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(DomainError, match="injection rate must be finite and non-negative"):
            TrafficParams(injection_bps_per_node=rate)

    def test_replace_checks_every_noc_record(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        with pytest.raises(DomainError, match="flit_bits must be at least 1"):
            _config()._replace(flit_bits=0)
        with pytest.raises(DomainError, match="router energy and area must be non-negative"):
            _config().router._replace(area_m2=-1.0)
        with pytest.raises(DomainError, match="mesh dimensions must be at least 1x1"):
            mesh._replace(rows=0)
        with pytest.raises(DomainError, match="mesh dimensions must be at least 1x1"):
            type(mesh)._make((0, 4, 1e-3, "electronic", None, None))
        assert type(mesh)._make(mesh) == mesh
        assert type(mesh)._make((4, 4, 1e-3, "electronic")).technology is Technology.ELECTRONIC
        with pytest.raises(DomainError, match="got span 4 on 4 cols"):
            mesh._replace(express_span=4, express_technology="hybrid")
        with pytest.raises(DomainError, match="hotspot_fraction must lie in"):
            TrafficParams(injection_bps_per_node=1e9)._replace(hotspot_fraction=2.0)

    @pytest.mark.parametrize("clock_hz", [0.0, -1e10, math.inf, math.nan])
    def test_clock_must_be_finite_and_positive(self, clock_hz):
        with pytest.raises(DomainError, match="clock_hz must be finite and strictly positive"):
            _config()._replace(clock_hz=clock_hz)

    def test_an_express_copy_is_coerced_and_derives_its_own_links(self):
        mesh = build_mesh(2, 8, 1e-3, "electronic")
        assert mesh.express_links == ()  # cached on the plain mesh, not carried to the copy
        express = add_express_links(mesh, 3, "hybrid")
        assert express.express_technology is Technology.HYBRID
        assert [(link.a, link.b) for link in express.express_links] == [
            (0, 3), (3, 6), (8, 11), (11, 14)]


class TestRoute:
    def test_same_node_empty_path(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        assert _path(mesh, 5, 5) == []

    def test_three_hops_across_base_row(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        assert _path(mesh, 0, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_express_shortcut_single_hop(self):
        mesh = add_express_links(build_mesh(4, 4, 1e-3, "electronic"), 3, "hybrid")
        assert _path(mesh, 0, 3) == [(0, 3)]
        activity = link_activity(mesh, _single_flow(16, 0, 3, rate=1e10))
        # Over the express link's capacity.
        assert activity.utilization(mesh, DISTINCT_CAPACITIES) == {(0, 3): 0.5}

    def test_x_phase_before_y_phase(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        cols = [v % 4 for _, v in _path(mesh, 0, 15)]
        assert cols == [1, 2, 3, 3, 3, 3]

    def test_routes_bounded_by_bfs_and_manhattan(self):
        rng = np.random.default_rng(3)
        base = build_mesh(5, 7, 1e-3, "electronic")
        express = add_express_links(base, 3, "hybrid")
        for mesh in (base, express):
            for _ in range(200):
                src, dst = rng.integers(0, mesh.node_count, size=2)
                path = _path(mesh, int(src), int(dst))
                assert all(v in _neighbours(mesh, u) for u, v in path)
                assert len(path) >= _bfs_hops(mesh, int(src), int(dst))
                assert len(path) <= _manhattan(mesh, int(src), int(dst))

    def test_express_free_routes_are_shortest(self):
        mesh = build_mesh(5, 7, 1e-3, "electronic")
        for src in range(mesh.node_count):
            for dst in range(mesh.node_count):
                assert len(_path(mesh, src, dst)) == _manhattan(mesh, src, dst)

    def test_express_never_lengthens_any_pair(self):
        base = build_mesh(4, 8, 1e-3, "electronic")
        express = add_express_links(base, 3, "hybrid")
        for src in range(base.node_count):
            for dst in range(base.node_count):
                assert len(_path(express, src, dst)) <= len(_path(base, src, dst))


class TestGenerateTraffic:
    def test_uniform_even_split(self):
        mesh = build_mesh(2, 2, 1e-3, "electronic")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=3e6),
                                   mesh, seed=1)
        off_diag = traffic.rates[~np.eye(4, dtype=bool)]
        assert np.all(off_diag == 1e6)
        assert link_activity(mesh, traffic).injected_bps == pytest.approx(12e6)

    def test_degenerate_hotspot_takes_everything(self):
        mesh = build_mesh(2, 2, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e6, hotspot_fraction=1.0,
                               hotspot_nodes=(3,))
        traffic = generate_traffic("hotspot", params, mesh, seed=1)
        assert traffic.rates[:, 3].sum() == pytest.approx(3e6)
        assert traffic.rates[:, :3].sum() == 0.0

    def test_hotspot_fraction_splits_load(self):
        mesh = build_mesh(3, 3, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e6, hotspot_fraction=0.7,
                               hotspot_nodes=(4,))
        traffic = generate_traffic("hotspot", params, mesh, seed=1)
        assert traffic.rates[0, 4] == pytest.approx(0.7e6)
        assert traffic.rates[0, [1, 2, 3, 5, 6, 7, 8]].sum() == pytest.approx(0.3e6)

    def test_exponential_locality_approaches_uniform(self):
        mesh = build_mesh(3, 3, 1e-3, "electronic")
        uniform = generate_traffic("uniform", TrafficParams(injection_bps_per_node=8.0),
                                   mesh, seed=5)
        local = generate_traffic("exponential_locality",
                                 TrafficParams(injection_bps_per_node=8.0,
                                               locality_scale_hops=1e16),
                                 mesh, seed=5)
        assert np.max(np.abs(local.rates - uniform.rates)) < 1e-9

    def test_exponential_locality_prefers_neighbors(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        local = generate_traffic("exponential_locality",
                                 TrafficParams(injection_bps_per_node=1e6,
                                               locality_scale_hops=1.0),
                                 mesh, seed=5)
        assert local.rates[0, 1] > local.rates[0, 15]

    def test_seeded_hotspot_choice_is_deterministic(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e6, hotspot_count=3)
        a = generate_traffic("hotspot", params, mesh, seed=11)
        b = generate_traffic("hotspot", params, mesh, seed=11)
        c = generate_traffic("hotspot", params, mesh, seed=12)
        assert np.array_equal(a.rates, b.rates)
        assert not np.array_equal(a.rates, c.rates)

    def test_self_traffic_rejected(self):
        with pytest.raises(DomainError):
            TrafficMatrix(rates=np.eye(4))

    @pytest.mark.parametrize("knobs,message", [
        ({"hotspot_count": 17}, "hotspot_count 17 exceeds the 16 nodes of the mesh"),
        ({"hotspot_nodes": (3, 5, 3)}, "hotspot node 3 is listed more than once"),
    ], ids=["count_above_nodes", "repeated_node"])
    def test_hotspot_inputs_are_not_silently_changed(self, knobs, message):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e6, **knobs)
        with pytest.raises(DomainError, match=message):
            generate_traffic("hotspot", params, mesh, seed=1)


class TestExplicitTrafficMatrix:
    def test_nested_lists_are_routed(self):
        traffic = TrafficMatrix([[0.0, 2.0], [3.0, 0.0]])
        activity = link_activity(build_mesh(1, 2, 1e-3, "electronic"), traffic)
        assert activity.loads == {(0, 1): 2.0, (1, 0): 3.0}
        assert activity.injected_bps == 5.0

    def test_rates_are_the_routed_copy(self):
        given = np.zeros((2, 2))
        given[0, 1] = 1.0
        traffic = TrafficMatrix(rates=given)
        given[0, 1] = 5.0  # the caller's array is not the matrix
        assert traffic.rates == ((0.0, 1.0), (0.0, 0.0))
        activity = link_activity(build_mesh(1, 2, 1e-3, "electronic"), traffic)
        assert activity.loads == {(0, 1): 1.0}

    @pytest.mark.parametrize("rates,message", [
        ([[0.0, 1.0], [1.0]], "must be square"),
        ([0.0, 1.0], "must be square"),
        ([[0.0, math.nan], [1.0, 0.0]], "finite and non-negative"),
        ([[0.0, -1.0], [1.0, 0.0]], "finite and non-negative"),
        ([[0.0, 1.0], [1.0, 2.0]], "self-traffic"),
    ], ids=["ragged", "flat", "nan", "negative", "diagonal"])
    def test_malformed_matrix_rejected(self, rates, message):
        with pytest.raises(DomainError, match=message):
            TrafficMatrix(rates)


class TestLinkActivity:
    def test_single_flow_loads_every_hop(self):
        mesh = build_mesh(1, 4, 1e-3, "electronic")
        activity = link_activity(mesh, _single_flow(4, 0, 3, rate=7.0))
        assert len(activity.loads) == 3
        assert all(load == 7.0 for load in activity.loads.values())
        assert activity.flow_hop_bps == 21.0
        assert activity.router_traversal_bps == 28.0

    def test_conservation_identity_exact_on_integer_rates(self):
        rng = np.random.default_rng(17)
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        for _ in range(50):
            rates = rng.integers(0, 2 ** 20, size=(16, 16)).astype(float)
            np.fill_diagonal(rates, 0.0)
            traffic = TrafficMatrix(rates=rates)
            activity = link_activity(mesh, traffic)
            assert math.fsum(activity.loads.values()) == activity.flow_hop_bps

    def test_2x2_uniform_matches_exhaustive_enumeration(self):
        mesh = build_mesh(2, 2, 1e-3, "electronic")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=3.0),
                                   mesh, seed=1)
        activity = link_activity(mesh, traffic)
        # Oracle: route all 12 pairs by hand with X-then-Y order.
        expected = {}
        for src in range(4):
            for dst in range(4):
                if src == dst:
                    continue
                r1, c1 = divmod(src, 2)
                r2, c2 = divmod(dst, 2)
                node = src
                while c1 != c2:
                    step = 1 if c2 > c1 else -1
                    expected[(node, node + step)] = expected.get((node, node + step), 0.0) + 1.0
                    node += step
                    c1 += step
                while r1 != r2:
                    step = 1 if r2 > r1 else -1
                    expected[(node, node + 2 * step)] = \
                        expected.get((node, node + 2 * step), 0.0) + 1.0
                    node += 2 * step
                    r1 += step
        assert activity.loads == expected

    def test_utilization_divides_by_link_capacity(self):
        mesh = build_mesh(1, 2, 1e-3, "electronic")
        activity = link_activity(mesh, _single_flow(2, 0, 1, rate=2.5e10))
        utilization = activity.utilization(mesh, _config())
        assert utilization[(0, 1)] == pytest.approx(0.5, rel=1e-12)


def _factors(mesh, activity, config, eval_year=None):
    return network_clear(mesh, activity, config, eval_year).factors


def _one_flow(mesh):
    """Activity of one flow from node 0 to node 1, for the load-free factors."""
    return link_activity(mesh, _single_flow(mesh.node_count, 0, 1))


class TestLatency:
    def test_single_hop_electronic_is_four_clks(self):
        mesh = build_mesh(1, 2, 1e-3, "electronic")
        activity = link_activity(mesh, _single_flow(2, 0, 1))
        assert _factors(mesh, activity, _config()).latency == 4.0

    def test_single_hop_optical_is_five_clks(self):
        mesh = build_mesh(1, 2, 1e-3, "hybrid")
        activity = link_activity(mesh, _single_flow(2, 0, 1))
        assert _factors(mesh, activity, _config()).latency == 5.0

    def test_2x2_uniform_matches_enumeration(self):
        mesh = build_mesh(2, 2, 1e-3, "electronic")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=3.0),
                                   mesh, seed=1)
        # Manhattan hops over the 12 ordered pairs: eight 1-hop, four 2-hop.
        expected = (8 * 1 + 4 * 2) / 12 * 4.0
        latency = _factors(mesh, link_activity(mesh, traffic), _config()).latency
        assert latency == pytest.approx(expected, rel=1e-12)

    def test_mixed_technology_path(self):
        mesh = add_express_links(build_mesh(1, 4, 1e-3, "electronic"), 3, "hybrid")
        activity = link_activity(mesh, _single_flow(4, 0, 3))
        latency = _factors(mesh, activity, _config()).latency
        assert latency == 5.0  # one express hop replaces three electronic hops

    def test_zero_traffic_is_undefined(self):
        mesh = build_mesh(2, 2, 1e-3, "electronic")
        with pytest.raises(DomainError):
            network_clear(mesh, link_activity(mesh, TrafficMatrix(rates=np.zeros((4, 4)))),
                          _config())


class TestEnergy:
    def test_single_flow_counts_both_routers(self):
        mesh = build_mesh(1, 2, 1e-3, "electronic")
        activity = link_activity(mesh, _single_flow(2, 0, 1))
        config = _config(e_link=1e-13, e_router=6e-13)
        energy = _factors(mesh, activity, config).energy
        assert energy == pytest.approx(1e-13 + 2 * 6e-13, rel=1e-12)

    def test_injection_scale_invariance(self, network_config_path):
        # A power-of-two injection scales every load and total exactly, and the
        # clock counts do not depend on load, so no case's result moves by a bit.
        config = load_network_config(network_config_path)
        mesh = next(iter(config.cases.values()))
        for pattern, knobs in (("uniform", {}), ("hotspot", {"hotspot_count": 3}),
                               ("exponential_locality", {})):
            results = []
            for injection in (1e9, 1e9 * 2 ** 11):
                params = TrafficParams(injection_bps_per_node=injection, **knobs)
                traffic = generate_traffic(pattern, params, mesh, seed=1)
                activities = case_activities(config.cases, traffic)
                clears = [network_clear(topology, activities[label], config.noc)
                          for label, topology in config.cases.items()]
                results.append([(c.factors.latency, c.factors.energy, c.value) for c in clears])
            assert results[0] == results[1], pattern

    def test_2x2_uniform_weighted_sum(self):
        mesh = build_mesh(2, 2, 1e-3, "electronic")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=3.0),
                                   mesh, seed=1)
        config = _config(e_link=1e-13, e_router=6e-13)
        # 16 rate-weighted hops and 28 router traversals over 12 unit flows.
        expected = (16 * 1e-13 + 28 * 6e-13) / 12
        energy = _factors(mesh, link_activity(mesh, traffic), config).energy
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_optical_links_amortize_laser_power(self):
        mesh = build_mesh(1, 2, 1e-3, "hybrid")
        activity = link_activity(mesh, _single_flow(2, 0, 1))
        config = _config(e_link=0.0, e_router=0.0)
        energy = _factors(mesh, activity, config).energy
        assert energy == pytest.approx(1e-3 / 5e10, rel=1e-12)


class TestAreaAndCost:
    def test_single_link_plus_routers(self):
        mesh = build_mesh(1, 2, 1e-3, "electronic")
        config = _config(a_router=1.5e-8, a_link=5e-10)
        result = _factors(mesh, _one_flow(mesh), config)
        assert result.amount == pytest.approx(2 * 1.5e-8 + 5e-10, rel=1e-12)
        assert result.resistance == pytest.approx(result.amount * 2e5, rel=1e-12)

    def test_cost_additive_per_added_segment(self):
        config = _config()
        meshes = [build_mesh(1, n, 1e-3, "electronic") for n in (2, 3, 4)]
        costs = [_factors(mesh, _one_flow(mesh), config).resistance for mesh in meshes]
        assert costs[1] - costs[0] == pytest.approx(costs[2] - costs[1], rel=1e-9)

    def test_16x16_closed_form(self):
        mesh = build_mesh(16, 16, 1e-3, "electronic")
        config = _config(a_router=1.5e-8, a_link=5e-10)
        result = _factors(mesh, _one_flow(mesh), config)
        assert result.amount == pytest.approx(256 * 1.5e-8 + 480 * 5e-10, rel=1e-9)

    def test_optical_devices_land_on_photonic_die(self):
        mesh = build_mesh(1, 2, 1e-3, "hybrid")
        config = _config(a_router=0.0, a_link=5e-10)
        # Only the photonic die's wafer rate, 2.5e6 USD/m^2, gives this cost.
        result = _factors(mesh, _one_flow(mesh), config)
        assert result.resistance == pytest.approx(5e-10 * 2.5e6, rel=1e-12)

    def test_missing_wafer_entry_is_configuration_error(self):
        mesh = build_mesh(1, 2, 1e-3, "hybrid")
        config = _config()
        broken = config._replace(wafer_cost={"electronic": ExperienceCurve(2e5, math.inf, 0.0)})
        with pytest.raises(ConfigurationError):
            network_clear(mesh, _one_flow(mesh), broken)

    def test_wafer_curve_discounts_future_years(self):
        mesh = build_mesh(1, 2, 1e-3, "electronic")
        config = _config()
        curved = config._replace(wafer_cost={
            "electronic": ExperienceCurve(2e5, halving_period=4.0, reference_time=2016.0),
            "photonic": ExperienceCurve(2.5e6, math.inf, 0.0)})
        now = _factors(mesh, _one_flow(mesh), curved, eval_year=2016.0).resistance
        later = _factors(mesh, _one_flow(mesh), curved, eval_year=2020.0).resistance
        assert later == pytest.approx(now / 2.0, rel=1e-12)


class TestNetworkClear:
    def _setup(self, tech="electronic"):
        mesh = build_mesh(3, 3, 1e-3, tech)
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   mesh, seed=4)
        return mesh, link_activity(mesh, traffic)

    def test_doubling_link_capacity_doubles_value(self):
        mesh, activity = self._setup()
        config = _config()
        base = network_clear(mesh, activity, config)
        # Twice the driver bandwidth of zero-RC wire: twice the capacity, same energy and area.
        template = config.link_templates[Technology.ELECTRONIC]
        driver = template.components[0]
        faster_driver = driver._replace(bandwidth_hz=2 * driver.bandwidth_hz)
        doubled = config._replace(link_templates={
            **config.link_templates,
            Technology.ELECTRONIC: template._replace(components=(faster_driver,))})
        faster = network_clear(mesh, activity, doubled)
        assert faster.value == pytest.approx(2 * base.value, rel=1e-9)

    def test_halving_energy_doubles_value(self):
        mesh, activity = self._setup()
        # Zero router energy keeps link energy the only term.
        base = network_clear(mesh, activity, _config(e_link=2e-13, e_router=0.0))
        halved = network_clear(mesh, activity, _config(e_link=1e-13, e_router=0.0))
        assert halved.value == pytest.approx(2 * base.value, rel=1e-9)

    def test_capability_is_rated_sum_per_node(self):
        mesh, activity = self._setup()
        result = network_clear(mesh, activity, _config())
        assert result.factors.capability == pytest.approx(12 * 5e10 / 9, rel=1e-12)

    def test_determinism_bit_identical(self):
        mesh, activity = self._setup()
        config = _config()
        a = network_clear(mesh, activity, config)
        b = network_clear(mesh, activity, config)
        assert a.value == b.value
        assert a.factors.latency == b.factors.latency
        assert a.factors.energy == b.factors.energy

    def test_missing_table_entry_names_the_table(self):
        mesh, activity = self._setup()
        broken = _config(technologies=("hybrid",))
        with pytest.raises(ConfigurationError,
                           match="link_templates has no entry for technology 'electronic'"):
            network_clear(mesh, activity, broken)


class TestFlitSweep:
    def test_crossover_detector_on_synthetic_series(self):
        flits = [32, 64, 128, 256]
        series = [10.0, 9.0, 7.0, 1.0]
        baseline = [8.0, 8.0, 8.0, 8.0]
        assert find_crossover(flits, series, baseline) == 128

    def test_no_crossover_returns_none(self):
        flits = [32, 64, 128]
        assert find_crossover(flits, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) is None

    def test_single_flit_matches_direct_evaluation(self):
        mesh = build_mesh(3, 3, 1e-3, "electronic")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   mesh, seed=4)
        config = _config()
        cases = {"electronic": mesh}
        table = flit_sweep(cases, case_activities(cases, traffic), config, [32])
        direct = network_clear(mesh, link_activity(mesh, traffic), config)
        assert table == {32: {"electronic": direct}}

    def test_electrical_templates_are_flit_bits_lanes_wide(self):
        config = _config()
        template = config.link_templates[Technology.ELECTRONIC]
        one_lane = template._replace(transport=template.transport._replace(lanes=1))
        # Any electrical template, not only the electronic one, takes its width from flit_bits.
        config = config._replace(flit_bits=24, link_templates={
            Technology.ELECTRONIC: one_lane, Technology.PLASMONIC: one_lane})
        for technology in (Technology.ELECTRONIC, Technology.PLASMONIC):
            assert config.link_templates[technology].transport.lanes == 24
            wide = config.with_flit_bits(48).link_templates[technology]
            assert wide.transport.lanes == 48
            assert link_capacity(wide) == link_capacity(config.link_templates[technology])
        assert config.with_flit_bits(24) is config

    def test_electronic_lane_count_tracks_flit_bits(self):
        config = _config()
        wide = config.with_flit_bits(128)
        template = wide.link_templates[Technology.ELECTRONIC]
        assert template.transport.lanes == 128
        assert template.components[0].bandwidth_hz == pytest.approx(5e10 / 128, rel=1e-12)
        assert wide.router.area_m2 == pytest.approx(config.router.area_m2 * 4, rel=1e-12)

    def test_electronic_lanes_share_the_template_capacity(self):
        config = _config()
        template = config.link_templates[Technology.ELECTRONIC]
        driver = template.components[0]._replace(bandwidth_hz=1.25e9)  # 32 x 1.25e9 = 4e10
        config = config._replace(link_templates={
            **config.link_templates, Technology.ELECTRONIC: template._replace(components=(driver,))})
        for flit in (16, 128):
            resized = config.with_flit_bits(flit).link_templates[Technology.ELECTRONIC]
            assert resized.components[0].bandwidth_hz == 4e10 / flit
            assert link_capacity(resized) == 4e10

    def test_serdes_area_scales_but_energy_does_not(self):
        serdes = LinkComponent(name="serdes", role=ComponentRole.SERDES,
                               bandwidth_hz=2.5e10, energy_j_per_bit=3e-14,
                               area_m2=1.6e-9)
        config = _config()
        template = config.link_templates[Technology.HYBRID]._replace(components=(serdes,))
        config = config._replace(link_templates={**config.link_templates,
                                                 Technology.HYBRID: template})
        wide = config.with_flit_bits(64)
        scaled = wide.link_templates[Technology.HYBRID].components[0]
        assert scaled.area_m2 == pytest.approx(3.2e-9, rel=1e-12)
        assert scaled.energy_j_per_bit == 3e-14
