"""Aggregated routing and generated traffic checked against scalar references.

The references below are the per-flow walker and the per-source locality and
hotspot loops that the library used before it aggregated demands and
vectorised the generators; they stay here as the oracles the faster paths
must agree with. Generated traffic is routed from closed-form row and column
demands, which are checked against sums of its materialised ``rates``, and
bit for bit against the closed forms as they were before equal row and
column planes came to be shared.
"""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearfom.constants import LIGHT_SPEED_VACUUM
from clearfom.data import example_path
from clearfom.economics import ExperienceCurve
from clearfom.errors import DomainError
from clearfom.link import (
    ComponentRole,
    ElectricalTransport,
    LinkComponent,
    LinkSpec,
    OpticalTransport,
    link_area,
    link_capacity,
    link_energy_per_bit,
    p2p_latency,
)
from clearfom.metric import Technology
from clearfom.network import (
    LinkActivity,
    NocConfig,
    RouterModel,
    TrafficMatrix,
    TrafficParams,
    TrafficPattern,
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


def reference_walk(topology, src, dst):
    """Yield (from, to) hops X first, then Y, by the documented greedy rule.

    From each node of the X phase, the express link leaving it toward the
    destination column is taken when its far end does not overshoot that
    column; otherwise the route takes one base hop.
    """
    cols = topology.cols
    rightward = {link.a: link.b for link in topology.express_links}
    leftward = {link.b: link.a for link in topology.express_links}
    target = dst % cols
    node = src
    while node % cols != target:
        if target > node % cols:
            far = rightward.get(node)
            nxt = far if far is not None and far % cols <= target else node + 1
        else:
            far = leftward.get(node)
            nxt = far if far is not None and far % cols >= target else node - 1
        yield node, nxt
        node = nxt
    step = cols if dst > node else -cols
    while node != dst:
        yield node, node + step
        node += step


def reference_link_activity(topology, traffic):
    """Walk every nonzero flow hop by hop and charge its rate to each link."""
    n = topology.node_count
    loads_by_key = {}
    injected = flow_hops = traversals = 0.0
    rates = traffic.rates
    for src in range(n):
        row = rates[src]
        for dst in np.nonzero(row)[0]:
            rate = float(row[dst])
            hops = 0
            for u, v in reference_walk(topology, src, int(dst)):
                key = u * n + v
                loads_by_key[key] = loads_by_key.get(key, 0.0) + rate
                hops += 1
            injected += rate
            flow_hops += rate * hops
            traversals += rate * (hops + 1)
    loads = {(key // n, key % n): load for key, load in sorted(loads_by_key.items())}
    return LinkActivity(geometry=topology.geometry, loads=loads, injected_bps=injected,
                        flow_hop_bps=flow_hops, router_traversal_bps=traversals)


def reference_locality_rates(topology, injection_bps, scale):
    """Normalise exp(-Manhattan / scale) one source row at a time."""
    n = topology.node_count
    rates = np.zeros((n, n))
    for src in range(n):
        r1, c1 = divmod(src, topology.cols)
        weights = np.array([
            0.0 if dst == src else
            math.exp(-(abs(r1 - dst // topology.cols) + abs(c1 - dst % topology.cols)) / scale)
            for dst in range(n)])
        rates[src] = injection_bps * weights / weights.sum()
    return rates


def reference_seeded_pick(seed, n, count):
    """The ``count`` nodes with the smallest SHA-256 of ``f"{seed}:{node}"``, sorted."""
    def digest(node):
        return hashlib.sha256(f"{seed}:{node}".encode("ascii")).hexdigest()
    return sorted(sorted(range(n), key=digest)[:count])


def reference_hotspot_rates(n, hotspots, injection_bps, fraction):
    """Fill each source row from Python lists of its hot and other destinations."""
    rates = np.zeros((n, n))
    hot = set(hotspots)
    for src in range(n):
        hot_targets = [h for h in hotspots if h != src]
        others = [d for d in range(n) if d != src and d not in hot]
        if hot_targets:
            share = injection_bps * fraction / len(hot_targets)
            for dst in hot_targets:
                rates[src, dst] = share
        if others:
            share = injection_bps * (1.0 - fraction) / len(others)
            for dst in others:
                rates[src, dst] += share
    return rates


def reference_locality_demands(rows, cols, injection_bps, scale):
    """Closed-form locality demands with one plane built per row and per column."""
    row_weight = [[math.exp(-abs(a - b) / scale) for b in range(rows)] for a in range(rows)]
    col_weight = [[math.exp(-abs(a - b) / scale) for b in range(cols)] for a in range(cols)]
    row_off = [math.fsum(w for b, w in enumerate(line) if b != a)
               for a, line in enumerate(row_weight)]
    col_off = [math.fsum(w for b, w in enumerate(line) if b != a)
               for a, line in enumerate(col_weight)]
    per_source = [[injection_bps / (a + b + a * b) for b in col_off] for a in row_off]
    row_demand = []
    for r, scales in enumerate(per_source):
        plane = []
        for c1, u in enumerate(scales):
            line = [u * w * (1.0 + row_off[r]) for w in col_weight[c1]]
            line[c1] = u * row_off[r]
            plane.append(line)
        row_demand.append(plane)
    col_demand = []
    for c in range(cols):
        plane = []
        for r1, scales in enumerate(per_source):
            terms = [u * weights[c] for u, weights in zip(scales, col_weight)]
            line = [w * math.fsum(terms) for w in row_weight[r1]]
            line[r1] = math.fsum(terms[:c] + terms[c + 1:])
            plane.append(line)
        col_demand.append(plane)
    return row_demand, col_demand, reference_injected(row_demand)


def reference_hotspot_demands(rows, cols, hotspots, injection_bps, fraction):
    """Closed-form hotspot demands with one plane built per row and per column."""
    n, h = rows * cols, len(hotspots)
    to_hot = [injection_bps * fraction / t if t else 0.0 for t in (h, h - 1)]
    to_other = [injection_bps * (1.0 - fraction) / t if t else 0.0
                for t in (n - h - 1, n - h)]
    is_hot = [[0] * cols for _ in range(rows)]
    for node in hotspots:
        is_hot[node // cols][node % cols] = 1
    hot_in_col = [sum(column) for column in zip(*is_hot)]
    hot_in_row = [sum(line) for line in is_hot]
    row_demand = []
    for r in range(rows):
        plane = []
        for c1, own in enumerate(is_hot[r]):
            hot, other = to_hot[own], to_other[own]
            line = [hot * k + other * (rows - k) for k in hot_in_col]
            k = hot_in_col[c1] - own
            line[c1] = hot * k + other * (rows - 1 - k)
            plane.append(line)
        row_demand.append(plane)

    def row_sum(shares, hot, cold):
        return shares[1] * hot + shares[0] * cold

    toward = [(row_sum(to_other, hot, cols - hot), row_sum(to_hot, hot, cols - hot))
              for hot in hot_in_row]
    col_demand = []
    for c in range(cols):
        plane = []
        for r1, hot in enumerate(hot_in_row):
            line = [toward[r1][is_hot[r2][c]] for r2 in range(rows)]
            own = is_hot[r1][c]
            line[r1] = row_sum(to_hot if own else to_other, hot - own, cols - hot - 1 + own)
            plane.append(line)
        col_demand.append(plane)
    return row_demand, col_demand, reference_injected(row_demand)


def reference_injected(row_demand):
    return math.fsum(value for plane in row_demand for line in plane for value in line)


@st.composite
def routed_cases(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    mesh = build_mesh(rows, cols, 1e-3, "electronic")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if cols >= 3 and draw(st.booleans()):
        mesh = add_express_links(mesh, draw(st.integers(2, cols - 1)), "hybrid")
    n = rows * cols
    integer = draw(st.booleans())
    if integer:
        rates = rng.integers(1, 2 ** 20, size=(n, n)).astype(float)
    else:
        rates = rng.random((n, n)) * 10.0 ** rng.uniform(-3, 12)
    rates[rng.random((n, n)) >= draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))] = 0.0
    rates[rng.random(n) < 0.25] = 0.0
    np.fill_diagonal(rates, 0.0)
    return mesh, TrafficMatrix(rates=rates), integer


class TestAggregatedLinkActivity:
    @settings(max_examples=150, deadline=None)
    @given(routed_cases())
    def test_matches_scalar_walker(self, case):
        mesh, traffic, integer = case
        fast = link_activity(mesh, traffic)
        slow = reference_link_activity(mesh, traffic)
        assert list(fast.loads) == list(slow.loads)
        pairs = [(fast.loads[k], slow.loads[k]) for k in slow.loads]
        pairs += [(fast.injected_bps, slow.injected_bps),
                  (fast.flow_hop_bps, slow.flow_hop_bps),
                  (fast.router_traversal_bps, slow.router_traversal_bps)]
        for got, want in pairs:
            if integer:
                assert got == want
            else:
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("k", [5, 7, 16])
    def test_uniform_max_channel_load_closed_form(self, k):
        # Dally & Towles: the bisection-adjacent channel carries k*floor(k/2)*ceil(k/2)
        # flows of rate lambda / (n - 1) under XY routing.
        injection = 1e9
        mesh = build_mesh(k, k, 1e-3, "electronic")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=injection),
                                   mesh, seed=0)
        expected = k * (k // 2) * ((k + 1) // 2) * injection / (k * k - 1)
        assert max(link_activity(mesh, traffic).loads.values()) == \
            pytest.approx(expected, rel=1e-12)

    def test_loads_and_totals_are_python_floats(self):
        mesh = add_express_links(build_mesh(3, 5, 1e-3, "electronic"), 2, "hybrid")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   mesh, seed=0)
        activity = link_activity(mesh, traffic)
        values = [*activity.loads.values(), activity.injected_bps, activity.flow_hop_bps,
                  activity.router_traversal_bps]
        assert all(type(value) is float for value in values)
        assert all(type(a) is int and type(b) is int for a, b in activity.loads)


@st.composite
def generated_cases(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(2 if rows == 1 else 1, 9))
    mesh = build_mesh(rows, cols, 1e-3, "electronic")
    if cols >= 3 and draw(st.booleans()):
        mesh = add_express_links(mesh, draw(st.integers(2, cols - 1)), "hybrid")
    n = rows * cols
    explicit = draw(st.booleans())
    params = TrafficParams(
        injection_bps_per_node=draw(st.sampled_from([1.0, 3e9, 1e12 / 7])),
        hotspot_fraction=draw(st.sampled_from([0.0, 0.7, 1.0])),
        hotspot_nodes=tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                          unique=True))) if explicit else None,
        hotspot_count=draw(st.integers(1, n)),
        locality_scale_hops=draw(st.sampled_from([0.1, 0.5, 2.0, 4.0, 1e3])))
    pattern = draw(st.sampled_from(list(TrafficPattern)))
    return mesh, generate_traffic(pattern, params, mesh, seed=draw(st.integers(0, 2 ** 16)))


def assert_close(got, want):
    assert got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)


class TestClosedFormDemands:
    @settings(max_examples=150, deadline=None)
    @given(generated_cases())
    def test_demands_match_sums_of_materialised_rates(self, case):
        mesh, traffic = case
        row, col, injected = traffic.demands(mesh.rows, mesh.cols)
        grid = traffic.rates.reshape(mesh.rows, mesh.cols, mesh.rows, mesh.cols)
        for got, want in ((np.array(row), grid.sum(axis=2)),
                          (np.array(col), grid.sum(axis=1).transpose(2, 0, 1))):
            assert got.shape == want.shape
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert_close(injected, math.fsum(traffic.rates.flat))
        assert link_activity(mesh, traffic).injected_bps == injected

    @settings(max_examples=150, deadline=None)
    @given(generated_cases())
    def test_link_activity_matches_scalar_walker(self, case):
        mesh, traffic = case
        fast = link_activity(mesh, traffic)
        slow = reference_link_activity(mesh, traffic)
        assert list(fast.loads) == list(slow.loads)
        for key, load in slow.loads.items():
            assert_close(fast.loads[key], load)
        assert_close(fast.injected_bps, slow.injected_bps)
        assert_close(fast.flow_hop_bps, slow.flow_hop_bps)
        assert_close(fast.router_traversal_bps, slow.router_traversal_bps)

    def test_other_mesh_shape_is_refused(self):
        # Generated on 4x6, routed on 6x4: same node count, but the closed form does not apply.
        params = TrafficParams(injection_bps_per_node=1e9, locality_scale_hops=2.0)
        traffic = generate_traffic("exponential_locality", params,
                                   build_mesh(4, 6, 1e-3, "electronic"), seed=0)
        with pytest.raises(DomainError, match=r"generated on a \(4, 6\) mesh .* \(6, 4\) mesh"):
            link_activity(build_mesh(6, 4, 1e-3, "electronic"), traffic)

    def test_demands_reject_a_mesh_of_another_size(self):
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   build_mesh(3, 3, 1e-3, "electronic"), seed=0)
        with pytest.raises(DomainError, match="does not match"):
            traffic.demands(2, 5)

    def test_underflowing_locality_weights_are_a_domain_error(self):
        params = TrafficParams(injection_bps_per_node=1e9, locality_scale_hops=1e-3)
        with pytest.raises(DomainError, match="locality_scale_hops"):
            generate_traffic("exponential_locality", params,
                             build_mesh(3, 3, 1e-3, "electronic"), seed=0)

    def test_uniform_demands_are_rows_and_cols_times_q(self):
        mesh = build_mesh(3, 5, 1e-3, "electronic")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=7e9),
                                   mesh, seed=0)
        q = 7e9 / 14
        row, col, injected = traffic.demands(3, 5)
        assert row[2][1] == [3 * q, 2 * q, 3 * q, 3 * q, 3 * q]
        assert col[4][0] == [4 * q, 5 * q, 5 * q]
        assert injected == 15 * 14 * q


@st.composite
def mesh_shapes(draw):
    rows = draw(st.integers(1, 14))
    return rows, draw(st.integers(2 if rows == 1 else 1, 14))


LOCALITY_SCALES = [0.05, 0.3, 1.0, 2.0, 7.5, 1e3, math.inf]


def planes(demand):
    """The distinct plane objects of a row or column demand, by identity."""
    return len({id(plane) for plane in demand})


def vertical_loads(mesh, activity):
    return {(u, v): load for (u, v), load in activity.loads.items() if abs(v - u) == mesh.cols}


class TestSharedPlanes:
    """Generated traffic shares equal planes; the shared demands keep every bit."""

    @settings(max_examples=60, deadline=None)
    @given(mesh_shapes(), st.sampled_from(LOCALITY_SCALES))
    def test_locality_demands_are_the_unshared_ones_with_mirror_planes(self, shape, scale):
        rows, cols = shape
        params = TrafficParams(injection_bps_per_node=3e9, locality_scale_hops=scale)
        traffic = generate_traffic("exponential_locality", params,
                                   build_mesh(rows, cols, 1e-3, "electronic"), seed=0)
        demands = traffic.demands(rows, cols)
        assert repr(demands) == repr(reference_locality_demands(rows, cols, 3e9, scale))
        row, col, _ = demands
        assert all(row[r] is row[rows - 1 - r] for r in range(rows))
        assert all(col[c] is col[cols - 1 - c] for c in range(cols))

    @settings(max_examples=30, deadline=None)
    @given(mesh_shapes())
    def test_uniform_traffic_has_one_row_plane_and_one_column_plane(self, shape):
        rows, cols = shape
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   build_mesh(rows, cols, 1e-3, "electronic"), seed=0)
        row, col, _ = demands = traffic.demands(rows, cols)
        assert (planes(row), planes(col)) == (1, 1)
        assert repr(demands) == repr(reference_locality_demands(rows, cols, 1e9, math.inf))

    @settings(max_examples=60, deadline=None)
    @given(mesh_shapes(), st.data(), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_hotspot_demands_are_the_unshared_ones(self, shape, data, fraction):
        rows, cols = shape
        n = rows * cols
        hotspots = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                             unique=True)))
        params = TrafficParams(injection_bps_per_node=3e9, hotspot_fraction=fraction,
                               hotspot_nodes=tuple(hotspots))
        traffic = generate_traffic("hotspot", params,
                                   build_mesh(rows, cols, 1e-3, "electronic"), seed=0)
        row, col, _ = demands = traffic.demands(rows, cols)
        assert repr(demands) == repr(
            reference_hotspot_demands(rows, cols, hotspots, 3e9, fraction))
        # One plane per distinct pattern of hot flags along a row, or down a column.
        hot = [[r * cols + c in hotspots for c in range(cols)] for r in range(rows)]
        assert planes(row) == len(set(map(tuple, hot)))
        assert planes(col) == len(set(zip(*hot)))

    @settings(max_examples=40, deadline=None)
    @given(mesh_shapes().filter(lambda shape: shape[1] >= 3), st.data(),
           st.sampled_from([*TrafficPattern]), st.sampled_from(LOCALITY_SCALES))
    def test_express_layouts_share_the_plain_vertical_loads(self, shape, data, pattern, scale):
        rows, cols = shape
        mesh = build_mesh(rows, cols, 1e-3, "electronic")
        express = add_express_links(mesh, data.draw(st.integers(2, cols - 1)), "hybrid")
        params = TrafficParams(injection_bps_per_node=1e9, hotspot_nodes=(0, rows * cols - 1),
                               locality_scale_hops=scale)
        traffic = generate_traffic(pattern, params, mesh, seed=0)
        plain = vertical_loads(mesh, link_activity(mesh, traffic))
        assert vertical_loads(express, link_activity(express, traffic)) == plain
        want = vertical_loads(mesh, reference_link_activity(mesh, traffic))
        assert list(plain) == list(want)
        for key, load in want.items():
            assert_close(plain[key], load)


class TestRouteOncePerGeometry:
    def test_technology_variants_share_one_activity(self):
        base = build_mesh(4, 6, 1e-3, "electronic")
        photonic = build_mesh(4, 6, 1e-3, "photonic")
        express = add_express_links(base, 3, "hybrid")
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   base, seed=0)
        cases = {"e": base, "p": photonic, "x": express}
        activities = case_activities(cases, traffic)
        assert list(activities) == ["e", "p", "x"]
        assert activities["e"] is activities["p"]
        assert activities["x"] is not activities["e"]
        assert activities["x"].loads == link_activity(express, traffic).loads


class TestTwoLinkClasses:
    """Every factor of a mesh whose base and express links differ in every table.

    A 3 x 5 electronic mesh with a span-2 hybrid express layout has 22 base
    and 6 express links. A hybrid link's serdes sits on the electronic die and
    its modulator on the photonic die.
    """

    E, H = Technology.ELECTRONIC, Technology.HYBRID
    RATE = {E: 4e10, H: 1e11}  # the templates' link capacities: 32 x 1.25e9, min(2 x 5e10, 1e11)
    CLOCK_HZ = 5e10
    # Closed-form hop delays: a zero-RC wire whose driver has no delay takes no
    # time, and a 2 mm hybrid hop is its flight time at group index 4.
    DELAY = {E: 0.0, H: 4.0 * 2e-3 / LIGHT_SPEED_VACUUM}
    WAFER = {"electronic": 2e5, "photonic": 2.5e6}
    A_ROUTER, E_ROUTER = 1.5e-8, 6e-13
    A_DRIVER, A_MODULATOR, A_SERDES = 4e-10, 7e-10, 1.6e-9

    def _config(self):
        electronic = LinkSpec(
            name="electronic-noc-link", technology=self.E, length_m=1e-3,
            components=(LinkComponent(name="drv", role=ComponentRole.DRIVER,
                                      bandwidth_hz=1.25e9, energy_j_per_bit=1e-13,
                                      area_m2=self.A_DRIVER),),
            transport=ElectricalTransport(capacitance_f_per_m=0.0, resistance_ohm_per_m=0.0,
                                          voltage_swing_v=1.0, lanes=32),
            cross_section_width_m=0.0)
        hybrid = LinkSpec(
            name="hybrid-noc-link", technology=self.H, length_m=1e-3,
            components=(LinkComponent(name="mod", role=ComponentRole.MODULATOR,
                                      bandwidth_hz=5e10, energy_j_per_bit=3e-14,
                                      area_m2=self.A_MODULATOR),
                        LinkComponent(name="serdes", role=ComponentRole.SERDES,
                                      energy_j_per_bit=2e-14, area_m2=self.A_SERDES)),
            transport=OpticalTransport(loss_db_per_m=50.0, group_index=4.0,
                                       launch_power_w=1e-3, detector_sensitivity_w=1e-5,
                                       wdm_channels=1, per_channel_rate_cap_bps=1e11),
            cross_section_width_m=0.0)
        return NocConfig(
            flit_bits=32, router_pipeline_clks=3, clock_hz=self.CLOCK_HZ,
            router=RouterModel(dynamic_j_per_bit=self.E_ROUTER, area_m2=self.A_ROUTER),
            link_templates={self.E: electronic, self.H: hybrid},
            wafer_cost={die: ExperienceCurve(rate, math.inf, 0.0)
                        for die, rate in self.WAFER.items()})

    def test_factors_match_link_counts_and_the_walker(self):
        mesh = add_express_links(build_mesh(3, 5, 1e-3, "electronic"), 2, "hybrid")
        assert mesh.link_counts() == {(self.E, 1): 22, (self.H, 2): 6}
        config = self._config()
        params = TrafficParams(injection_bps_per_node=1e9, locality_scale_hops=2.0)
        traffic = generate_traffic("exponential_locality", params, mesh, seed=0)
        factors = network_clear(mesh, link_activity(mesh, traffic), config).factors

        assert_close(factors.capability, (22 * self.RATE[self.E] + 6 * self.RATE[self.H]) / 15)
        electronic_die = 15 * self.A_ROUTER + 22 * self.A_DRIVER + 6 * self.A_SERDES
        photonic_die = 6 * self.A_MODULATOR
        assert_close(factors.amount, electronic_die + photonic_die)
        assert_close(factors.resistance, electronic_die * self.WAFER["electronic"]
                     + photonic_die * self.WAFER["photonic"])

        # Per-link terms over the walker's loads; a hop spanning 2 ids is express.
        walked = reference_link_activity(mesh, traffic)
        energy = {tech: link_energy_per_bit(config.link_templates[tech].at_length(span * 1e-3))
                  for tech, span in ((self.E, 1), (self.H, 2))}
        by_link = [(load, self.H if abs(v - u) == 2 else self.E)
                   for (u, v), load in walked.loads.items()]
        assert {tech for _, tech in by_link} == {self.E, self.H}
        # Each hop costs its delay in whole clocks, and a hop without delay one clock.
        clks = {tech: max(1, math.ceil(delay * self.CLOCK_HZ))
                for tech, delay in self.DELAY.items()}
        assert clks == {self.E: 1, self.H: 2}  # 26.7 ps of flight at a 20 ps clock
        latency = 3 * walked.flow_hop_bps + sum(load * clks[tech] for load, tech in by_link)
        assert_close(factors.latency, latency / walked.injected_bps)
        dynamic = (self.E_ROUTER * walked.router_traversal_bps
                   + sum(load * energy[tech] for load, tech in by_link))
        assert_close(factors.energy, dynamic / walked.injected_bps)


@functools.cache
def shipped_noc():
    return load_network_config(example_path("networks/mesh16_comparison.json")).noc


def hop_clocks(noc, technology, span):
    """The clocks of one hop of ``span`` columns: a lone one-hop flow's latency less the pipeline.

    Span 1 is the base link of a 1 x 2 mesh. A longer span is the one express
    link of a 1 x (span + 1) electronic mesh, which the flow out of column 0 takes.
    """
    mesh = build_mesh(1, span + 1, 1e-3, technology if span == 1 else Technology.ELECTRONIC)
    if span > 1:
        mesh = add_express_links(mesh, span, technology)
    rates = [[0.0] * (span + 1) for _ in range(span + 1)]
    rates[0][span] = 1.0
    activity = link_activity(mesh, TrafficMatrix(rates=rates))
    assert activity.flow_hop_bps == 1.0
    return network_clear(mesh, activity, noc).factors.latency - noc.router_pipeline_clks


class TestHopClocks:
    """A hop costs its link's ``p2p_latency`` in whole periods of ``clock_hz``, at least one."""

    @settings(max_examples=60, deadline=None)
    @given(technology=st.sampled_from(list(Technology)),
           spans=st.lists(st.integers(1, 15), min_size=2, max_size=2, unique=True),
           clock_hz=st.floats(8.0, 13.0).map(lambda exponent: 10.0 ** exponent))
    def test_clocks_never_fall_as_the_span_grows(self, technology, spans, clock_hz):
        noc = shipped_noc()._replace(clock_hz=clock_hz)
        short, long = sorted(spans)
        clocks = [hop_clocks(noc, technology, span) for span in (short, long)]
        assert all(c >= 1 and c == int(c) for c in clocks)
        assert clocks[0] <= clocks[1]

    def test_span_15_electronic_express_hop_costs_15_clocks_at_10_ghz(self):
        # 1,415.75 ps of unrepeated 15 mm wire at a 100 ps clock, against 1 clock at 1 mm.
        noc = shipped_noc()
        assert noc.clock_hz == 1e10
        template = noc.link_templates[Technology.ELECTRONIC]
        assert p2p_latency(template.at_length(15e-3)) == pytest.approx(1.41575e-9, rel=1e-5)
        assert hop_clocks(noc, Technology.ELECTRONIC, 15) == 15
        assert hop_clocks(noc, Technology.ELECTRONIC, 1) == 1

    @pytest.mark.parametrize("clock_hz", [1.0, 1e10, 1e300])
    def test_a_link_without_delay_costs_one_clock(self, clock_hz):
        config = TestTwoLinkClasses()._config()._replace(clock_hz=clock_hz)
        assert p2p_latency(config.link_templates[Technology.ELECTRONIC]) == 0.0
        assert hop_clocks(config, Technology.ELECTRONIC, 1) == 1


class TestOneLinkNetworkIsItsLink:
    """A 1 x 2 mesh of one shipped template at 1 mm, whose router costs nothing,
    is the link level's link: one full-duplex link serves two nodes.

    Its cost is the one NoC cost rule, each die's area at its wafer rate: the
    serdes and drivers on the electronic die, the rest on the link's native die.
    """

    @pytest.mark.parametrize("technology, clocks", [
        (Technology.ELECTRONIC, 4), (Technology.HYBRID, 5),
        (Technology.PHOTONIC, 5), (Technology.PLASMONIC, 5)])
    def test_factors_reduce_to_the_link_level(self, technology, clocks):
        noc = shipped_noc()._replace(router=RouterModel(0.0, 0.0))
        spec = noc.link_templates[technology]
        assert spec.length_m == 1e-3
        mesh = build_mesh(1, 2, 1e-3, technology)
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   mesh, seed=0)
        factors = network_clear(mesh, link_activity(mesh, traffic), noc).factors

        assert factors.amount == link_area(spec)
        energy = link_energy_per_bit(spec)
        if technology is Technology.ELECTRONIC:  # 1.0250000000000002e-13 against 1.025e-13
            assert abs(factors.energy - energy) <= math.ulp(energy)
        else:
            assert factors.energy == energy
        assert 2 * factors.capability == link_capacity(spec)
        assert factors.latency == clocks == (
            noc.router_pipeline_clks + max(1, math.ceil(p2p_latency(spec) * noc.clock_hz)))

        rate = {die: curve.initial_unit_cost for die, curve in noc.wafer_cost.items()}
        electronic = link_area(spec) if technology is Technology.ELECTRONIC else math.fsum(
            c.area_m2 for c in spec.components
            if c.role in (ComponentRole.SERDES, ComponentRole.DRIVER))
        die_area = {"electronic": electronic, "photonic": link_area(spec) - electronic}
        assert factors.resistance == math.fsum(area * rate[die] for die, area in die_area.items())
        if technology is Technology.ELECTRONIC:  # 16.5e-9 m^2 at 2e5 USD/m^2
            assert factors.resistance == pytest.approx(0.0033, rel=1e-12)

    @pytest.mark.parametrize("technology", list(Technology))
    def test_routers_are_priced_on_the_electronic_die(self, technology):
        # Whatever the link, each of the two routers adds its area to the electronic die.
        router_area = 1.5e-8
        noc = shipped_noc()
        spec = noc.link_templates[technology]
        mesh = build_mesh(1, 2, 1e-3, technology)
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   mesh, seed=0)
        activity = link_activity(mesh, traffic)
        cost = {area: network_clear(mesh, activity, noc._replace(
                    router=RouterModel(0.0, area))).factors.resistance
                for area in (0.0, router_area)}
        rate = {die: curve.initial_unit_cost for die, curve in noc.wafer_cost.items()}
        electronic = link_area(spec) if technology is Technology.ELECTRONIC else math.fsum(
            c.area_m2 for c in spec.components
            if c.role in (ComponentRole.SERDES, ComponentRole.DRIVER))
        assert cost[router_area] == math.fsum([
            math.fsum([router_area * 2, electronic]) * rate["electronic"],
            (link_area(spec) - electronic) * rate["photonic"]])
        rise = math.fsum([router_area * 2 * rate["electronic"]])
        assert cost[router_area] - cost[0.0] == pytest.approx(rise, rel=1e-12, abs=0.0)


class TestShippedNetwork:
    def test_electronic_uniform_latency_is_128_over_3(self, network_config_path):
        config = load_network_config(network_config_path)
        mesh = config.cases["electronic"]
        assert (mesh.rows, mesh.cols, mesh.technology) == (16, 16, Technology.ELECTRONIC)
        traffic = generate_traffic(config.traffic_pattern, config.traffic_params, mesh, seed=1)
        latency = network_clear(mesh, link_activity(mesh, traffic), config.noc).factors.latency
        assert abs(latency - 128 / 3) <= 4 * math.ulp(128 / 3)

    def test_electronic_uniform_latency_is_128_over_3_within_1_ulp(self, network_config_path):
        # Closed-form demands and one fsum per load leave at most one rounding.
        config = load_network_config(network_config_path)
        mesh = config.cases["electronic"]
        traffic = generate_traffic(config.traffic_pattern, config.traffic_params, mesh, seed=1)
        latency = network_clear(mesh, link_activity(mesh, traffic), config.noc).factors.latency
        assert abs(latency - 128 / 3) <= math.ulp(128 / 3)

    def test_express_capacity_follows_its_length(self, network_config_path):
        # Shipped electronic wire is device-limited at 1 mm but RC-limited at 5 mm,
        # so an electronic express class of span 5 carries less than a base link.
        config = load_network_config(network_config_path)
        mesh = add_express_links(config.cases["electronic"], 5, Technology.ELECTRONIC)
        counts = mesh.link_counts()
        assert counts == {(Technology.ELECTRONIC, 1): 480, (Technology.ELECTRONIC, 5): 48}
        template = config.noc.link_templates[Technology.ELECTRONIC]
        base, express = link_capacity(template), link_capacity(template.at_length(5e-3))
        rc = 1e5 * 1.65e-10
        assert base == 5e10
        assert_close(express, 32 / (2 * math.pi * 0.35 * rc * 5e-3 ** 2))  # about 3.5276e10

        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   mesh, seed=1)
        activity = link_activity(mesh, traffic)
        factors = network_clear(mesh, activity, config.noc).factors
        assert_close(factors.capability, (480 * base + 48 * express) / 256)
        utilization = activity.utilization(mesh, config.noc)
        assert {abs(v - u) for u, v in activity.loads} == {1, 5, 16}
        for (u, v), load in activity.loads.items():
            assert utilization[(u, v)] == load / (express if abs(v - u) == 5 else base)

    def test_an_activity_routed_on_another_geometry_is_refused(self, network_config_path):
        # Priced on the plain mesh, the express case's loads would read 32.94 clks, not 34.16.
        config = load_network_config(network_config_path)
        plain, express = config.cases["electronic"], config.cases["electronic+hyppi-express"]
        traffic = generate_traffic(config.traffic_pattern, config.traffic_params, plain, seed=1)
        routed = link_activity(express, traffic)
        assert routed.geometry == express.geometry == (16, 16, 3)
        latency = network_clear(express, routed, config.noc).factors.latency
        assert latency == pytest.approx(34.16, abs=5e-3)
        refusal = r"routed on \(rows, cols, express_span\) \(16, 16, 3\) cannot be priced on " \
                  r"\(16, 16, None\)"
        with pytest.raises(DomainError, match=refusal):
            network_clear(plain, routed, config.noc)
        with pytest.raises(DomainError, match=refusal):
            routed.utilization(plain, config.noc)

    def test_flit_sweep_needs_one_activity_per_case(self, network_config_path):
        config = load_network_config(network_config_path)
        base = build_mesh(4, 4, 1e-3, Technology.ELECTRONIC)
        traffic = generate_traffic("uniform", TrafficParams(injection_bps_per_node=1e9),
                                   base, seed=0)
        cases = {"electronic": base, "hyppi": build_mesh(4, 4, 1e-3, Technology.HYBRID)}
        activities = case_activities(cases, traffic)
        for missing in cases:
            partial = {label: a for label, a in activities.items() if label != missing}
            with pytest.raises(DomainError, match="one link activity per case"):
                flit_sweep(cases, partial, config.noc, [32])
        with pytest.raises(DomainError, match="one link activity per case"):
            flit_sweep(cases, {**activities, "other": activities["hyppi"]}, config.noc, [32])


class TestFindCrossoverNumpy:
    def test_numpy_inputs_do_not_raise(self):
        flits = np.array([32, 64, 128, 256])
        series = np.array([10.0, 9.0, 7.0, 1.0])
        baseline = np.array([8.0, 8.0, 8.0, 8.0])
        assert find_crossover(flits, series, baseline) == 128
        assert find_crossover(flits, series + 10.0, baseline) is None


class TestVectorisedLocality:
    @pytest.mark.parametrize("rows,cols", [(1, 5), (6, 1), (3, 3), (4, 7), (8, 8)])
    @pytest.mark.parametrize("scale", [0.5, 2.0, 4.0, 1e3])
    def test_matches_per_source_loop(self, rows, cols, scale):
        mesh = build_mesh(rows, cols, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e9, locality_scale_hops=scale)
        got = generate_traffic("exponential_locality", params, mesh, seed=0).rates
        want = reference_locality_rates(mesh, 1e9, scale)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestVectorisedHotspot:
    @pytest.mark.parametrize("fraction", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("rows,cols,hotspots", [
        (1, 2, (0,)), (1, 3, (0, 1, 2)), (3, 3, (4,)), (4, 5, (0, 7, 19)),
        (6, 6, (35, 3))])
    def test_explicit_hotspots_match_per_source_loop(self, rows, cols, hotspots, fraction):
        mesh = build_mesh(rows, cols, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=3e9, hotspot_fraction=fraction,
                               hotspot_nodes=hotspots)
        got = generate_traffic("hotspot", params, mesh, seed=0).rates
        want = reference_hotspot_rates(mesh.node_count, sorted(set(hotspots)), 3e9, fraction)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fraction", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("count,seed", [(1, 3), (3, 11), (15, 2), (16, 5)])
    def test_seeded_hotspots_match_per_source_loop(self, count, seed, fraction):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        n = mesh.node_count
        params = TrafficParams(injection_bps_per_node=1e9, hotspot_fraction=fraction,
                               hotspot_count=count)
        got = generate_traffic("hotspot", params, mesh, seed=seed).rates
        want = reference_hotspot_rates(n, reference_seeded_pick(seed, n, count), 1e9, fraction)
        assert np.array_equal(got, want)

    def test_a_count_of_n_picks_every_node(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e9, hotspot_fraction=0.7,
                               hotspot_count=16)
        got = generate_traffic("hotspot", params, mesh, seed=9).rates
        assert np.array_equal(got, reference_hotspot_rates(16, list(range(16)), 1e9, 0.7))

    def test_seeds_do_not_all_pick_the_same_nodes(self):
        mesh = build_mesh(4, 4, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e9, hotspot_fraction=1.0,
                               hotspot_count=3)
        # With the whole fraction on the hotspots, only they receive traffic.
        picks = {tuple(np.flatnonzero(generate_traffic("hotspot", params, mesh, seed=seed)
                                      .rates.sum(axis=0)).tolist())
                 for seed in range(21)}
        assert all(len(pick) == 3 for pick in picks)
        assert len(picks) > 1

    def test_hot_source_spreads_over_the_other_hotspots(self):
        mesh = build_mesh(3, 3, 1e-3, "electronic")
        params = TrafficParams(injection_bps_per_node=1e9, hotspot_fraction=0.7,
                               hotspot_nodes=(2, 6))
        rates = generate_traffic("hotspot", params, mesh, seed=0).rates
        assert rates[2, 6] == 1e9 * 0.7
        assert rates[2, 2] == 0.0
        assert rates[2, 0] == 1e9 * (1.0 - 0.7) / 7

