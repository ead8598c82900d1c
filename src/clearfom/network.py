"""Analytical mesh-NoC evaluation: routing, activity, latency, energy, cost.

The evaluation is rate-based, not cycle-accurate: flows are offered loads in
bit/s, each flow's full rate is charged to every directed link on its route,
and latency is the traffic-weighted mean of per-hop clock costs. Queueing
and contention are out of scope.

Routing is X-first dimension order. A mesh has at most one express layout,
Dally's express cube along rows: horizontal links of ``hop_span`` columns
start at every ``hop_span``-th column of each row. An express link is taken
greedily whenever its far end does not overshoot the destination column;
this rule is the normative one for all shipped results. Links are derived
from the mesh shape and the layout, never stored: a hop is express exactly
when it spans ``express_span`` node ids (base hops span 1 or ``cols``, and
``2 <= express_span < cols``), and links are counted in closed form per
(technology, hop_span) class. :func:`link_activity` is the one public path
to the routing rule: route a one-flow :class:`TrafficMatrix` to see a single
path, and :func:`network_clear` the one path to a case's five factors,
computed in one pass over its link classes.

Link loads are aggregated, not walked flow by flow. A flow's X phase stays
in its source row and its Y phase in its destination column, so the loads
follow from per-row (c1 -> c2) and per-column (r1 -> r2) demand planes:
every row has the same layout, so the column pairs are routed once for all
rows, each horizontal load is the fsum of its pairs' demands, and vertical
loads are running sums of the column demands. Generated traffic supplies
the planes in closed form, one object for rows or columns whose planes are
equal by construction; it is routed only on the mesh shape it was generated
on, each distinct plane once, and its vertical loads, which no express link
changes, once per shape. An explicit matrix is summed in pure Python. numpy is
imported only to build the dense ``rates`` of generated traffic, on first
access. Routing reads only the mesh shape and the express span, so
:func:`case_activities` routes each distinct geometry once and cases that
differ only in link technology share the result. Totals over links use
:func:`math.fsum`, so they do not depend on the order in which links are
visited.

Physical links are undirected full-duplex channels: activity and utilization
are tracked per direction, while area, cost, and the aggregate-capacity
numerator count each channel pair once.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property, partial
from itertools import accumulate, chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .economics import ExperienceCurve, unit_cost
from .errors import Checked, ConfigurationError, DomainError
from .link import (
    ComponentRole,
    LinkSpec,
    link_area,
    link_capacity,
    link_energy_per_bit,
    p2p_latency,
)
from .metric import Axes, ClearValue, Level, Technology, clear_value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MeshLink",
    "MeshTopology",
    "RouterModel",
    "NocConfig",
    "TrafficPattern",
    "TrafficParams",
    "TrafficMatrix",
    "LinkActivity",
    "build_mesh",
    "add_express_links",
    "generate_traffic",
    "link_activity",
    "case_activities",
    "network_clear",
    "flit_sweep",
    "find_crossover",
]

ELECTRONIC_DIE = "electronic"
PHOTONIC_DIE = "photonic"
# Electronic circuitry: sized by the flit width, on the electronic die whatever the link.
_ELECTRONIC_ROLES = (ComponentRole.SERDES, ComponentRole.DRIVER)
_LOAD_OVERFLOW = ("traffic load totals overflow the floating-point range: "
                  "lower injection_bps_per_node")


class MeshLink(NamedTuple):
    """Undirected physical link between two node ids (a < b)."""

    a: int
    b: int


class _MeshTopologyFields(NamedTuple):
    rows: int
    cols: int
    spacing_m: float
    technology: Technology
    express_span: int | None = None
    express_technology: Technology | None = None


class MeshTopology(Checked, _MeshTopologyFields):
    """A ``rows`` x ``cols`` mesh of ``technology`` links with at most one express layout.

    The layout is Dally's express cube along rows: in every row, links of
    ``express_technology`` span ``express_span`` columns from columns 0, span,
    2 span, ... as far as the row reaches. Links are derived, never stored.
    """

    def _check(self):
        if self.rows < 1 or self.cols < 1:
            raise DomainError("mesh dimensions must be at least 1x1")
        if self.spacing_m <= 0:
            raise DomainError("spacing_m must be strictly positive")
        if self.express_span is not None or self.express_technology is not None:
            if self.express_technology is None or not 2 <= (self.express_span or 0) < self.cols:
                raise DomainError(
                    "an express layout needs a technology and 2 <= span < cols, got span "
                    f"{self.express_span} on {self.cols} cols")
        return {"technology": Technology(self.technology), "express_technology":
                None if self.express_technology is None else Technology(self.express_technology)}

    @property
    def node_count(self) -> int:
        return self.rows * self.cols

    @property
    def geometry(self) -> tuple[int, int, int | None]:
        """All that routing reads: the mesh shape and the express span, not link technology."""
        return self.rows, self.cols, self.express_span

    @cached_property
    def express_columns(self) -> range:
        """Columns at which an express link starts, the same in every row."""
        span = self.express_span
        return range(0, self.cols - span, span) if span else range(0)

    @cached_property
    def express_links(self) -> tuple[MeshLink, ...]:
        """Express links row by row, left to right."""
        span = self.express_span
        return tuple(MeshLink(row * self.cols + col, row * self.cols + col + span)
                     for row in range(self.rows) for col in self.express_columns)

    def link_counts(self) -> dict[tuple[Technology, int], int]:
        """Physical links per (technology, hop_span) class that has any."""
        counts = {(self.technology, 1): self.rows * (self.cols - 1) + self.cols * (self.rows - 1),
                  (self.express_technology, self.express_span):
                      self.rows * len(self.express_columns)}
        return {key: count for key, count in counts.items() if count}


def build_mesh(rows: int, cols: int, spacing_m: float,
               technology: Technology | str) -> MeshTopology:
    """Grid of neighbor links only, all tagged with one technology."""
    return MeshTopology(rows=rows, cols=cols, spacing_m=spacing_m, technology=technology)


def add_express_links(topology: MeshTopology, hop_span: int,
                      technology: Technology | str) -> MeshTopology:
    """Lay express links of ``hop_span`` columns every ``hop_span`` columns in each row.

    A mesh has one layout at most, and its rows must be long enough for one
    link: ``2 <= hop_span < cols``.
    """
    if topology.express_span is not None:
        raise DomainError("the mesh already has an express layout")
    return topology._replace(express_span=hop_span, express_technology=technology)


def _x_hops(topology: MeshTopology, c1: int, c2: int):
    """Yield the (from, to) columns of the X phase from column ``c1`` to ``c2``.

    Express links start at the columns divisible by the span, short of the
    last column the layout reaches; one is taken whenever its far end does
    not overshoot ``c2``.
    """
    span = topology.express_span or 1  # without a layout, reach is 0: no hop is express
    reach = len(topology.express_columns) * span
    col = c1
    while col != c2:
        if c2 > col:
            step = span if col % span == 0 and col + span <= min(c2, reach) else 1
        else:
            step = -span if col % span == 0 and c2 <= col - span and col <= reach else -1
        yield col, col + step
        col += step


class TrafficPattern(str, Enum):
    UNIFORM = "uniform"
    HOTSPOT = "hotspot"
    EXPONENTIAL_LOCALITY = "exponential_locality"


class _TrafficParamsFields(NamedTuple):
    injection_bps_per_node: float
    hotspot_fraction: float = 0.5
    hotspot_nodes: tuple[int, ...] | None = None
    hotspot_count: int = 1
    locality_scale_hops: float = 4.0


class TrafficParams(Checked, _TrafficParamsFields):
    """Knobs for the synthetic generators: hotspot traffic reads the ``hotspot_*`` ones
    (``hotspot_nodes``, or else a seeded pick of ``hotspot_count`` nodes), exponential
    locality ``locality_scale_hops``, and uniform traffic none. A network config may
    set only the knobs of its pattern; the others keep their defaults here."""

    def _check(self):
        if not 0 <= self.injection_bps_per_node < math.inf:
            raise DomainError("injection rate must be finite and non-negative")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise DomainError("hotspot_fraction must lie in [0, 1]")
        if self.hotspot_count < 1:
            raise DomainError("hotspot_count must be at least 1")
        if self.locality_scale_hops <= 0:
            raise DomainError("locality_scale_hops must be strictly positive")


# Row demands [r][c1][c2], column demands [c][r1][r2], injected total.
Demands = tuple[list[list[list[float]]], list[list[list[float]]], float]


class TrafficMatrix:
    """Offered load in bit/s per ordered (source, destination) pair.

    ``TrafficMatrix(rates=...)`` takes an explicit n x n matrix, given as any
    nested sequence of numbers (a numpy array included). Its ``rates`` are
    the validated copy that routing sums, a tuple of tuples of floats, so a
    later edit to the caller's matrix changes neither. A matrix from
    :func:`generate_traffic` instead carries the closed form of its
    :meth:`demands` on the mesh shape it was generated on, and builds its
    dense ``rates``, a numpy array, only when that is first read, so routing
    generated traffic allocates no n x n matrix.
    """

    def __init__(self, rates: Sequence[Sequence[float]]):
        try:
            matrix = tuple(tuple(float(rate) for rate in row) for row in rates)
        except TypeError:
            raise DomainError("traffic matrix must be square") from None
        if any(len(row) != len(matrix) for row in matrix):
            raise DomainError("traffic matrix must be square")
        if not all(0.0 <= rate < math.inf for row in matrix for rate in row):
            raise DomainError("traffic rates must be finite and non-negative")
        if any(row[src] != 0.0 for src, row in enumerate(matrix)):
            raise DomainError("self-traffic is not allowed")
        self.rates = matrix
        self._node_count = len(matrix)
        self._closed_form: tuple[tuple[int, int], Callable[[], Demands]] | None = None
        self._demands: dict[tuple[int, int], Demands] = {}
        self._vertical: dict[tuple[int, int], dict[int, float]] = {}

    @classmethod
    def _generated(cls, topology: MeshTopology, demands: Callable[[], Demands],
                   materialise: Callable[[], np.ndarray]) -> TrafficMatrix:
        traffic = cls.__new__(cls)
        traffic._node_count = topology.node_count
        traffic._closed_form = ((topology.rows, topology.cols), demands)
        traffic._materialise = materialise
        traffic._demands, traffic._vertical = {}, {}
        return traffic

    @cached_property
    def rates(self) -> Sequence[Sequence[float]]:
        return self._materialise()

    def demands(self, rows: int, cols: int) -> Demands:
        """Demand sums of this traffic laid out on a ``rows`` x ``cols`` mesh.

        Returns ``row[r][c1][c2]``, the sum over r2 of the rate from (r, c1)
        to (r2, c2); ``col[c][r1][r2]``, the sum over c1 of the rate from
        (r1, c1) to (r2, c); and the injected total, all as Python floats.
        Generated traffic answers from its closed form, only on the mesh shape
        it was generated on; an explicit matrix is summed from its ``rates``.
        The result is cached, and equal planes may be one list: do not modify it.
        """
        if rows * cols != self._node_count:
            raise DomainError("traffic matrix size does not match the topology")
        shape = (rows, cols)
        if shape not in self._demands:
            if self._closed_form is None:
                self._demands[shape] = _matrix_demands(self.rates, rows, cols)
            elif self._closed_form[0] == shape:
                self._demands[shape] = self._closed_form[1]()
            else:
                raise DomainError(f"traffic generated on a {self._closed_form[0]} mesh "
                                  f"cannot be routed on a {shape} mesh")
        return self._demands[shape]

    def _vertical_loads(self, rows: int, cols: int) -> dict[int, float]:
        """Vertical link loads by ``from * n + to``, cached: no express link is vertical."""
        if (rows, cols) not in self._vertical:
            col_demand, n = self.demands(rows, cols)[1], rows * cols
            routed = _shared(map(id, col_demand), lambda c: _column_loads(col_demand[c], cols))
            # Column c's keys are c * (n + 1) more than column 0's: both ends move by c.
            self._vertical[(rows, cols)] = {key + col * (n + 1): load for col, loads
                                            in enumerate(routed) for key, load in loads}
        return self._vertical[(rows, cols)]


def _column_loads(demand: list[list[float]], cols: int) -> list[tuple[int, float]]:
    """One column plane's vertical loads, keyed as if it were column 0.

    The link down from row r carries every r1 <= r < r2 pair, the link up to r
    every r2 <= r < r1: running sums along each source row r1 give its share.
    """
    rows, n = len(demand), len(demand) * cols
    upto = [list(accumulate(line)) for line in demand]            # r2 <= r
    beyond = [list(accumulate(line[::-1]))[::-1] for line in demand]  # r2 >= r
    loads = []
    for row, upper in enumerate(range(0, n - cols, cols)):  # upper is node (row, 0)
        down = math.fsum([beyond[r1][row + 1] for r1 in range(row + 1)])
        up = math.fsum([upto[r1][row] for r1 in range(row + 1, rows)])
        loads += [(upper * n + upper + cols, down), ((upper + cols) * n + upper, up)]
    return [(key, load) for key, load in loads if load > 0]


def _matrix_demands(matrix: Sequence[Sequence[float]], rows: int, cols: int) -> Demands:
    """:meth:`TrafficMatrix.demands` of an n x n matrix; each demand is one fsum."""
    row_demand = [[[math.fsum(source[c2::cols]) for c2 in range(cols)]
                   for source in matrix[r * cols:(r + 1) * cols]] for r in range(rows)]
    # by_row[r1][dst]: the sum over c1 of the rate from (r1, c1) to dst.
    by_row = [[math.fsum(sources) for sources in zip(*matrix[r * cols:(r + 1) * cols])]
              for r in range(rows)]
    col_demand = [[line[c::cols] for line in by_row] for c in range(cols)]
    return row_demand, col_demand, math.fsum(chain.from_iterable(matrix))


def generate_traffic(pattern: TrafficPattern | str, params: TrafficParams,
                     topology: MeshTopology, seed: int | None) -> TrafficMatrix:
    """Synthetic offered-load matrix; identical seeds give identical matrices.

    Uniform traffic is exponential locality at an infinite scale: every
    weight is exp(-d / inf) = 1. A seeded hotspot pick (no ``hotspot_nodes``)
    takes the ``hotspot_count`` nodes with the smallest SHA-256 of
    ``f"{seed}:{node}"``; it is the only reader of ``seed``, and refuses
    ``None``. The dense ``rates`` of the result are built on first access.
    """
    pattern = TrafficPattern(pattern)
    n = topology.node_count
    if n < 2:
        raise DomainError("traffic generation needs at least two nodes")
    inj = params.injection_bps_per_node
    rows, cols = topology.rows, topology.cols

    if pattern is TrafficPattern.HOTSPOT:
        if params.hotspot_nodes is not None:
            hotspots = sorted(set(params.hotspot_nodes))
            if not all(0 <= h < n for h in hotspots):
                raise DomainError("hotspot node id out of range")
            if not hotspots:
                raise DomainError("hotspot_nodes must not be empty")
            if len(hotspots) < len(params.hotspot_nodes):
                repeated = next(h for h in hotspots if params.hotspot_nodes.count(h) > 1)
                raise DomainError(f"hotspot node {repeated} is listed more than once")
        elif params.hotspot_count > n:
            raise DomainError(f"hotspot_count {params.hotspot_count} exceeds the "
                              f"{n} nodes of the mesh")
        elif seed is None:
            raise DomainError("hotspot traffic without hotspot_nodes picks its hotspots "
                              "by seed: pass --seed")
        else:
            import hashlib  # only a seeded pick pays for the import

            ranked = sorted(range(n), key=lambda node: hashlib.sha256(
                f"{seed}:{node}".encode()).digest())
            hotspots = sorted(ranked[:params.hotspot_count])
        demands = partial(_hotspot_demands, rows, cols, hotspots, inj,
                          params.hotspot_fraction)
        materialise = partial(_hotspot_rates, n, hotspots, inj, params.hotspot_fraction)
    else:
        scale = (math.inf if pattern is TrafficPattern.UNIFORM
                 else params.locality_scale_hops)
        row_weight, col_weight = _locality_weights(rows, scale), _locality_weights(cols, scale)
        row_off, col_off = _off_diagonal_sums(row_weight), _off_diagonal_sums(col_weight)
        # A source's weights to every other node sum to (1 + a)(1 + b) - 1 for
        # its row and column off-diagonal sums a and b; a + b + a*b is the
        # same normaliser without the cancellation of the -1.
        norms = [[a + b + a * b for b in col_off] for a in row_off]
        smallest = min(min(line) for line in norms)
        if smallest <= 0 or not math.isfinite(inj / smallest):
            raise DomainError(
                f"locality_scale_hops={scale:g} is too small: the locality weights "
                "fall outside the floating-point range")
        per_source = [[inj / norm for norm in line] for line in norms]
        demands = partial(_locality_demands, row_weight, col_weight, row_off, col_off, per_source)
        materialise = partial(_locality_rates, rows, cols, inj, scale)
    return TrafficMatrix._generated(topology, demands, materialise)


def _hotspot_demands(rows: int, cols: int, hotspots: Sequence[int], inj: float,
                     fraction: float) -> Demands:
    n, h = rows * cols, len(hotspots)
    # A source's share per hot and per other destination, indexed by whether
    # the source is itself hot: its own class has one destination fewer. A
    # class with no destinations gets nothing, and the source injects less.
    to_hot = [inj * fraction / t if t else 0.0 for t in (h, h - 1)]
    to_other = [inj * (1.0 - fraction) / t if t else 0.0 for t in (n - h - 1, n - h)]
    is_hot = [[0] * cols for _ in range(rows)]
    for node in hotspots:
        is_hot[node // cols][node % cols] = 1
    hot_in_col = [sum(column) for column in zip(*is_hot)]
    hot_in_row = [sum(line) for line in is_hot]

    def row_plane(r: int) -> list[list[float]]:
        plane = []
        for c1, own in enumerate(is_hot[r]):
            hot, other = to_hot[own], to_other[own]
            line = [hot * k + other * (rows - k) for k in hot_in_col]
            k = hot_in_col[c1] - own  # the source leaves its own column
            line[c1] = hot * k + other * (rows - 1 - k)
            plane.append(line)
        return plane

    def row_sum(shares: list[float], hot: int, cold: int) -> float:
        return shares[1] * hot + shares[0] * cold

    # What all of row r1 sends to one other and to one hot destination.
    toward = [(row_sum(to_other, hot, cols - hot), row_sum(to_hot, hot, cols - hot))
              for hot in hot_in_row]

    def col_plane(c: int) -> list[list[float]]:
        plane = []
        for r1, hot in enumerate(hot_in_row):
            line = [toward[r1][is_hot[r2][c]] for r2 in range(rows)]
            own = is_hot[r1][c]  # (r1, c) does not send to itself
            line[r1] = row_sum(to_hot if own else to_other, hot - own, cols - hot - 1 + own)
            plane.append(line)
        return plane

    row_demand = _shared(map(tuple, is_hot), row_plane)  # keyed by the hot flags they read
    col_demand = _shared(zip(*is_hot), col_plane)
    return row_demand, col_demand, _injected(row_demand)


def _shared(keys: Iterable[Hashable], make: Callable[[int], list]) -> list[list]:
    """``make(i)`` at the first index i of each distinct key, shared by all indices with it."""
    made: dict[Hashable, list] = {}
    return [made[key] if key in made else made.setdefault(key, make(i))
            for i, key in enumerate(keys)]


def _locality_weights(size: int, scale: float) -> list[list[float]]:
    return [[math.exp(-abs(a - b) / scale) for b in range(size)] for a in range(size)]


def _off_diagonal_sums(weights: list[list[float]]) -> list[float]:
    return [math.fsum(w for b, w in enumerate(line) if b != a)
            for a, line in enumerate(weights)]


def _locality_demands(row_weight: list[list[float]], col_weight: list[list[float]],
                      row_off: list[float], col_off: list[float],
                      per_source: list[list[float]]) -> Demands:
    """Demands of rate((r1, c1), (r2, c2)) = u[r1][c1] * R[r1][r2] * C[c1][c2].

    u[r][c] follows from row_off[r] and col_off[c], and an fsum from the multiset
    of its terms, so row r's plane is keyed by row_off[r], and column c's by the
    multiset of (col_off[c1], C[c1][c]) and the pair it drops, (col_off[c], 1.0).
    """
    def row_plane(r: int) -> list[list[float]]:
        plane = []
        row_total = 1.0 + row_off[r]
        for c1, u in enumerate(per_source[r]):
            line = [u * w * row_total for w in col_weight[c1]]
            line[c1] = u * row_off[r]  # the source leaves its own column
            plane.append(line)
        return plane

    def col_plane(c: int) -> list[list[float]]:
        plane = []
        for r1, scales in enumerate(per_source):
            terms = [u * weights[c] for u, weights in zip(scales, col_weight)]
            total = math.fsum(terms)
            line = [w * total for w in row_weight[r1]]
            line[r1] = math.fsum(terms[:c] + terms[c + 1:])  # without (r1, c) itself
            plane.append(line)
        return plane

    row_demand = _shared(row_off, row_plane)
    col_demand = _shared(((off, tuple(sorted(zip(col_off, (w[c] for w in col_weight)))))
                          for c, off in enumerate(col_off)), col_plane)
    return row_demand, col_demand, _injected(row_demand)


def _injected(row_demand: list[list[list[float]]]) -> float:
    return math.fsum(chain.from_iterable(chain.from_iterable(row_demand)))


def _hotspot_rates(n: int, hotspots: Sequence[int], inj: float,
                   fraction: float) -> np.ndarray:
    import numpy as np

    rates = np.zeros((n, n))
    is_hot = np.zeros(n, dtype=bool)
    is_hot[hotspots] = True
    # Destinations of each class per source, the source itself excluded.
    hot_targets = len(hotspots) - is_hot
    others = n - len(hotspots) - 1 + is_hot
    # A source with no valid targets in a class simply injects less.
    hot_share = np.divide(inj * fraction, hot_targets,
                          out=np.zeros(n), where=hot_targets > 0)
    other_share = np.divide(inj * (1.0 - fraction), others,
                            out=np.zeros(n), where=others > 0)
    np.copyto(rates, hot_share[:, None], where=is_hot)
    np.copyto(rates, other_share[:, None], where=~is_hot)
    np.fill_diagonal(rates, 0.0)
    return rates


def _locality_rates(rows: int, cols: int, inj: float, scale: float) -> np.ndarray:
    import numpy as np

    # exp(-(|dr| + |dc|) / s) separates into a row factor times a column
    # factor; their broadcast product is written straight into ``rates``.
    rates = np.zeros((rows * cols, rows * cols))
    row_weight = np.exp(-np.abs(np.subtract.outer(np.arange(rows), np.arange(rows))) / scale)
    col_weight = np.exp(-np.abs(np.subtract.outer(np.arange(cols), np.arange(cols))) / scale)
    np.multiply(row_weight[:, None, :, None], col_weight[None, :, None, :],
                out=rates.reshape(rows, cols, rows, cols))
    np.fill_diagonal(rates, 0.0)
    totals = rates.sum(axis=1, keepdims=True)
    rates *= inj
    rates /= totals
    return rates


class _LinkActivityFields(NamedTuple):
    geometry: tuple[int, int, int | None]  # the MeshTopology.geometry it was routed on
    loads: Mapping[tuple[int, int], float]
    injected_bps: float
    flow_hop_bps: float        # sum over flows of rate * hop count
    router_traversal_bps: float  # sum over flows of rate * (hops + 1)


class LinkActivity(_LinkActivityFields):
    """Carried load per directed link plus flow aggregates for accounting."""

    @cached_property
    def loads_by_node_span(self) -> dict[int, list[float]]:
        """Loads by their hop's node-id span: 1 along a row, cols down a column, else express."""
        split: dict[int, list[float]] = {}
        for (u, v), load in self.loads.items():
            split.setdefault(abs(v - u), []).append(load)
        return split

    def utilization(self, topology: MeshTopology,
                    config: NocConfig) -> dict[tuple[int, int], float]:
        """Each load over the ``link_capacity`` of its link's class."""
        by_class = {hop_span: link_capacity(spec)
                    for _, hop_span, _, spec in _link_classes(topology, self, config)}
        capacity = {span: by_class[_hop_span(topology, span)] for span in self.loads_by_node_span}
        return {(u, v): load / capacity[abs(v - u)] for (u, v), load in self.loads.items()}


def link_activity(topology: MeshTopology, traffic: TrafficMatrix) -> LinkActivity:
    """Charge each flow's full rate to every directed link on its route.

    Loads come from the aggregated :meth:`TrafficMatrix.demands` rather than
    a per-flow walk: row r carries the X phase of every flow leaving it, and
    column c the Y phase of every flow entering it. Only links that carry
    load appear in ``loads``, in (from, to) order, as Python floats. Load
    totals past the float range raise :class:`DomainError`.
    """
    rows, cols, n = topology.rows, topology.cols, topology.node_count
    try:
        row_demand, _, injected = traffic.demands(rows, cols)
    except OverflowError:  # an fsum's partial sums passed the float range
        raise DomainError(_LOAD_OVERFLOW) from None
    loads_by_key = dict(traffic._vertical_loads(rows, cols))  # a copy: the cache is shared

    # Every row has the same express layout, so the (c1, c2) column pairs are
    # routed once for all rows: each directed hop, as a (from, to) column pair,
    # maps to the indices c1 * cols + c2 of the pairs whose routes take it.
    pairs_by_hop: dict[tuple[int, int], list[int]] = {}
    for c1 in range(cols):
        for c2 in range(cols):
            for hop in _x_hops(topology, c1, c2):
                pairs_by_hop.setdefault(hop, []).append(c1 * cols + c2)
    # A horizontal hop's load is the fsum of the demands of the column pairs
    # routed over it, so each load is rounded once. Each getter also reads a
    # trailing 0.0, so it returns a tuple even for a hop that carries one pair.
    zero = cols * cols
    getters = [(cu * n + cv, itemgetter(*pairs, zero)) for (cu, cv), pairs in pairs_by_hop.items()]

    def route(row: int) -> list[tuple[int, float]]:
        demand = [value for line in row_demand[row] for value in line]
        demand.append(0.0)
        return [(key, load) for key, gather in getters if (load := math.fsum(gather(demand))) > 0]

    # Each distinct plane is routed once, keyed as if it were row 0. Row r's keys
    # are r * cols * (n + 1) more: both ends of its links are r * cols ids on.
    for row, routed in enumerate(_shared(map(id, row_demand), route)):
        loads_by_key.update((key + row * cols * (n + 1), load) for key, load in routed)

    loads = {divmod(key, n): loads_by_key[key] for key in sorted(loads_by_key)}
    flow_hops = _load_total(loads.values())
    # No load exceeds the injected total, so these two totals bound every sum.
    traversals = _load_total([flow_hops, injected])
    return LinkActivity(geometry=topology.geometry, loads=loads, injected_bps=injected,
                        flow_hop_bps=flow_hops, router_traversal_bps=traversals)


def case_activities(cases: Mapping[str, MeshTopology],
                    traffic: TrafficMatrix) -> dict[str, LinkActivity]:
    """Each case's :class:`LinkActivity` under ``traffic``, by label, routing each geometry once.

    Routing reads only a case's :attr:`MeshTopology.geometry`, not its link
    technology, so cases that share a geometry share one routing pass.
    """
    by_geometry = {topology.geometry: topology for topology in cases.values()}
    routed = {geometry: link_activity(topology, traffic)
              for geometry, topology in by_geometry.items()}
    return {label: routed[topology.geometry] for label, topology in cases.items()}


class _RouterModelFields(NamedTuple):
    dynamic_j_per_bit: float
    area_m2: float  # on the electronic die


class RouterModel(Checked, _RouterModelFields):
    def _check(self):
        if self.dynamic_j_per_bit < 0 or self.area_m2 < 0:
            raise DomainError("router energy and area must be non-negative")


class _NocConfigFields(NamedTuple):
    flit_bits: int
    router_pipeline_clks: int
    clock_hz: float  # a hop costs its link's p2p_latency in whole periods of this clock
    router: RouterModel
    link_templates: Mapping[Technology, LinkSpec]  # "<tech>-noc-link" at the mesh spacing
    wafer_cost: Mapping[str, ExperienceCurve]  # USD per m^2 of each die


class NocConfig(Checked, _NocConfigFields):
    """DSENT-replacement parameters for one NoC evaluation, with one clock for link delays.

    An electrical link is ``flit_bits`` lanes wide; the constructor sets the
    lanes of every electrical template. A new flit size (:func:`flit_sweep`)
    keeps each link's ``link_capacity``, clocking a lane at capacity / lanes;
    router energy per bit and area scale linearly with flit width, as does the
    area of serdes/driver components (not their energy or delay).
    """

    def _check(self):
        if self.flit_bits < 1:
            raise DomainError("flit_bits must be at least 1")
        if self.router_pipeline_clks < 1:
            raise DomainError("router pipeline must be at least 1 clock")
        if not 0 < self.clock_hz < math.inf:
            raise DomainError("clock_hz must be finite and strictly positive")
        wide = {tech: t._replace(transport=t.transport._replace(lanes=self.flit_bits))
                for tech, t in self.link_templates.items() if not t.is_optical}
        return {"link_templates": {**self.link_templates, **wide}}

    def with_flit_bits(self, flit_bits: int) -> "NocConfig":
        """Re-derive width-dependent parameters for a new flit size; at its own size, ``self``."""
        if flit_bits == self.flit_bits:
            return self
        resized = self._replace(flit_bits=flit_bits)  # refuses a size below 1 before dividing
        scale = flit_bits / self.flit_bits
        router = self.router._replace(dynamic_j_per_bit=self.router.dynamic_j_per_bit * scale,
                                      area_m2=self.router.area_m2 * scale)
        templates = {}
        for tech, template in self.link_templates.items():
            components = []
            for comp in template.components:
                if comp.role in _ELECTRONIC_ROLES:
                    comp = comp._replace(area_m2=comp.area_m2 * scale)
                components.append(comp)
            if not template.is_optical:  # _check sets its lanes to flit_bits
                lane_rate = link_capacity(template) / flit_bits
                components = [
                    c._replace(bandwidth_hz=lane_rate) if c.bandwidth_hz > 0 else c
                    for c in components]
            templates[tech] = template._replace(components=tuple(components))
        return resized._replace(router=router, link_templates=templates)


def _hop_span(topology: MeshTopology, node_span: int) -> int:
    """The hop_span of a hop's link class: a hop across ``express_span`` node ids is express."""
    return topology.express_span if node_span == topology.express_span else 1


def _link_classes(topology: MeshTopology, activity: LinkActivity, config: NocConfig):
    """Each class as (technology, hop_span, count, template at the hop's length)."""
    if activity.geometry != topology.geometry:
        raise DomainError(f"link activity routed on (rows, cols, express_span) "
                          f"{activity.geometry} cannot be priced on {topology.geometry}")
    for (technology, hop_span), count in topology.link_counts().items():
        if technology not in config.link_templates:
            raise ConfigurationError(
                f"link_templates has no entry for technology '{technology.value}'")
        yield (technology, hop_span, count,
               config.link_templates[technology].at_length(hop_span * topology.spacing_m))


def _link_area_by_die(spec: LinkSpec, native_die: str) -> dict[str, float]:
    """Split a link's footprint across dies by component role.

    Serdes and drivers are electronic circuitry regardless of the link
    technology; everything else, including the transport strip, sits on the
    technology's native die.
    """
    total = link_area(spec)
    if native_die == ELECTRONIC_DIE:
        return {ELECTRONIC_DIE: total}
    electronic = math.fsum(c.area_m2 for c in spec.components if c.role in _ELECTRONIC_ROLES)
    return {ELECTRONIC_DIE: electronic, native_die: total - electronic}


def network_clear(topology: MeshTopology, activity: LinkActivity, config: NocConfig,
                  eval_year: float | None = None) -> ClearValue:
    """Aggregate capacity per node over latency, energy, area, and cost.

    ``activity`` is the traffic routed on ``topology``'s geometry, and no other
    (see :func:`link_activity`). The factors are capacity in bit/s per node,
    latency in clocks, energy in J/bit, area in m^2 and cost in USD, all
    from one pass over the mesh's (technology, hop_span) link classes. Links
    of a class are identical, so each class is instantiated once:

    - capability is the ``link_capacity`` of every link over the node count;
    - latency is the traffic-weighted mean clock cost of a flow. Each hop
      charges one router pipeline plus its link's ``p2p_latency`` in whole
      periods of ``clock_hz``, at least one, and ejection adds nothing;
    - energy is the dynamic energy rate over the injected bit rate: a flow
      crosses one router more than it has hops, and pays each hop's link
      energy per bit. An optical link amortizes its laser over its capacity,
      so lasers burn energy only for transmitted bits;
    - area sums router and component footprints per die, with routers on
      the electronic die, and cost prices each die's area at its wafer rate.
    """
    if activity.injected_bps <= 0:
        raise DomainError("latency and energy per bit are undefined for zero traffic")
    latency_terms = [config.router_pipeline_clks * activity.flow_hop_bps]
    energy_terms = [activity.router_traversal_bps * config.router.dynamic_j_per_bit]
    area_terms = {ELECTRONIC_DIE: [config.router.area_m2 * topology.node_count]}
    capacity_terms = []
    for technology, hop_span, count, spec in _link_classes(topology, activity, config):
        capacity_terms.append(count * link_capacity(spec))
        loads = [load for node_span, span_loads in activity.loads_by_node_span.items()
                 if _hop_span(topology, node_span) == hop_span for load in span_loads]
        delay = p2p_latency(spec)
        if not delay * config.clock_hz < math.inf:  # or NaN, from an RC product past the range
            raise DomainError(f"the {technology.value} link of span {hop_span} takes {delay:g} s, "
                              f"past the float range in periods of clock_hz {config.clock_hz:g}")
        clks = max(1, math.ceil(delay * config.clock_hz))
        latency_terms += [load * clks for load in loads]
        energy = link_energy_per_bit(spec)
        if not energy < math.inf:
            raise DomainError(f"the {technology.value} link of span {hop_span} draws "
                              f"{energy:g} J per bit, past the float range")
        energy_terms += [load * energy for load in loads]
        native_die = ELECTRONIC_DIE if technology is Technology.ELECTRONIC else PHOTONIC_DIE
        for die, area in _link_area_by_die(spec, native_die).items():
            area_terms.setdefault(die, []).append(count * area)

    area_by_die = {die: math.fsum(terms) for die, terms in area_terms.items()}
    cost_terms = []
    for die, area in sorted(area_by_die.items()):
        if die not in config.wafer_cost:
            raise ConfigurationError(f"wafer_cost has no entry for die '{die}'")
        curve = config.wafer_cost[die]
        rate = curve.initial_unit_cost if eval_year is None else unit_cost(curve, eval_year)
        cost_terms.append(area * rate)
    # Both totals weight every load, so their range follows the load scale.
    factors = Axes(capability=math.fsum(capacity_terms) / topology.node_count,
                   latency=_load_total(latency_terms, activity.injected_bps, " or clock_hz"),
                   energy=_load_total(energy_terms, activity.injected_bps),
                   amount=math.fsum(area_by_die.values()), resistance=math.fsum(cost_terms))
    return clear_value(factors, Level.NETWORK)


def _load_total(terms: Iterable[float], per: float = 1.0, knobs: str = "") -> float:
    """The fsum of load-weighted ``terms`` over ``per``; past the float range, name ``knobs``."""
    try:
        total = math.fsum(terms) / per
    except OverflowError:  # an fsum's partial sums passed the float range
        total = math.inf
    if math.isinf(total):
        raise DomainError(_LOAD_OVERFLOW + knobs)
    return total


def find_crossover(flit_sizes: Sequence[int], series: Sequence[float],
                   baseline: Sequence[float]) -> int | None:
    """First flit size at which sign(series - baseline) flips (or hits zero)."""
    if not (len(flit_sizes) == len(series) == len(baseline)):
        raise DomainError("crossover inputs must have equal lengths")
    previous = None
    for flit, a, b in zip(flit_sizes, series, baseline):
        sign = int(a > b) - int(a < b)
        if sign == 0:
            return flit
        if previous is not None and sign != previous:
            return flit
        previous = sign
    return None


def flit_sweep(cases: Mapping[str, MeshTopology], activities: Mapping[str, LinkActivity],
               config: NocConfig, flit_sizes: Sequence[int],
               eval_year: float | None = None) -> dict[int, dict[str, ClearValue]]:
    """Each case's CLEAR under ``config`` by distinct flit size, then by label in case order.

    Each size is priced once, under ``config`` itself at ``config.flit_bits``.
    Routing, latency, and link activity do not depend on flit size, so the
    routed ``activities``, by label (see :func:`case_activities`), serve the
    whole sweep.
    """
    if activities.keys() != cases.keys():
        raise DomainError("flit_sweep needs one link activity per case label")
    sweep = {}
    for flit in dict.fromkeys(flit_sizes):  # distinct sizes, in first-seen order
        at_flit = config.with_flit_bits(flit)
        sweep[flit] = {label: network_clear(topology, activities[label], at_flit, eval_year)
                       for label, topology in cases.items()}
    return sweep
