"""Oscillator network topologies and their derived structures.

All graphs are undirected, connected, uniformly weighted, with 1-based
node ids. Each carries an ordered cycle basis (one closed walk per
independent cycle) and its edge endpoints as index arrays, every edge
oriented from the smaller to the larger node id.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterDomainError
from .jsonutil import dumps, integer, number

Edge = tuple[int, int]
Cycle = tuple[int, ...]
MIN_CYCLE_SIZE = 5   # smallest honeycomb ring


@dataclass(frozen=True)
class Graph:
    """Immutable oscillator network.

    Attributes:
        n: node count.
        edges: unordered node pairs, stored as (low, high), sorted
            lexicographically.
        coupling: uniform positive edge weight.
        cycle_basis: closed walks (first node not repeated), each with a
            fixed traversal orientation used for winding numbers.
    """

    n: int
    edges: tuple[Edge, ...]
    coupling: float = 1.0
    cycle_basis: tuple[Cycle, ...] = ()

    @cached_property
    def edge_tails(self) -> np.ndarray:
        """0-based smaller endpoint of each edge."""
        return np.array([a - 1 for a, _ in self.edges], dtype=np.intp)

    @cached_property
    def edge_heads(self) -> np.ndarray:
        """0-based larger endpoint of each edge."""
        return np.array([b - 1 for _, b in self.edges], dtype=np.intp)

    @cached_property
    def cycle_signs(self) -> np.ndarray:
        """Read-only (cycles, E) matrix: +1 where a basis cycle traverses an
        edge from its smaller to its larger node id, -1 the other way. Each
        row is a circulation, with zero net flow at every node. Dependent
        rows (no basis) raise ParameterDomainError; the rank takes an SVD,
        so it is checked here, on first use, and not at validation."""
        index = {e: i for i, e in enumerate(self.edges)}
        C = np.zeros((len(self.cycle_basis), len(self.edges)))
        for s, cyc in enumerate(self.cycle_basis):
            for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                C[s, index[(min(u, v), max(u, v))]] += 1.0 if u < v else -1.0
        if np.linalg.matrix_rank(C) < len(C):
            raise ParameterDomainError("cycle basis is linearly dependent")
        C.flags.writeable = False
        return C

    @cached_property
    def bfs_tree(self) -> np.ndarray:
        """Breadth-first spanning tree from node 1, neighbours in edge
        order: one (parent, child, edge index) row per node reached after
        node 1, node ids 1-based, in visit order. Fewer than n - 1 rows
        means the graph is not connected."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for e, (a, b) in enumerate(self.edges):
            adj[a].append((b, e))
            adj[b].append((a, e))
        seen = [False] * (self.n + 1)
        seen[1] = True
        order, rows = [1], []
        for u in order:   # order grows while it is walked: the BFS queue
            for v, e in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    order.append(v)
                    rows.append((u, v, e))
        return np.array(rows, dtype=np.intp).reshape(-1, 3)


def _validated_graph(n: int, edges: list[Edge], cycles: list[Cycle],
                     coupling: float) -> Graph:
    """Normalize, check structural invariants, and freeze a Graph."""
    if n < 2:
        raise ParameterDomainError(f"node count must be >= 2, got {n}")
    if not 0 < coupling < np.inf:
        raise ParameterDomainError(f"coupling must be finite and positive, got {coupling}")
    if len(edges) < n - 1:   # before any O(n) work: n nodes need n - 1 edges
        raise ParameterDomainError("graph is not connected")
    norm = []
    for (a, b) in edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParameterDomainError(f"edge ({a},{b}) out of node range 1..{n}")
        if a == b:
            raise ParameterDomainError(f"self-loop at node {a}")
        norm.append((min(a, b), max(a, b)))
    norm.sort()
    for i in range(1, len(norm)):
        if norm[i] == norm[i - 1]:
            raise ParameterDomainError(f"duplicate edge {norm[i]}")
    edge_set = set(norm)

    g = Graph(n=n, edges=tuple(norm), coupling=float(coupling),
              cycle_basis=tuple(tuple(c) for c in cycles))
    if len(g.bfs_tree) != n - 1:
        raise ParameterDomainError("graph is not connected")

    expected = len(norm) - n + 1
    if len(cycles) != expected:
        raise ParameterDomainError(
            f"cycle basis has {len(cycles)} cycles, expected |E|-n+1 = {expected}")
    for cyc in cycles:
        if len(cyc) < 3:
            raise ParameterDomainError(f"cycle {cyc} too short")
        for t in range(len(cyc)):
            u, v = cyc[t], cyc[(t + 1) % len(cyc)]
            if (min(u, v), max(u, v)) not in edge_set:
                raise ParameterDomainError(
                    f"cycle step ({u},{v}) is not an edge of the graph")
    return g


def _ring_graph(rings: list[Cycle], coupling: float) -> Graph:
    """Graph of the given basis rings: its edges are the union of the
    rings' consecutive steps, its nodes 1..(largest id in a ring)."""
    edges = {(min(u, v), max(u, v))
             for ring in rings for u, v in zip(ring, ring[1:] + ring[:1])}
    return _validated_graph(max(map(max, rings)), list(edges), rings, coupling)


def _planar_graph(faces: list[tuple[tuple[int, int], ...]], coupling: float) -> Graph:
    """Graph of lattice faces given as walks of (y, x) corners; corners
    are numbered from 1 row by row, in (y, x) order."""
    ids = {yx: i for i, yx in enumerate(sorted({yx for f in faces for yx in f}), 1)}
    return _ring_graph([tuple(ids[yx] for yx in f) for f in faces], coupling)


def _check_honeycomb_params(cycle_size: int, cycles: int) -> None:
    if cycle_size < MIN_CYCLE_SIZE:
        raise ParameterDomainError(
            f"honeycomb cycle size must be >= {MIN_CYCLE_SIZE}, got {cycle_size}")
    if cycles < 1:
        raise ParameterDomainError(
            f"honeycomb cycle count must be >= 1, got {cycles}")


def build_honeycomb(cycle_size: int, cycles: int, coupling: float = 1.0) -> Graph:
    """Chain of `cycles` rings of `cycle_size` nodes, consecutive rings
    sharing exactly one node.

    Ring p (0-based) is nodes p*(cycle_size-1)+1 .. p*(cycle_size-1)+cycle_size
    in order, so the rings' steps form the path 1..n plus one chord per ring.
    """
    _check_honeycomb_params(cycle_size, cycles)
    k = cycle_size - 1
    return _ring_graph([tuple(range(p * k + 1, p * k + cycle_size + 1))
                        for p in range(cycles)], coupling)


def build_honeycomb_chain(cycle_size: int, cycles: int, coupling: float = 1.0) -> Graph:
    """Alternative gluing of the honeycomb chain: consecutive rings share
    one node placed floor(cycle_size/2) steps around the previous ring.

    Junctions are therefore never adjacent, so every edge keeps at least
    one endpoint of degree 2.
    """
    _check_honeycomb_params(cycle_size, cycles)
    rings = [tuple(range(1, cycle_size + 1))]
    for _ in range(cycles - 1):
        last = rings[-1][-1]   # each ring ends on the largest id so far
        rings.append((rings[-1][cycle_size // 2],)
                     + tuple(range(last + 1, last + cycle_size)))
    return _ring_graph(rings, coupling)


def _check_array_params(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ParameterDomainError(
            f"array dimensions must be >= 1, got ({rows},{cols})")


def build_hex_array(rows: int, cols: int, coupling: float = 1.0) -> Graph:
    """Planar array of rows x cols hexagonal cells.

    Realized as a brick wall on the integer grid (graph-isomorphic to the
    hexagonal lattice): cell (r,c) is a 2x1 brick with three vertices on
    each horizontal side, odd rows offset by one unit.
    """
    _check_array_params(rows, cols)
    return _planar_graph([((y, x), (y, x + 1), (y, x + 2),
                           (y + 1, x + 2), (y + 1, x + 1), (y + 1, x))
                          for y in range(rows) for x in range(y % 2, 2 * cols + y % 2, 2)],
                         coupling)


def build_square_array(rows: int, cols: int, coupling: float = 1.0) -> Graph:
    """Square lattice of rows x cols unit cells; basis = the cell 4-cycles."""
    _check_array_params(rows, cols)
    return _planar_graph([((y, x), (y, x + 1), (y + 1, x + 1), (y + 1, x))
                          for y in range(rows) for x in range(cols)], coupling)


def build_tri_array(rows: int, cols: int, coupling: float = 1.0) -> Graph:
    """Triangular lattice obtained by splitting each square cell along its
    ascending diagonal; basis = the 2*rows*cols triangles."""
    _check_array_params(rows, cols)
    return _planar_graph([face for y in range(rows) for x in range(cols)
                          for face in (((y, x), (y, x + 1), (y + 1, x + 1)),
                                       ((y, x), (y + 1, x + 1), (y + 1, x)))], coupling)


def degrees(g: Graph) -> list[int]:
    """Degree of each node, in node-id order."""
    return np.bincount(np.concatenate([g.edge_tails, g.edge_heads]),
                       minlength=g.n).tolist()


def graph_payload(g: Graph) -> dict:
    """The interchange schema as a dict (1-based ids, sorted edges)."""
    return {"n": g.n, "coupling_c": g.coupling, "edges": [list(e) for e in g.edges],
            "cycle_basis": [list(c) for c in g.cycle_basis]}


def graph_to_json(g: Graph) -> str:
    """Serialize to the interchange schema."""
    return dumps(graph_payload(g))


def graph_from_payload(payload) -> Graph:
    """Re-validate a graph from its parsed interchange form (graph_payload's
    schema), as read from an outside file."""
    try:
        n = integer(payload["n"], "n")
        coupling = number(payload["coupling_c"], "coupling_c")
        edges = [(integer(a, "edge end"), integer(b, "edge end")) for a, b in payload["edges"]]
        cycles = [tuple(integer(v, "cycle node") for v in c) for c in payload["cycle_basis"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from exc
    return _validated_graph(n, edges, cycles, coupling)


def graph_from_json(text: str) -> Graph:
    """Parse and re-validate a graph from its JSON form."""
    try:
        payload = json.loads(text)
    except ValueError as exc:   # JSONDecodeError
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from exc
    return graph_from_payload(payload)
