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
from .jsonutil import dumps, integer

Edge = tuple[int, int]
Cycle = tuple[int, ...]


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


def _check_honeycomb_params(cycle_size: int, cycles: int) -> None:
    if cycle_size < 5:
        raise ParameterDomainError(
            f"honeycomb cycle size must be >= 5, got {cycle_size}")
    if cycles < 1:
        raise ParameterDomainError(
            f"honeycomb cycle count must be >= 1, got {cycles}")


def build_honeycomb(cycle_size: int, cycles: int, coupling: float = 1.0) -> Graph:
    """Chain of `cycles` rings of `cycle_size` nodes, consecutive rings
    sharing exactly one node.

    Nodes 1..cycles*(cycle_size-1)+1 form a path; ring p (0-based) is
    closed by a chord from its first node p*(cycle_size-1)+1 to its last.
    """
    _check_honeycomb_params(cycle_size, cycles)
    n = cycles * (cycle_size - 1) + 1
    edges: list[Edge] = [(i, i + 1) for i in range(1, n)]
    edges += [(p * (cycle_size - 1) + 1, p * (cycle_size - 1) + cycle_size)
              for p in range(cycles)]
    basis = []
    for p in range(cycles):
        start = p * (cycle_size - 1) + 1
        basis.append(tuple(range(start, start + cycle_size)))
    return _validated_graph(n, edges, basis, coupling)


def build_honeycomb_chain(cycle_size: int, cycles: int, coupling: float = 1.0) -> Graph:
    """Alternative gluing of the honeycomb chain: consecutive rings share
    one node placed floor(cycle_size/2) steps around the previous ring.

    Junctions are therefore never adjacent, so every edge keeps at least
    one endpoint of degree 2.
    """
    _check_honeycomb_params(cycle_size, cycles)
    offset = cycle_size // 2
    edges: list[Edge] = []
    basis: list[Cycle] = []
    ring = tuple(range(1, cycle_size + 1))
    next_id = cycle_size + 1
    for p in range(cycles):
        basis.append(ring)
        edges += [(ring[t], ring[(t + 1) % cycle_size]) for t in range(cycle_size)]
        if p + 1 < cycles:
            junction = ring[offset]
            ring = (junction,) + tuple(range(next_id, next_id + cycle_size - 1))
            next_id += cycle_size - 1
    return _validated_graph(next_id - 1, edges, basis, coupling)


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
    coords: set[tuple[int, int]] = set()
    faces_xy = []
    for r in range(rows):
        for c in range(cols):
            x0 = 2 * c + (r % 2)
            corners = [(x0, r), (x0 + 1, r), (x0 + 2, r),
                       (x0 + 2, r + 1), (x0 + 1, r + 1), (x0, r + 1)]
            coords.update(corners)
            faces_xy.append(corners)
    ids = {xy: i + 1 for i, xy in enumerate(sorted(coords, key=lambda p: (p[1], p[0])))}
    edges: set[Edge] = set()
    basis = []
    for corners in faces_xy:
        cyc = tuple(ids[xy] for xy in corners)
        basis.append(cyc)
        for t in range(6):
            u, v = cyc[t], cyc[(t + 1) % 6]
            edges.add((min(u, v), max(u, v)))
    return _validated_graph(len(ids), sorted(edges), basis, coupling)


def _square_grid(rows: int, cols: int):
    """Node ids and orthogonal edges of the (rows+1) x (cols+1) grid."""
    ids = {(x, y): y * (cols + 1) + x + 1
           for y in range(rows + 1) for x in range(cols + 1)}
    edges = []
    for y in range(rows + 1):
        for x in range(cols + 1):
            if x < cols:
                edges.append((ids[(x, y)], ids[(x + 1, y)]))
            if y < rows:
                edges.append((ids[(x, y)], ids[(x, y + 1)]))
    return ids, edges


def build_square_array(rows: int, cols: int, coupling: float = 1.0) -> Graph:
    """Square lattice of rows x cols unit cells; basis = the cell 4-cycles."""
    _check_array_params(rows, cols)
    ids, edges = _square_grid(rows, cols)
    basis = []
    for y in range(rows):
        for x in range(cols):
            basis.append((ids[(x, y)], ids[(x + 1, y)],
                          ids[(x + 1, y + 1)], ids[(x, y + 1)]))
    return _validated_graph(len(ids), edges, basis, coupling)


def build_tri_array(rows: int, cols: int, coupling: float = 1.0) -> Graph:
    """Triangular lattice obtained by splitting each square cell along its
    ascending diagonal; basis = the 2*rows*cols triangles."""
    _check_array_params(rows, cols)
    ids, edges = _square_grid(rows, cols)
    basis = []
    for y in range(rows):
        for x in range(cols):
            edges.append((ids[(x, y)], ids[(x + 1, y + 1)]))
            basis.append((ids[(x, y)], ids[(x + 1, y)], ids[(x + 1, y + 1)]))
            basis.append((ids[(x, y)], ids[(x + 1, y + 1)], ids[(x, y + 1)]))
    return _validated_graph(len(ids), edges, basis, coupling)


def degrees(g: Graph) -> list[int]:
    """Degree of each node, in node-id order."""
    deg = [0] * g.n
    for a, b in g.edges:
        deg[a - 1] += 1
        deg[b - 1] += 1
    return deg


def graph_payload(g: Graph) -> dict:
    """The interchange schema as a dict (1-based ids, sorted edges)."""
    return {"n": g.n, "coupling_c": g.coupling, "edges": [list(e) for e in g.edges],
            "cycle_basis": [list(c) for c in g.cycle_basis]}


def graph_to_json(g: Graph) -> str:
    """Serialize to the interchange schema."""
    return dumps(graph_payload(g))


def graph_from_json(text: str) -> Graph:
    """Parse and re-validate a graph from its JSON form."""
    try:
        payload = json.loads(text)
        n = integer(payload["n"], "n")
        coupling = float(payload["coupling_c"])
        edges = [(integer(a, "edge end"), integer(b, "edge end")) for a, b in payload["edges"]]
        cycles = [tuple(integer(v, "cycle node") for v in c) for c in payload["cycle_basis"]]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from exc
    return _validated_graph(n, edges, cycles, coupling)
