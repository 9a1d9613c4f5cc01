import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramem import (ParameterDomainError, build_hex_array, build_honeycomb,
                     build_honeycomb_chain, build_square_array, build_tri_array,
                     canonicalize, degrees, graph_from_json, graph_to_json, wrap_angle)

ALL_BUILDERS = [
    (build_honeycomb, (5, 1)),
    (build_honeycomb, (5, 3)),
    (build_honeycomb, (6, 2)),
    (build_honeycomb, (9, 2)),
    (build_honeycomb_chain, (5, 2)),
    (build_honeycomb_chain, (6, 5)),
    (build_hex_array, (1, 1)),
    (build_hex_array, (2, 2)),
    (build_hex_array, (1, 3)),
    (build_square_array, (2, 2)),
    (build_square_array, (3, 1)),
    (build_tri_array, (2, 2)),
]


def oriented_incidence(g):
    """Node x edge incidence B built from g.edges: -1 at the smaller node
    id of each edge, +1 at the larger."""
    B = np.zeros((g.n, len(g.edges)))
    for e, (a, b) in enumerate(g.edges):
        B[a - 1, e] = -1.0
        B[b - 1, e] = 1.0
    return B


def canonical_distance(a, b):
    """l-inf distance between two states modulo global rotation, with the
    difference of the gauge-fixed states wrapped again across the +-pi seam."""
    return float(np.max(np.abs(wrap_angle(canonicalize(a) - canonicalize(b)))))


def test_honeycomb_5_1_is_a_pentagon():
    g = build_honeycomb(5, 1)
    assert g.n == 5
    assert g.edges == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert g.cycle_basis == ((1, 2, 3, 4, 5),)
    assert degrees(g) == [2, 2, 2, 2, 2]


def test_honeycomb_5_2_structure():
    g = build_honeycomb(5, 2)
    assert g.n == 9
    assert len(g.edges) == 10
    # path edges plus one chord per ring
    path = {(i, i + 1) for i in range(1, 9)}
    chords = {(1, 5), (5, 9)}
    assert set(g.edges) == path | chords
    assert len(g.cycle_basis) == 2
    # junction node sits in both rings and has degree 4
    assert degrees(g)[4] == 4
    assert sorted(degrees(g)) == [2] * 8 + [4]


def test_honeycomb_6_5_counts():
    g = build_honeycomb(6, 5)
    assert (g.n, len(g.edges), len(g.cycle_basis)) == (26, 30, 5)


@pytest.mark.parametrize("nc,m", [(4, 1), (5, 0), (3, 2), (5, -1)])
def test_honeycomb_rejects_bad_params(nc, m):
    with pytest.raises(ParameterDomainError):
        build_honeycomb(nc, m)
    with pytest.raises(ParameterDomainError):
        build_honeycomb_chain(nc, m)


def test_chain_5_1_equals_honeycomb_5_1():
    a = build_honeycomb(5, 1)
    b = build_honeycomb_chain(5, 1)
    assert a.edges == b.edges
    assert a.cycle_basis == b.cycle_basis


def test_chain_5_2_degrees():
    g = build_honeycomb_chain(5, 2)
    assert g.n == 9 and len(g.edges) == 10
    assert sorted(degrees(g)) == [2] * 8 + [4]


@pytest.mark.parametrize("nc,m", [(5, 2), (5, 4), (6, 5), (7, 3), (9, 2)])
def test_chain_every_edge_has_a_degree_2_endpoint(nc, m):
    g = build_honeycomb_chain(nc, m)
    deg = degrees(g)
    for a, b in g.edges:
        assert deg[a - 1] == 2 or deg[b - 1] == 2


def test_hex_1_1_is_a_hexagon():
    g = build_hex_array(1, 1)
    assert (g.n, len(g.edges), len(g.cycle_basis)) == (6, 6, 1)
    assert degrees(g) == [2] * 6


def test_square_2_2_is_a_3x3_grid():
    g = build_square_array(2, 2)
    assert (g.n, len(g.edges), len(g.cycle_basis)) == (9, 12, 4)


def test_hex_2_2_face_count():
    g = build_hex_array(2, 2)
    assert len(g.edges) - g.n + 1 == 4
    assert len(g.cycle_basis) == 4


def test_tri_2_2_faces():
    g = build_tri_array(2, 2)
    assert len(g.cycle_basis) == 8
    assert all(len(c) == 3 for c in g.cycle_basis)


@pytest.mark.parametrize("rows,cols", [(0, 1), (1, 0), (-2, 3)])
def test_arrays_reject_bad_dims(rows, cols):
    for builder in (build_hex_array, build_square_array, build_tri_array):
        with pytest.raises(ParameterDomainError):
            builder(rows, cols)


SIZE_GRID = ([(b, (nc, m)) for b in (build_honeycomb, build_honeycomb_chain)
              for nc in (5, 6, 7, 9) for m in (1, 2, 3, 5)]
             + [(b, (rows, cols)) for b in (build_hex_array, build_square_array, build_tri_array)
                for rows in (1, 2, 3, 4) for cols in (1, 2, 3, 5)])


@pytest.mark.parametrize("builder,params", SIZE_GRID)
def test_built_edges_are_the_basis_ring_steps(builder, params):
    g = builder(*params)
    steps = {(min(u, v), max(u, v))
             for cyc in g.cycle_basis for u, v in zip(cyc, cyc[1:] + cyc[:1])}
    assert set(g.edges) == steps
    assert {v for e in g.edges for v in e} == set(range(1, g.n + 1))


@pytest.mark.parametrize("builder,params,edges,basis", [
    (build_square_array, (1, 2),
     ((1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (5, 6)),
     ((1, 2, 5, 4), (2, 3, 6, 5))),
    (build_tri_array, (1, 1),
     ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)),
     ((1, 2, 4), (1, 4, 3))),
    (build_hex_array, (2, 1),
     ((1, 2), (1, 4), (2, 3), (3, 6), (4, 5), (5, 6), (5, 8), (6, 7), (7, 10), (8, 9),
      (9, 10)),
     ((1, 2, 3, 6, 5, 4), (5, 6, 7, 10, 9, 8))),
    (build_honeycomb_chain, (5, 3),
     ((1, 2), (1, 5), (2, 3), (3, 4), (3, 6), (3, 9), (4, 5), (6, 7), (7, 8), (7, 10),
      (7, 13), (8, 9), (10, 11), (11, 12), (12, 13)),
     ((1, 2, 3, 4, 5), (3, 6, 7, 8, 9), (7, 10, 11, 12, 13))),
])
def test_builder_numbering_and_orientation(builder, params, edges, basis):
    g = builder(*params)
    assert g.edges == edges
    assert g.cycle_basis == basis


@pytest.mark.parametrize("builder,params", ALL_BUILDERS)
def test_cyclomatic_identity_and_closed_walks(builder, params):
    g = builder(*params)
    assert len(g.cycle_basis) == len(g.edges) - g.n + 1
    edge_set = set(g.edges)
    for cyc in g.cycle_basis:
        for t in range(len(cyc)):
            u, v = cyc[t], cyc[(t + 1) % len(cyc)]
            assert (min(u, v), max(u, v)) in edge_set


@pytest.mark.parametrize("builder,params", ALL_BUILDERS)
def test_incidence_and_cycle_space(builder, params):
    g = builder(*params)
    B = oriented_incidence(g)
    assert B.shape == (g.n, len(g.edges))
    np.testing.assert_array_equal(np.sum(B == -1, axis=0), np.ones(len(g.edges)))
    np.testing.assert_array_equal(np.sum(B == 1, axis=0), np.ones(len(g.edges)))
    # every basis cycle is in the kernel of B (a circulation)
    C = g.cycle_signs   # raises unless the basis cycles are independent
    assert C.shape == (len(g.cycle_basis), len(g.edges))
    np.testing.assert_allclose(B @ C.T, 0.0, atol=1e-12)
    assert np.linalg.matrix_rank(C) == len(g.cycle_basis)


def test_cycle_signs_are_cached_and_read_only():
    g = build_hex_array(2, 2)
    assert "cycle_signs" not in vars(g)   # built on first use, not at validation
    assert g.cycle_signs is g.cycle_signs
    with pytest.raises(ValueError):
        g.cycle_signs[0, 0] = 2.0


@pytest.mark.parametrize("builder,params", ALL_BUILDERS)
def test_bfs_tree_spans_the_graph(builder, params):
    g = builder(*params)
    tree = g.bfs_tree
    assert tree.shape == (g.n - 1, 3)
    reached = {1}
    for parent, child, e in tree.tolist():
        assert g.edges[e] == (min(parent, child), max(parent, child))
        assert parent in reached and child not in reached
        reached.add(child)
    assert reached == set(range(1, g.n + 1))


def test_json_rejects_too_few_edges_before_per_node_work():
    import tracemalloc

    text = '{"n": 1000000, "coupling_c": 1.0, "edges": [[1, 2]], "cycle_basis": []}'
    tracemalloc.start()
    try:
        with pytest.raises(ParameterDomainError, match="not connected"):
            graph_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@settings(max_examples=30, deadline=None)
@given(nc=st.integers(5, 10), m=st.integers(1, 5))
def test_honeycomb_counts_hold_generally(nc, m):
    g = build_honeycomb(nc, m)
    assert g.n == m * (nc - 1) + 1
    assert len(g.edges) == m * nc
    assert len(g.cycle_basis) == m
    assert all(len(c) == nc for c in g.cycle_basis)


@settings(max_examples=30, deadline=None)
@given(nc=st.integers(5, 10), m=st.integers(1, 5))
def test_chain_counts_and_degree_property(nc, m):
    g = build_honeycomb_chain(nc, m)
    assert g.n == m * (nc - 1) + 1
    assert len(g.edges) == m * nc
    deg = degrees(g)
    assert all(deg[a - 1] == 2 or deg[b - 1] == 2 for a, b in g.edges)


def test_degrees_match_edge_incidence():
    g = build_honeycomb(5, 2)
    deg = degrees(g)
    for v in range(1, g.n + 1):
        touching = sum(1 for a, b in g.edges if v in (a, b))
        assert deg[v - 1] == touching


def test_json_round_trip():
    g = build_hex_array(2, 1)
    h = graph_from_json(graph_to_json(g))
    assert h.n == g.n
    assert h.edges == g.edges
    assert h.cycle_basis == g.cycle_basis
    assert h.coupling == g.coupling


@pytest.mark.parametrize("text", [
    "not json",
    '{"n": 2}',
    '{"n": 2, "coupling_c": 1.0, "edges": [[1, 1]], "cycle_basis": []}',
    '{"n": 3, "coupling_c": 1.0, "edges": [[1, 2], [1, 2], [2, 3]], "cycle_basis": []}',
    '{"n": 4, "coupling_c": 1.0, "edges": [[1, 2], [3, 4]], "cycle_basis": []}',
    '{"n": 3, "coupling_c": 1.0, "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": []}',
    '{"n": 3, "coupling_c": 1.0, "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": [[1, 2, 4]]}',
    '{"n": 3, "coupling_c": -1.0, "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": [[1, 2, 3]]}',
    '{"n": 3, "coupling_c": NaN, "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": [[1, 2, 3]]}',
    '{"n": 3, "coupling_c": Infinity, "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": [[1, 2, 3]]}',
    '{"n": 3, "coupling_c": true, "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": [[1, 2, 3]]}',
    '{"n": 3, "coupling_c": "1.5", "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": [[1, 2, 3]]}',
    '{"n": 3, "coupling_c": 1%s, "edges": [[1, 2], [2, 3], [1, 3]], "cycle_basis": [[1, 2, 3]]}'
    % ("0" * 400),
])
def test_json_rejects_malformed_input(text):
    with pytest.raises(ParameterDomainError):
        graph_from_json(text)


@pytest.mark.parametrize("coupling", [np.nan, np.inf])
def test_builders_reject_non_finite_coupling(coupling):
    for builder, params in ALL_BUILDERS:
        with pytest.raises(ParameterDomainError):
            builder(*params, coupling)
