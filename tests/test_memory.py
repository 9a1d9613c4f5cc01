import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramem import (ParameterDomainError, PatternCodec, RetrievalError,
                     build_hex_array, build_honeycomb, build_honeycomb_chain,
                     build_square_array, build_tri_array, capacity,
                     codec_for_graph, construct_config, decode, encode,
                     graph_from_json, integrate, num_patterns, retrieve, store,
                     winding_vector, wrap_angle)
from kuramem import memory
from kuramem.dynamics import DEFAULT_DT

# frozen reference mapping for two pentagonal rings:
# (winding pair, index, bits); phase step within ring p is 2*pi*k_p/5
NINE_ROWS = [
    ((-1, -1), 1, "0001"),
    ((-1, 0), 2, "0010"),
    ((-1, 1), 3, "0011"),
    ((0, -1), 4, "0100"),
    ((0, 0), 5, "0101"),
    ((0, 1), 6, "0110"),
    ((1, -1), 7, "0111"),
    ((1, 0), 8, "1000"),
    ((1, 1), 9, "1001"),
]


@pytest.fixture(scope="module")
def codec52():
    return PatternCodec(5, 2)


def test_codec_derived_fields(codec52):
    assert codec52.base == 3
    assert codec52.max_winding == 1
    assert codec52.n_patterns == 9
    assert codec52.bit_width == 4


def test_codec_9_2_fields():
    c = PatternCodec(9, 2)
    assert c.base == 5
    assert c.n_patterns == 25
    assert c.bit_width == 5


def test_codec_rejects_bad_params():
    with pytest.raises(ParameterDomainError):
        PatternCodec(4, 2)
    with pytest.raises(ParameterDomainError):
        PatternCodec(5, 0)


@pytest.mark.parametrize("winding,index,bits", NINE_ROWS)
def test_reference_mapping_rows(codec52, winding, index, bits):
    assert encode(winding, codec52) == bits
    assert int(bits, 2) == index
    np.testing.assert_array_equal(decode(bits, codec52), winding)
    # phase steps within each ring match 2*pi*k/5
    theta = construct_config(winding, 5, 2)
    g = build_honeycomb(5, 2)
    for p, cyc in enumerate(g.cycle_basis):
        want = 2 * np.pi * winding[p] / 5
        for t in range(len(cyc) - 1):
            step = wrap_angle(theta[cyc[t] - 1] - theta[cyc[t + 1] - 1])
            assert step == pytest.approx(want, abs=1e-12)


def test_encode_rejects_out_of_range(codec52):
    with pytest.raises(ParameterDomainError):
        encode((2, 0), codec52)
    with pytest.raises(ParameterDomainError):
        encode((0,), codec52)


@pytest.mark.parametrize("bits", ["0000", "1010", "1111", "001", "00012", "0a01"])
def test_decode_rejects_invalid_patterns(codec52, bits):
    with pytest.raises(ParameterDomainError):
        decode(bits, codec52)


@settings(max_examples=40, deadline=None)
@given(nc=st.integers(5, 11), m=st.integers(1, 4), data=st.data())
def test_encode_decode_bijection(nc, m, data):
    codec = PatternCodec(nc, m)
    bound = codec.max_winding
    k = data.draw(st.lists(st.integers(-bound, bound), min_size=m, max_size=m))
    bits = encode(k, codec)
    assert len(bits) == codec.bit_width
    np.testing.assert_array_equal(decode(bits, codec), k)


def test_index_range_covers_all_patterns(codec52):
    seen = {encode(k, codec52) for k, _, _ in NINE_ROWS}
    assert len(seen) == codec52.n_patterns


def test_num_patterns_and_capacity_examples():
    assert num_patterns(5, 1) == 3
    assert capacity(5, 1) == pytest.approx(3 / 5)
    assert num_patterns(5, 2) == 9
    assert capacity(5, 2) == pytest.approx(1.0)
    assert num_patterns(9, 2) == 25
    with pytest.raises(ParameterDomainError):
        num_patterns(4, 1)


def test_capacity_eventually_increases_with_rings():
    caps = [capacity(5, m) for m in range(2, 9)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_store_examples(codec52):
    np.testing.assert_array_equal(store("0101", codec52), np.zeros(9))
    np.testing.assert_allclose(store("0100", codec52),
                               construct_config((0, -1), 5, 2), atol=1e-15)
    np.testing.assert_allclose(store("0011", codec52),
                               construct_config((-1, 1), 5, 2), atol=1e-15)


@pytest.mark.parametrize("nc,m", [(5, 2), (9, 1), (6, 3)])
def test_retrieve_is_identity_on_stored_patterns(nc, m):
    codec = PatternCodec(nc, m)
    g = build_honeycomb(nc, m)
    for index in range(1, codec.n_patterns + 1):
        bits = format(index, "b").zfill(codec.bit_width)
        recovered, diag = retrieve(store(bits, codec), codec, g)
        assert recovered == bits
        assert diag.t_converged == 0.0
        assert diag.cohesive


def test_retrieve_with_noise_smoke(codec52):
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(101)
    for _ in range(5):
        bits = encode([rng.integers(-1, 2), rng.integers(-1, 2)], codec52)
        noisy = store(bits, codec52) + rng.uniform(-0.1, 0.1, g.n)
        recovered, _ = retrieve(noisy, codec52, g)
        assert recovered == bits


@pytest.mark.parametrize("noise", [0.1, 0.5])
def test_retrieve_at_lock_dt_matches_the_trajectory_step(codec52, noise):
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(37)
    for _, _, bits in NINE_ROWS:
        noisy = store(bits, codec52) + rng.uniform(-noise, noise, g.n)
        fine = integrate(noisy, g, dt=DEFAULT_DT)
        assert fine.converged
        assert retrieve(noisy, codec52, g)[0] == encode(winding_vector(fine.theta, g), codec52)


def test_retrieve_from_random_state_returns_some_pattern(codec52):
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(55)
    for _ in range(5):
        bits, diag = retrieve(rng.uniform(-np.pi, np.pi, g.n), codec52, g)
        assert 1 <= int(bits, 2) <= codec52.n_patterns
        assert diag.cohesive


def test_retrieve_raises_on_no_convergence(codec52):
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(77)
    with pytest.raises(RetrievalError):
        retrieve(rng.uniform(-np.pi, np.pi, g.n), codec52, g, t_max=0.02)


def test_retrieve_refuses_a_codec_that_is_not_the_graphs():
    # a (9,2) codec on the (5,2) network once decoded a (9,2) pattern, '00111'
    g = build_honeycomb(5, 2)
    with pytest.raises(ParameterDomainError, match="does not match"):
        retrieve(store("0001", PatternCodec(5, 2)), PatternCodec(9, 2), g)


def test_codec_for_graph_reads_the_honeycomb_only():
    assert codec_for_graph(build_honeycomb(5, 3, 1.5)) == PatternCodec(5, 3)
    with pytest.raises(ParameterDomainError, match="not the honeycomb"):
        codec_for_graph(build_honeycomb_chain(5, 2))


@pytest.mark.parametrize("g", [
    build_square_array(1, 1), build_tri_array(1, 1), build_hex_array(1, 1),
    graph_from_json('{"n": 3, "coupling_c": 1.0, "edges": [[1, 2], [2, 3]], "cycle_basis": []}'),
])
def test_codec_for_graph_names_the_graph_not_a_cycle_size(g):
    # square and tri cells have 4 and 3 nodes, a tree has no cycle at all
    with pytest.raises(ParameterDomainError, match="^graph is not the honeycomb"):
        codec_for_graph(g)


def test_codec_for_graph_builds_no_honeycomb_larger_than_the_graph(monkeypatch):
    # basis cycles are walks: a triangle's file can list a 10,001-step one
    walk = [1, 2] * 4999 + [1, 2, 3]
    g = graph_from_json(json.dumps({"n": 3, "coupling_c": 1.0, "cycle_basis": [walk],
                                    "edges": [[1, 2], [1, 3], [2, 3]]}))
    monkeypatch.setattr(memory, "build_honeycomb",
                        lambda *args: pytest.fail("built a honeycomb"))
    with pytest.raises(ParameterDomainError, match="nc 10001, m 1"):
        codec_for_graph(g)
