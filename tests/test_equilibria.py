import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramem import (EnumerationBudgetError, ParameterDomainError,
                     audit_spurious, build_hex_array, build_honeycomb,
                     build_honeycomb_chain, build_square_array,
                     canonical_distance, classify_stability, construct_config, degrees,
                     enumerate_exact, graph_from_json, is_phase_cohesive,
                     max_winding, rhs,
                     winding_box, winding_box_size, winding_constrained_solve,
                     winding_vector, wrap_angle)
from kuramem import equilibria
from kuramem.dynamics import DEFAULT_DT, integrate_batch, lock_dt
from kuramem.equilibria import equilibria_to_json
from test_graphs import ALL_BUILDERS


def test_max_winding_values():
    assert [max_winding(n) for n in (3, 4, 5, 6, 8, 9)] == [0, 0, 1, 1, 1, 2]


def test_winding_box_honeycomb():
    g = build_honeycomb(9, 2)
    assert winding_box(g) == [range(-2, 3), range(-2, 3)]
    assert winding_box_size(g) == 25


def test_construct_zero_winding_is_synchrony():
    theta = construct_config([0, 0, 0], 5, 3)
    np.testing.assert_array_equal(theta, np.zeros(13))


def test_construct_pentagon_splay_values():
    theta = construct_config([1], 5, 1)
    step = 2 * np.pi / 5
    expected = wrap_angle([0.0, -step, -2 * step, -3 * step, -4 * step])
    np.testing.assert_allclose(theta, expected, atol=1e-12)


def test_construct_rejects_out_of_range_winding():
    with pytest.raises(ParameterDomainError):
        construct_config([2], 5, 1)
    with pytest.raises(ParameterDomainError):
        construct_config([1, -2], 5, 2)
    with pytest.raises(ParameterDomainError):
        construct_config([1], 5, 2)  # wrong length


@pytest.mark.parametrize("nc,m", [(5, 1), (5, 2), (6, 2), (9, 1)])
def test_constructed_configs_are_exact_stable_equilibria(nc, m):
    g = build_honeycomb(nc, m)
    bound = max_winding(nc)
    for k in itertools.product(range(-bound, bound + 1), repeat=m):
        theta = construct_config(k, nc, m)
        assert np.max(np.abs(rhs(theta, g))) < 1e-12
        assert classify_stability(theta, g).kind == "stable"
        assert is_phase_cohesive(theta, g)


def test_winding_of_synchrony_is_zero():
    g = build_honeycomb(5, 3)
    np.testing.assert_array_equal(winding_vector(np.zeros(g.n), g), [0, 0, 0])


def test_winding_round_trip_9_3():
    g = build_honeycomb(9, 3)
    theta = construct_config([-1, 0, 1], 9, 3)
    np.testing.assert_array_equal(winding_vector(theta, g), [-1, 0, 1])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_winding_round_trip_over_admissible_box(data):
    nc = data.draw(st.integers(5, 9), label="nc")
    m = data.draw(st.integers(1, 3), label="m")
    bound = max_winding(nc)
    k = data.draw(st.lists(st.integers(-bound, bound), min_size=m, max_size=m),
                  label="k")
    g = build_honeycomb(nc, m)
    theta = construct_config(k, nc, m)
    np.testing.assert_array_equal(winding_vector(theta, g), k)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_winding_is_integer_for_any_state(seed):
    g = build_hex_array(1, 2)
    rng = np.random.default_rng(seed)
    winding_vector(rng.uniform(-np.pi, np.pi, g.n), g)  # must not raise


def test_winding_rejects_non_finite():
    g = build_honeycomb(5, 1)
    with pytest.raises(ValueError):
        winding_vector(np.array([0.0, np.nan, 0.0, 0.0, 0.0]), g)


def walk_winding(theta, g):
    """Reference reading: the wrapped steps theta_current - theta_next
    around each basis cycle in stored order, summed, over 2*pi."""
    out = []
    for cyc in g.cycle_basis:
        idx = np.array(cyc) - 1
        total = float(np.sum(wrap_angle(theta[idx] - theta[np.roll(idx, -1)])))
        out.append(round(total / (2 * np.pi)))
    return out


@pytest.mark.parametrize("builder,params", ALL_BUILDERS)
def test_batched_winding_matches_the_cycle_walk(builder, params):
    g = builder(*params)
    rng = np.random.default_rng(len(g.edges))
    states = rng.uniform(-3 * np.pi, 3 * np.pi, size=(40, g.n))
    reference = np.array([walk_winding(th, g) for th in states])
    np.testing.assert_array_equal(winding_vector(states, g), reference)
    for th, ref in zip(states, reference):
        np.testing.assert_array_equal(winding_vector(th, g), ref)


def test_winding_seam_counts_in_the_edge_orientation():
    # edges (4,5) and (1,5) both differ by exactly pi: the walk reads both
    # steps as +pi, the edge orientation reads +pi and then -pi
    g = build_honeycomb(5, 1)
    theta = np.array([0.0, 0.0, 0.0, 0.0, np.pi])
    np.testing.assert_array_equal(winding_vector(theta, g), [0])
    assert walk_winding(theta, g) == [1]


def test_winding_of_a_tree_is_empty():
    g = graph_from_json(
        '{"n": 3, "coupling_c": 1.0, "edges": [[1, 2], [2, 3]], "cycle_basis": []}')
    assert winding_vector(np.zeros(3), g).shape == (0,)
    assert winding_vector(np.zeros((4, 3)), g).shape == (4, 0)


def test_cohesive_checks():
    g = build_honeycomb(5, 1)
    assert is_phase_cohesive(np.zeros(5), g)
    assert is_phase_cohesive(construct_config([1], 5, 1), g)
    double = -np.arange(5.0) * 4 * np.pi / 5
    assert not is_phase_cohesive(double, g)


def test_solve_zero_winding_gives_synchrony():
    g = build_honeycomb(5, 2)
    eq = winding_constrained_solve(g, (0, 0))
    assert eq is not None
    assert eq.winding == (0, 0)
    assert canonical_distance(eq.theta, np.zeros(9)) < 1e-9
    assert classify_stability(eq.theta, g).kind == "stable"
    assert np.max(np.abs(rhs(eq.theta, g))) < 1e-9


def test_solve_out_of_bound_winding_is_absent():
    g = build_honeycomb(5, 1)
    assert winding_constrained_solve(g, (2,)) is None


def test_solve_hexagon_splay():
    g = build_hex_array(1, 1)
    eq = winding_constrained_solve(g, (1,))
    assert eq is not None and eq.cohesive
    d = wrap_angle(eq.theta[g.edge_tails] - eq.theta[g.edge_heads])
    np.testing.assert_allclose(np.abs(d), np.pi / 3, atol=1e-8)


def test_solve_matches_analytic_construction():
    g = build_honeycomb(5, 2)
    eq = winding_constrained_solve(g, (-1, 1))
    assert eq is not None
    assert canonical_distance(eq.theta, construct_config([-1, 1], 5, 2)) < 1e-7


def test_solve_needs_the_perturbed_retries(monkeypatch):
    # real equilibria that descent from the winding-spread start misses;
    # a perturbed retry finds them
    g = build_hex_array(3, 1)
    windings = [(1, 1, 1), (-1, -1, -1)]
    for w in windings:
        eq = winding_constrained_solve(g, w)
        assert eq is not None and eq.winding == w
        assert classify_stability(eq.theta, g).is_stable
    monkeypatch.setattr(equilibria, "SOLVER_RETRIES", 0)
    assert [winding_constrained_solve(g, w) for w in windings] == [None, None]


@pytest.mark.xfail(strict=True, reason=(
    "descent and its retries miss this stable, cohesive hex 3x3 equilibrium; "
    "ROADMAP item 2's loop-flow Newton solve finds it in 7 iterations"))
def test_solve_finds_the_hex_3x3_equilibrium_descent_misses():
    g = build_hex_array(3, 3)
    assert winding_constrained_solve(g, (1, 0, 0, 0, 0, -1, 1, 0, -1)) is not None


def test_enumerate_pentagon():
    g = build_honeycomb(5, 1)
    eqs = enumerate_exact(g)
    assert [e.winding for e in eqs] == [(-1,), (0,), (1,)]


def test_enumerate_5_2_count():
    assert len(enumerate_exact(build_honeycomb(5, 2))) == 9


def test_enumerate_square_2_2_only_synchrony():
    eqs = enumerate_exact(build_square_array(2, 2))
    assert len(eqs) == 1
    assert eqs[0].winding == (0, 0, 0, 0)
    assert canonical_distance(eqs[0].theta, np.zeros(9)) < 1e-9


@pytest.mark.parametrize("builder,params",
                         [b for b in ALL_BUILDERS if b != (build_hex_array, (2, 2))])
def test_enumerated_hits_pass_the_eigen_check(builder, params):
    # the solver accepts a hit on cohesion alone; the spectrum must agree,
    # and the written eigenvalue is the one the spectrum gives
    g = builder(*params)
    eqs = enumerate_exact(g)
    entries = json.loads(equilibria_to_json(g, eqs))["equilibria"]
    assert len(entries) == len(eqs) > 0
    for eq, entry in zip(eqs, entries):
        verdict = classify_stability(eq.theta, g)
        assert verdict.is_stable, eq.winding
        assert entry["eigen_max_nonzero"] == verdict.max_nonzero_eigenvalue()


def test_enumerate_budget_guard():
    g = build_honeycomb(5, 2)
    with pytest.raises(EnumerationBudgetError):
        enumerate_exact(g, budget=8)


def test_enumerate_parallel_matches_serial():
    g = build_honeycomb(5, 2)
    serial = enumerate_exact(g)
    parallel = enumerate_exact(g, jobs=2)
    assert [e.winding for e in serial] == [e.winding for e in parallel]
    for a, b in zip(serial, parallel):
        assert canonical_distance(a.theta, b.theta) < 1e-12


def test_equal_difference_within_each_ring():
    # consecutive path steps inside one ring agree at every equilibrium
    g = build_honeycomb(5, 2)
    for eq in enumerate_exact(g):
        for p, cyc in enumerate(g.cycle_basis):
            steps = [wrap_angle(eq.theta[cyc[t] - 1] - eq.theta[cyc[t + 1] - 1])
                     for t in range(len(cyc) - 1)]
            assert np.max(np.abs(np.diff(steps))) < 1e-6


def test_audit_finds_no_spurious_memories():
    g = build_honeycomb(5, 1)
    known = enumerate_exact(g)
    report = audit_spurious(g, known, trials=200, seed=3)
    assert report.trials == 200
    assert report.unmatched == 0
    assert report.non_converged == 0
    assert report.matched == 200
    assert set(report.match_counts) <= {(-1,), (0,), (1,)}


def test_audit_zero_trials_is_empty():
    g = build_honeycomb(5, 1)
    report = audit_spurious(g, [], trials=0, seed=0)
    assert report.trials == 0
    assert report.matched == 0
    assert report.unmatched == 0


def test_audit_flags_unknown_stable_limits():
    # withhold the splay states from `known`: they must surface as unmatched
    g = build_honeycomb(5, 1)
    known = [eq for eq in enumerate_exact(g) if eq.winding == (0,)]
    report = audit_spurious(g, known, trials=100, seed=3)
    assert len(report.unmatched_stable) > 0
    windings = {eq.winding for eq in report.unmatched_stable}
    assert windings <= {(-1,), (1,)}


def test_audit_does_not_match_a_non_cohesive_limit_by_winding(monkeypatch):
    # four edges at pi/3 and one at 2*pi/3: an unstable equilibrium that
    # carries the known winding (1,) without being the cohesive splay state
    g = build_honeycomb(5, 1)
    theta = -np.arange(5) * np.pi / 3
    assert np.max(np.abs(rhs(theta, g))) < 1e-12
    assert tuple(winding_vector(theta, g)) == (1,)
    assert not is_phase_cohesive(theta, g)
    assert not classify_stability(theta, g).is_stable

    def limits(states, *args, **kwargs):
        rows = len(states)
        return np.tile(theta, (rows, 1)), np.ones(rows, dtype=bool), np.zeros(rows), None

    monkeypatch.setattr(equilibria, "integrate_batch", limits)
    report = audit_spurious(g, enumerate_exact(g), trials=2, seed=0)
    assert report.matched == 0
    assert report.unmatched_other == 2
    assert report.unmatched_stable == []


def test_audit_parallel_matches_serial():
    g = build_honeycomb(5, 1)
    known = enumerate_exact(g)
    a = audit_spurious(g, known, trials=64, seed=9)
    b = audit_spurious(g, known, trials=64, seed=9, jobs=2)
    assert a.match_counts == b.match_counts
    assert a.non_converged == b.non_converged


def test_audit_chunked_matches_one_batch(monkeypatch):
    g = build_honeycomb(5, 2)
    known = enumerate_exact(g)
    batch_rows = []

    def spy(states, *args, **kwargs):
        batch_rows.append(len(states))
        return integrate_batch(states, *args, **kwargs)

    monkeypatch.setattr(equilibria, "integrate_batch", spy)
    chunked = audit_spurious(g, known, trials=300, seed=4)
    assert batch_rows == [150, 150]
    monkeypatch.setattr(equilibria, "AUDIT_CHUNK_ROWS", 300)
    whole = audit_spurious(g, known, trials=300, seed=4)
    assert batch_rows == [150, 150, 300]
    assert chunked.summary_lines() == whole.summary_lines()
    assert chunked.match_counts == whole.match_counts
    assert chunked.matched == 300


@pytest.mark.parametrize("params,trials", [((5, 2), 200), ((9, 3), 64)])
def test_audit_at_lock_dt_matches_the_trajectory_step(params, trials):
    g = build_honeycomb(*params)
    known = enumerate_exact(g)
    # the starts audit_spurious draws for seed 3
    states = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(trials, g.n))

    def windings(dt):
        finals, converged, _, _ = integrate_batch(states, g, dt=dt)
        assert converged.all()
        return [tuple(int(k) for k in winding_vector(th, g)) for th in finals]

    fine = windings(DEFAULT_DT)
    assert windings(lock_dt(g)) == fine
    report = audit_spurious(g, known, trials=trials, seed=3)
    assert report.unmatched == report.non_converged == 0
    assert report.match_counts == Counter(fine)


def test_degree_two_balance_at_stable_equilibria():
    # nodes with exactly two neighbors carry equal in/out steps, both
    # strictly inside (-pi/2, pi/2)
    for g in (build_honeycomb(5, 2), build_honeycomb_chain(5, 2)):
        deg = degrees(g)
        neighbors = {v: [] for v in range(1, g.n + 1)}
        for a, b in g.edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        for eq in enumerate_exact(g):
            for v in range(1, g.n + 1):
                if deg[v - 1] != 2:
                    continue
                j, k = neighbors[v]
                d_in = wrap_angle(eq.theta[v - 1] - eq.theta[j - 1])
                d_out = wrap_angle(eq.theta[k - 1] - eq.theta[v - 1])
                assert abs(d_in - d_out) < 1e-6
                assert abs(d_in) < np.pi / 2 and abs(d_out) < np.pi / 2


def test_chain_audit_limits_are_cohesive():
    g = build_honeycomb_chain(5, 2)
    known = enumerate_exact(g)
    report = audit_spurious(g, known, trials=100, seed=21)
    assert report.unmatched == 0
    for eq in known:
        assert eq.cohesive


def test_equilibria_json_shape():
    g = build_honeycomb(5, 1)
    eqs = enumerate_exact(g)
    payload = json.loads(equilibria_to_json(g, eqs))
    assert payload["graph"]["n"] == 5
    assert len(payload["equilibria"]) == 3
    entry = payload["equilibria"][1]
    assert entry["winding"] == [0]
    assert entry["cohesive"] is True
    assert entry["eigen_max_nonzero"] < 0
    assert len(entry["theta"]) == 5
