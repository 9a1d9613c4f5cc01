import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramem import (NotAnEquilibriumError, ParameterDomainError, build_honeycomb,
                     build_hex_array, build_square_array, canonicalize,
                     classify_stability, construct_config, degrees, energy,
                     integrate, is_phase_cohesive, jacobian, lock_dt, rhs,
                     winding_box, winding_constrained_solve, winding_vector, wrap_angle)
from kuramem import dynamics
from kuramem.dynamics import (DEFAULT_DT, DEFAULT_T_MAX, DEFAULT_ZERO_TOL, MAX_RK4_STEPS,
                              SETTLED_RESIDUAL_TOL, integrate_batch)
from kuramem.equilibria import _spread_initial
from test_graphs import ALL_BUILDERS, canonical_distance, oriented_incidence

FD_STEP = 1e-6


def fd_gradient(f, x, h=FD_STEP):
    """Central-difference gradient, the independent check on rhs."""
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def fd_jacobian(f, x, h=FD_STEP):
    cols = []
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def test_wrap_angle_range_and_seam():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.0) == 0.0
    xs = np.linspace(-20, 20, 4001)
    w = wrap_angle(xs)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    np.testing.assert_allclose(np.cos(w), np.cos(xs), atol=1e-12)
    np.testing.assert_allclose(np.sin(w), np.sin(xs), atol=1e-12)


def test_canonicalize_gauges_first_phase():
    theta = np.array([0.3, 1.0, -2.0])
    c = canonicalize(theta)
    assert c[0] == 0.0
    np.testing.assert_allclose(c, [0.0, 0.7, -2.3], atol=1e-12)


def test_rhs_zero_at_synchrony():
    g = build_honeycomb(5, 2)
    np.testing.assert_allclose(rhs(np.full(g.n, 0.7), g), 0.0, atol=1e-15)


def test_rhs_zero_at_pentagon_splay():
    g = build_honeycomb(5, 1)
    theta = construct_config([1], 5, 1)
    np.testing.assert_allclose(rhs(theta, g), 0.0, atol=1e-14)


def test_rhs_rejects_length_mismatch():
    g = build_honeycomb(5, 1)
    with pytest.raises(ValueError):
        rhs(np.zeros(4), g)
    with pytest.raises(ValueError):
        rhs(np.zeros(5), g, omega=np.zeros(3))


def test_rhs_is_minus_energy_gradient_on_square():
    g = build_square_array(1, 1)
    rng = np.random.default_rng(0)
    theta = rng.uniform(-np.pi, np.pi, g.n)
    grad = fd_gradient(lambda x: energy(x, g), theta)
    np.testing.assert_allclose(rhs(theta, g), -grad, atol=1e-6)


@pytest.mark.parametrize("builder,params", ALL_BUILDERS)
def test_rhs_matches_dense_incidence_product(builder, params):
    # reference: rhs = omega - c * B sin(B^T theta), row by row for a batch
    g = builder(*params, coupling=1.5)
    B = oriented_incidence(g)
    rng = np.random.default_rng(len(g.edges))
    theta = rng.uniform(-np.pi, np.pi, g.n)
    batch = rng.uniform(-np.pi, np.pi, (7, g.n))
    omega = rng.normal(size=g.n)
    dense = -1.5 * B @ np.sin(B.T @ theta)
    np.testing.assert_allclose(rhs(theta, g), dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rhs(batch, g), -1.5 * np.sin(batch @ B) @ B.T,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(rhs(theta, g, omega), dense + omega,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("builder,params,seed", [
    (build_honeycomb, (5, 2), 1),
    (build_honeycomb, (6, 3), 2),
    (build_hex_array, (1, 2), 3),
    (build_square_array, (2, 2), 4),
])
def test_gradient_flow_identity(builder, params, seed):
    g = builder(*params)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, g.n)
        grad = fd_gradient(lambda x: energy(x, g), theta)
        assert np.max(np.abs(rhs(theta, g) + grad)) < 1e-6


def test_energy_at_synchrony_and_splay():
    g = build_honeycomb(5, 2)
    assert energy(np.zeros(g.n), g) == pytest.approx(-len(g.edges))
    g1 = build_honeycomb(5, 1)
    theta = construct_config([1], 5, 1)
    assert energy(theta, g1) == pytest.approx(-5 * np.cos(2 * np.pi / 5))


def test_energy_coupling_scale():
    g = build_honeycomb(5, 1, coupling=2.5)
    assert energy(np.zeros(g.n), g) == pytest.approx(-2.5 * 5)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-10, 10), seed=st.integers(0, 10_000))
def test_rotation_invariance(alpha, seed):
    g = build_honeycomb(6, 2)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, g.n)
    shifted = theta + alpha
    assert energy(shifted, g) == pytest.approx(energy(theta, g), abs=1e-9)
    np.testing.assert_allclose(rhs(shifted, g), rhs(theta, g), atol=1e-9)


def test_jacobian_at_synchrony_is_minus_laplacian():
    g = build_honeycomb(5, 1, coupling=1.5)
    J = jacobian(np.zeros(g.n), g)
    B = oriented_incidence(g)
    L = B @ B.T
    np.testing.assert_allclose(J, -1.5 * L, atol=1e-12)


def test_jacobian_symmetric_with_zero_row_sums():
    g = build_hex_array(2, 1)
    rng = np.random.default_rng(5)
    theta = rng.uniform(-np.pi, np.pi, g.n)
    J = jacobian(theta, g)
    np.testing.assert_allclose(J, J.T, atol=1e-12)
    np.testing.assert_allclose(J @ np.ones(g.n), 0.0, atol=1e-12)


def test_jacobian_matches_finite_differences():
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(6)
    theta = rng.uniform(-np.pi, np.pi, g.n)
    J_fd = fd_jacobian(lambda x: rhs(x, g), theta)
    np.testing.assert_allclose(jacobian(theta, g), J_fd, atol=1e-5)


def test_classify_synchrony_stable_one_zero_mode():
    g = build_honeycomb(5, 1)
    v = classify_stability(np.zeros(g.n), g)
    assert v.kind == "stable"
    ev = np.array(v.eigenvalues)
    assert np.sum(np.abs(ev) <= DEFAULT_ZERO_TOL) == 1
    assert np.all(ev[:-1] < -DEFAULT_ZERO_TOL)


def test_classify_splay_stable():
    g = build_honeycomb(5, 1)
    v = classify_stability(construct_config([1], 5, 1), g)
    assert v.kind == "stable"


def test_classify_double_winding_unstable():
    # equal steps of 4pi/5 around a pentagon: stationary but cos < 0
    g = build_honeycomb(5, 1)
    theta = canonicalize(-np.arange(5.0) * 4 * np.pi / 5)
    assert np.max(np.abs(rhs(theta, g))) < 1e-12
    v = classify_stability(theta, g)
    assert v.kind == "unstable"


def test_classify_rejects_non_equilibrium():
    g = build_honeycomb(5, 1)
    rng = np.random.default_rng(7)
    with pytest.raises(NotAnEquilibriumError):
        classify_stability(rng.uniform(-np.pi, np.pi, g.n), g)


def test_classify_refuses_a_state_that_is_not_settled():
    # the splay state with one phase moved by 1e-7 is nearly stationary,
    # but above SETTLED_RESIDUAL_TOL, which is what stationary means
    g = build_honeycomb(5, 1)
    theta = construct_config([1], 5, 1)
    theta[2] += 1e-7    # theta_3
    assert SETTLED_RESIDUAL_TOL < np.max(np.abs(rhs(theta, g))) < 1e-7
    with pytest.raises(NotAnEquilibriumError):
        classify_stability(theta, g)


def test_integrate_fixed_point_returns_immediately():
    g = build_honeycomb(5, 2)
    theta = construct_config([1, -1], 5, 2)
    res = integrate(theta, g)
    assert res.converged
    assert res.t_elapsed == 0.0
    np.testing.assert_array_equal(res.theta, theta)


def test_integrate_recovers_splay_from_noise():
    g = build_honeycomb(5, 1)
    splay = construct_config([1], 5, 1)
    rng = np.random.default_rng(11)
    res = integrate(splay + rng.uniform(-0.05, 0.05, g.n), g)
    assert res.converged
    assert canonical_distance(res.theta, splay) < 1e-6


def test_integrate_rejects_bad_steps():
    g = build_honeycomb(5, 1)
    with pytest.raises(ValueError):
        integrate(np.zeros(g.n), g, dt=0.0)
    with pytest.raises(ValueError):
        integrate(np.zeros(g.n), g, t_max=-1.0)
    with pytest.raises(ValueError):    # finite dt and t_max, but the step count overflows
        integrate(np.zeros(g.n), g, dt=1e-300, t_max=1e10)
    with pytest.raises(ValueError):    # finite step count, but far too many steps
        integrate(np.zeros(g.n), g, dt=1e-300, t_max=1.0)
    # exactly MAX_RK4_STEPS steps are allowed (synchrony locks at step 0),
    # one ulp more time is not
    dt = 2.0 ** -20
    assert integrate(np.zeros(g.n), g, dt=dt, t_max=MAX_RK4_STEPS * dt).converged
    with pytest.raises(ParameterDomainError):
        integrate(np.zeros(g.n), g, dt=dt, t_max=np.nextafter(MAX_RK4_STEPS * dt, np.inf))


@pytest.mark.parametrize("builder,params", ALL_BUILDERS)
def test_lock_dt_respects_the_spectral_bound(builder, params):
    g = builder(*params, coupling=1.5)
    rng = np.random.default_rng(31)
    states = [np.zeros(g.n)] + [rng.uniform(-np.pi, np.pi, g.n) for _ in range(5)]
    dt = lock_dt(g)
    tops = [np.max(np.abs(np.linalg.eigvalsh(jacobian(theta, g)))) for theta in states]
    assert max(tops) * dt <= 0.5 + 1e-12
    # synchrony attains the bound on every graph (J = -c L there), up to the
    # eigensolver's round-off; the step is never below the Gershgorin one
    assert tops[0] * dt == pytest.approx(0.5, abs=1e-12)
    assert dt >= 1 / (4 * g.coupling * max(degrees(g)))


def test_integrate_reports_non_convergence():
    g = build_honeycomb(5, 1)
    rng = np.random.default_rng(13)
    res = integrate(rng.uniform(-np.pi, np.pi, g.n), g, t_max=0.05)
    assert not res.converged
    assert res.t_elapsed == pytest.approx(0.05, abs=1e-12)


def test_identical_frequencies_lock_like_zero_frequencies():
    g = build_honeycomb(5, 1)
    rng = np.random.default_rng(17)
    theta0 = rng.uniform(-np.pi, np.pi, g.n)
    res0 = integrate(theta0, g)
    res1 = integrate(theta0, g, omega=np.full(g.n, 2.0))
    assert res1.converged
    assert canonical_distance(res0.theta, res1.theta) < 1e-6


def test_energy_non_increasing_along_trajectory():
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(19)
    theta0 = rng.uniform(-np.pi, np.pi, g.n)
    dt = 0.01
    res = integrate(theta0, g, dt=dt, t_max=20.0, record_stride=1)
    energies = [energy(th, g) for _, th in res.trajectory]
    diffs = np.diff(energies)
    assert np.all(diffs <= 10 * dt * dt)


def test_trajectory_recording_stride():
    g = build_honeycomb(5, 1)
    rng = np.random.default_rng(23)
    res = integrate(rng.uniform(-np.pi, np.pi, g.n), g, dt=0.01, t_max=0.5,
                    record_stride=10)
    times = [t for t, _ in res.trajectory]
    assert times[0] == 0.0
    np.testing.assert_allclose(np.diff(times)[:-1], 0.1, atol=1e-12)
    assert times[-1] == pytest.approx(res.t_elapsed)


def test_elapsed_and_recorded_times_are_step_counts_times_dt():
    # t is the step index times dt, not a running sum that drifts an ulp a step
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(23)
    dt, stride = 0.01, 10
    res = integrate(rng.uniform(-np.pi, np.pi, g.n), g, dt=dt, t_max=1.0,
                    record_stride=stride)
    assert not res.converged
    assert res.t_elapsed == int(np.ceil(1.0 / dt)) * dt == 1.0
    times = [t for t, _ in res.trajectory]
    assert times == [k * stride * dt for k in range(len(times))]
    assert len(times) == 11


def test_batch_integration_matches_single():
    g = build_honeycomb(5, 2)
    rng = np.random.default_rng(29)
    starts = rng.uniform(-np.pi, np.pi, (8, g.n))
    for omega in (None, rng.normal(0.0, 0.1, g.n)):
        finals, converged, t_elapsed, trajectory = integrate_batch(starts, g, omega)
        assert converged.all() and trajectory is None
        for i in range(8):
            single = integrate(starts[i], g, omega)
            assert single.converged
            np.testing.assert_array_equal(finals[i], single.theta)
            assert t_elapsed[i] == single.t_elapsed
    with pytest.raises(ParameterDomainError):
        integrate_batch(starts, g, record_stride=1)    # trajectories are for one row


def proven_only(starts, g, **kwargs):
    """integrate_batch(..., certify=True) with a lock tolerance only an
    exactly zero rhs gets below, so any other row stops only when
    certified. The integrator reads DEFAULT_CONV_TOL when it runs."""
    with mock.patch.object(dynamics, "DEFAULT_CONV_TOL", 1e-300):
        return integrate_batch(starts, g, certify=True, **kwargs)


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(ALL_BUILDERS), noise=st.sampled_from([0.1, 0.5, 1.0, np.pi]),
       seed=st.integers(0, 2**32 - 1))
def test_a_certified_row_is_cohesive_and_keeps_the_locked_winding(case, noise, seed):
    # row 0 is the stable equilibrium of a random box winding (synchrony
    # when that winding has none), the others start around it;
    # a certified row must carry the winding that relaxing the same start
    # to a lock reaches, at lock_dt and at the trajectory step
    builder, params = case
    g = builder(*params)
    rng = np.random.default_rng(seed)
    eq = winding_constrained_solve(g, [rng.integers(r.start, r.stop) for r in winding_box(g)])
    base = np.zeros(g.n) if eq is None else eq.theta
    starts = np.vstack([base, base + rng.uniform(-noise, noise, (2, g.n))])
    dt = lock_dt(g)
    final, proven, t, _ = proven_only(starts, g, dt=dt, t_max=100.0)
    assert proven[0] and t[0] == 0.0
    edge_max = np.abs(wrap_angle(starts[:, g.edge_tails] - starts[:, g.edge_heads])).max(axis=1)
    assert not (proven & (t == 0.0) & (edge_max >= np.pi / 2)).any()
    assert all(is_phase_cohesive(theta, g) for theta in final[proven])
    for step in (dt, DEFAULT_DT):
        locked, ok, _, _ = integrate_batch(starts[proven], g, dt=step)
        np.testing.assert_array_equal(winding_vector(final[proven][ok], g),
                                      winding_vector(locked[ok], g))


def test_the_certificate_is_the_stated_rule():
    # reference: m = pi/2 - max |wrap(dtheta)| > 0 and
    # 6 sqrt(2) |rhs|_2 < m c sin(m/2) lambda_2, lambda_2 from the dense
    # Laplacian; synchrony pushed along the Fiedler vector crosses the
    # boundary as the push grows
    g = build_honeycomb(5, 2, coupling=1.5)
    B = oriented_incidence(g)
    ev, vecs = np.linalg.eigh(B @ B.T)

    def rule(theta):
        m = np.pi / 2 - np.abs(wrap_angle(B.T @ theta)).max()
        return bool(m > 0 and 6 * np.sqrt(2) * np.linalg.norm(rhs(theta, g))
                    < m * 1.5 * np.sin(m / 2) * ev[1])

    states = [eps * vecs[:, 1] for eps in np.geomspace(0.05, 1.5, 60)]
    expected = [rule(theta) for theta in states]
    assert True in expected and False in expected
    _, proven, t, _ = proven_only(np.array(states), g, dt=lock_dt(g), t_max=lock_dt(g))
    assert list(proven & (t == 0.0)) == expected


def test_a_cohesive_start_without_an_equilibrium_certifies_the_winding_it_reaches():
    # on hex 2x2 the spread start of some windings is cohesive though no
    # equilibrium carries that winding: the flow leaves it for another
    g = build_hex_array(2, 2)
    starts = np.array([_spread_initial(g, w) for w in itertools.product(*winding_box(g))])
    starts = starts[[is_phase_cohesive(theta, g) for theta in starts]]
    dt = lock_dt(g)
    final, proven, _, _ = proven_only(starts, g, dt=dt)
    locked, ok, _, _ = integrate_batch(starts, g, dt=dt)
    assert proven.all() and ok.all()
    assert (winding_vector(starts, g) != winding_vector(locked, g)).any(axis=1).sum() >= 5
    np.testing.assert_array_equal(winding_vector(final, g), winding_vector(locked, g))


@pytest.mark.parametrize("nc,k", [(5, 2), (6, 2), (9, 3), (9, 4)])
def test_a_non_cohesive_equilibrium_never_certifies(nc, k):
    # a ring twisted past its winding bound is stationary to round-off with
    # every edge at 2*pi*k/nc >= pi/2; a tiny rhs alone must not certify it
    g = build_honeycomb(nc, 1)
    twisted = -np.arange(nc) * 2 * np.pi * k / nc
    mixed = -np.arange(5) * np.pi / 3    # four edges at pi/3, one at 2*pi/3
    for theta, graph in ((twisted, g), (mixed, build_honeycomb(5, 1))):
        r = np.abs(rhs(theta, graph)).max()
        assert 0 < r < 1e-14
        _, proven, _, _ = proven_only(theta[None], graph, dt=lock_dt(graph),
                                      t_max=lock_dt(graph))
        assert not proven[0]


def test_the_certificate_proves_slow_memories_the_lock_test_misses():
    # hex 1x3's (1,1,1) equilibrium is barely stable: from +-0.1 noise most
    # rows still creep when t_max runs out, yet each one's limit is proven
    g = build_hex_array(1, 3)
    eq = winding_constrained_solve(g, (1, 1, 1))
    starts = eq.theta + np.random.default_rng(3).uniform(-0.1, 0.1, (40, g.n))
    dt = lock_dt(g)
    _, locked, _, _ = integrate_batch(starts, g, dt=dt, t_max=DEFAULT_T_MAX)
    assert locked.sum() == 13
    final, proven, t, _ = proven_only(starts, g, dt=dt, t_max=DEFAULT_T_MAX)
    assert proven.all() and t.max() <= 658
    windings = winding_vector(final, g)
    assert [tuple(w) for w in windings.tolist()].count((1, 1, 1)) == 28
    late = np.flatnonzero(~locked)[:3]
    limits, ok, _, _ = integrate_batch(starts[late], g, dt=dt, t_max=20 * DEFAULT_T_MAX)
    assert ok.all()
    np.testing.assert_array_equal(winding_vector(limits, g), windings[late])
