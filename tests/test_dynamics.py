import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramem import (NotAnEquilibriumError, ParameterDomainError, build_honeycomb,
                     build_hex_array, build_square_array, canonical_distance,
                     canonicalize, classify_stability, construct_config, degrees,
                     energy, integrate, jacobian, lock_dt, rhs, wrap_angle)
from kuramem.dynamics import MAX_RK4_STEPS, integrate_batch
from test_graphs import ALL_BUILDERS, oriented_incidence

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


def test_canonical_distance_handles_the_pi_seam():
    # third phase sits on opposite sides of +/-pi in the two states
    a = np.array([0.0, 1.0, np.pi - 1e-9])
    b = np.array([0.0, 1.0, -np.pi + 1e-9])
    assert canonical_distance(a, b) < 1e-8
    assert canonical_distance(a, a + 0.37) < 1e-12  # rotation quotient


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
    assert np.sum(np.abs(ev) <= v.zero_tol) == 1
    assert np.all(ev[:-1] < -v.zero_tol)


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
                    conv_tol=1e-15, record_stride=10)
    times = [t for t, _ in res.trajectory]
    assert times[0] == 0.0
    np.testing.assert_allclose(np.diff(times)[:-1], 0.1, atol=1e-12)
    assert times[-1] == pytest.approx(res.t_elapsed)


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
