"""Kuramoto vector field, coupling energy, Jacobian and time integration.

The dynamics on a graph g are

    dtheta_i/dt = omega_i + c * sum_j sin(theta_j - theta_i)

summed over neighbors j of i. With equal natural frequencies this is a
gradient flow of the coupling energy, which is what every solver in this
package ultimately descends.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowUpError, NotAnEquilibriumError, ParameterDomainError
from .graphs import Graph

TWO_PI = 2.0 * np.pi

DEFAULT_DT = 0.01
DEFAULT_T_MAX = 1000.0
DEFAULT_CONV_TOL = 1e-9
DEFAULT_ZERO_TOL = 1e-7
MAX_RK4_STEPS = 10**8


def wrap_angle(x):
    """Wrap angles into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), TWO_PI)


def canonicalize(theta: np.ndarray) -> np.ndarray:
    """Canonical form of a phase state: gauge theta_1 = 0, wrap to (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    return wrap_angle(theta - theta[0])


def canonical_distance(a: np.ndarray, b: np.ndarray) -> float:
    """l-inf distance between two states modulo global rotation.

    The elementwise difference of the gauge-fixed states is wrapped again
    so that entries sitting on opposite sides of the +/-pi seam compare
    as close.
    """
    d = wrap_angle(canonicalize(a) - canonicalize(b))
    return float(np.max(np.abs(d)))


def _check_length(theta: np.ndarray, g: Graph, name: str = "theta") -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != g.n:
        raise ValueError(f"{name} has length {theta.shape[-1]}, graph has {g.n} nodes")
    return theta


def batch_edge_ends(g: Graph, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of each edge's tail and head in a (rows, n) batch, row
    after row, so the first k*E entries cover the first k rows."""
    offsets = (np.arange(rows) * g.n)[:, None]
    return (g.edge_tails + offsets).ravel(), (g.edge_heads + offsets).ravel()


def rhs(theta: np.ndarray, g: Graph, omega: np.ndarray | None = None,
        edge_ends: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Kuramoto velocity of every oscillator.

    Accepts a single state (n,) or a batch (m, n); the vectorized
    integrator passes edge_ends = batch_edge_ends(g, m) for the latter.
    """
    theta = _check_length(theta, g)
    tails, heads = edge_ends or ((g.edge_tails, g.edge_heads) if theta.ndim == 1
                                 else batch_edge_ends(g, theta.size // g.n))
    flat = theta.ravel()
    s = g.coupling * np.sin(flat[heads] - flat[tails])
    out = np.bincount(tails, s, flat.size) - np.bincount(heads, s, flat.size)
    out = out.reshape(theta.shape)
    if omega is not None:
        omega = _check_length(omega, g, "omega")
        out = out + omega
    return out


def energy(theta: np.ndarray, g: Graph) -> float:
    """Coupling energy -c * sum over edges of cos(theta_a - theta_b).

    The zero-frequency dynamics descend this function; it is invariant
    under a global rotation of all phases.
    """
    theta = _check_length(theta, g)
    return float(-g.coupling * np.sum(np.cos(theta[g.edge_tails] - theta[g.edge_heads])))


def jacobian(theta: np.ndarray, g: Graph) -> np.ndarray:
    """Jacobian of the velocity field at theta.

    Equals -B diag(c*cos(theta_a - theta_b)) B^T for the oriented
    incidence B; symmetric with zero row sums.
    """
    theta = _check_length(theta, g)
    w = g.coupling * np.cos(theta[g.edge_tails] - theta[g.edge_heads])
    J = np.zeros((g.n, g.n))
    ti, hi = g.edge_tails, g.edge_heads
    np.add.at(J, (ti, hi), w)
    np.add.at(J, (hi, ti), w)
    np.add.at(J, (ti, ti), -w)
    np.add.at(J, (hi, hi), -w)
    return J


@dataclass(frozen=True)
class StabilityVerdict:
    """Spectral verdict at an equilibrium.

    kind is 'stable' when exactly one eigenvalue lies in the zero band
    [-zero_tol, zero_tol] (the rotation mode) and all others are below
    -zero_tol; 'unstable' when any eigenvalue exceeds +zero_tol;
    'marginal' otherwise.
    """

    kind: str
    eigenvalues: tuple[float, ...]
    zero_tol: float

    @property
    def is_stable(self) -> bool:
        return self.kind == "stable"

    def max_nonzero_eigenvalue(self) -> float:
        """Largest eigenvalue once the single rotation mode is removed."""
        ev = list(self.eigenvalues)
        ev.pop(int(np.argmin(np.abs(ev))))
        return max(ev)


def classify_stability(theta: np.ndarray, g: Graph,
                       residual_tol: float = 1e-6) -> StabilityVerdict:
    """Classify an (approximate) equilibrium by the Jacobian spectrum.

    Raises NotAnEquilibriumError when the velocity residual exceeds
    residual_tol, since the spectrum is only meaningful at a stationary
    point.
    """
    theta = _check_length(theta, g)
    residual = float(np.max(np.abs(rhs(theta, g))))
    if residual > residual_tol:
        raise NotAnEquilibriumError(
            f"|rhs|_inf = {residual:.3e} exceeds tolerance {residual_tol:.3e}")
    ev = np.sort(np.linalg.eigvalsh(jacobian(theta, g)))
    in_band = int(np.sum(np.abs(ev) <= DEFAULT_ZERO_TOL))
    if np.any(ev > DEFAULT_ZERO_TOL):
        kind = "unstable"
    elif in_band == 1:
        kind = "stable"
    else:
        kind = "marginal"
    return StabilityVerdict(kind=kind, eigenvalues=tuple(float(x) for x in ev),
                            zero_tol=DEFAULT_ZERO_TOL)


def lock_dt(g: Graph) -> float:
    """RK4 step for relaxing to a phase lock: 1 / (2 c lambda_max(L)).

    L is the graph Laplacian. Since |cos| <= 1, every eigenvalue of the
    Jacobian, at any state, obeys |lambda| <= c lambda_max(L), and
    synchrony attains it (J = -c L there). So |lambda dt| <= 0.5, well
    inside the RK4 stability interval. Callers that only want the locked
    state use it; trajectories keep DEFAULT_DT.
    """
    return float(0.5 / -np.linalg.eigvalsh(jacobian(np.zeros(g.n), g))[0])


@dataclass
class IntegrationResult:
    theta: np.ndarray          # final state, canonical form
    converged: bool
    t_elapsed: float
    trajectory: list[tuple[float, np.ndarray]] | None = None


def integrate(theta0: np.ndarray, g: Graph, omega: np.ndarray | None = None,
              dt: float = DEFAULT_DT, t_max: float = DEFAULT_T_MAX,
              conv_tol: float = DEFAULT_CONV_TOL,
              record_stride: int | None = None) -> IntegrationResult:
    """Fixed-step classical RK4 integration of one state until phase
    locking: the one-row case of integrate_batch."""
    final, converged, t_elapsed, trajectory = integrate_batch(
        _check_length(theta0, g)[None], g, omega, dt, t_max, conv_tol, record_stride)
    return IntegrationResult(theta=final[0], converged=bool(converged[0]),
                             t_elapsed=float(t_elapsed[0]), trajectory=trajectory)


def integrate_batch(thetas: np.ndarray, g: Graph, omega: np.ndarray | None = None,
                    dt: float = DEFAULT_DT, t_max: float = DEFAULT_T_MAX,
                    conv_tol: float = DEFAULT_CONV_TOL, record_stride: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list | None]:
    """Fixed-step classical RK4 integration of many states until each locks.

    Runs in the frame co-rotating at the mean natural frequency, so a
    phase-locked row registers as |rhs|_inf < conv_tol. Every step checks
    that on the stage already computed and drops locked rows. A one-row
    batch may pass record_stride to collect every stride-th raw state (plus
    the final one) as (t, theta) pairs. Returns (final canonical states,
    converged flags, elapsed times, trajectory or None).
    """
    if not (0 < dt < np.inf and 0 < t_max < np.inf and t_max / dt <= MAX_RK4_STEPS):
        raise ParameterDomainError(
            f"dt and t_max must be finite and > 0 with ceil(t_max/dt) <= "
            f"{MAX_RK4_STEPS:.0e} steps, got {dt}, {t_max}")
    if not 0 < conv_tol < np.inf:
        raise ParameterDomainError(f"conv_tol must be finite and > 0, got {conv_tol}")
    th = _check_length(np.atleast_2d(thetas), g).copy()
    m = th.shape[0]
    if record_stride is not None and record_stride < 1:
        raise ParameterDomainError(f"record_stride must be >= 1, got {record_stride}")
    if record_stride is not None and m != 1:
        raise ParameterDomainError(f"record_stride needs a one-row batch, got {m} rows")
    if omega is not None:
        omega = np.asarray(omega, dtype=float) - float(np.mean(omega))
    final = np.empty_like(th)
    converged = np.zeros(m, dtype=bool)
    t_elapsed = np.zeros(m)
    active = np.arange(m)
    all_ends = rows_ends = batch_edge_ends(g, m)
    trajectory = [] if record_stride else None
    steps = int(np.ceil(t_max / dt))
    t = 0.0
    for step in range(steps + 1):
        k1 = rhs(th, g, omega, rows_ends)
        if trajectory is not None and step % record_stride == 0:
            trajectory.append((t, th[0].copy()))
        done = (np.abs(k1) < conv_tol).all(axis=1)
        if done.any():
            idx = active[done]
            final[idx] = th[done]
            converged[idx] = True
            t_elapsed[idx] = t
            keep = ~done
            th, k1, active = th[keep], k1[keep], active[keep]
            if active.size == 0:
                break
            rows_ends = tuple(a[:active.size * len(g.edges)] for a in all_ends)
        if step == steps:
            break
        k2 = rhs(th + 0.5 * dt * k1, g, omega, rows_ends)
        k3 = rhs(th + 0.5 * dt * k2, g, omega, rows_ends)
        k4 = rhs(th + dt * k3, g, omega, rows_ends)
        th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(th)):
            raise IntegrationBlowUpError(f"non-finite state at t = {t:.6g}")
        t += dt
    if active.size:
        final[active] = th
        t_elapsed[active] = t
    if trajectory is not None and trajectory[-1][0] != t:
        trajectory.append((t, final[0].copy()))
    final = wrap_angle(final - final[:, :1])
    return final, converged, t_elapsed, trajectory
