"""Stable phase-locked configurations: construction, winding numbers,
exhaustive enumeration and spurious-memory auditing.

Every phase-cohesive equilibrium is identified by its winding vector, the
integer cycle sums of wrapped phase differences over the graph's cycle
basis. The sign convention is fixed once and for all here: traversing a
basis cycle in stored order accumulates wrap(theta_current - theta_next),
which makes the analytic honeycomb construction round-trip exactly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import jsonutil
from .dynamics import (DEFAULT_CONV_TOL, canonicalize, classify_stability,
                       energy, integrate_batch, lock_dt, rhs, wrap_angle)
from .errors import NonIntegerWindingError, ParameterDomainError, EnumerationBudgetError
from .graphs import Graph, graph_payload

TWO_PI = 2.0 * np.pi

COHESIVE_MARGIN = 1e-12
WINDING_INT_TOL = 1e-6
AUDIT_CHUNK_ROWS = 256
SOLVER_RETRIES = 5
PERTURB_AMPLITUDE = 0.1
ENUMERATION_BUDGET = 10_000_000

# Backtracking line search on the coupling energy.
DESCENT_STEP0 = 0.1
DESCENT_SHRINK = 0.5
DESCENT_ARMIJO = 1e-4
DESCENT_MAX_ITERS = 20_000


@dataclass(frozen=True)
class Equilibrium:
    """A verified stable, phase-cohesive equilibrium."""

    theta: np.ndarray                 # canonical form
    winding: tuple[int, ...]
    cohesive: bool


def max_winding(cycle_len: int) -> int:
    """Largest winding number a cohesive state can carry on a cycle of
    the given length: ceil(len/4) - 1."""
    return math.ceil(cycle_len / 4) - 1


def winding_box(g: Graph) -> list[range]:
    """Admissible winding range per basis cycle."""
    return [range(-max_winding(len(c)), max_winding(len(c)) + 1)
            for c in g.cycle_basis]


def winding_box_size(g: Graph) -> int:
    size = 1
    for r in winding_box(g):
        size *= len(r)
    return size


def is_phase_cohesive(theta: np.ndarray, g: Graph) -> bool:
    """True when every edge's wrapped phase difference is strictly inside
    (-pi/2, pi/2)."""
    theta = np.asarray(theta, dtype=float)
    d = wrap_angle(theta[g.edge_tails] - theta[g.edge_heads])
    return bool(np.max(np.abs(d)) < np.pi / 2 - COHESIVE_MARGIN)


def winding_vector(theta: np.ndarray, g: Graph) -> np.ndarray:
    """Integer winding numbers around the basis cycles of one state (n,),
    or of each row of a batch (B, n): the wrapped edge differences
    theta_low - theta_high summed with the signs of g.cycle_signs, over
    2*pi. A difference of exactly +-pi counts once, in its edge's own
    orientation. A sum off an integer by WINDING_INT_TOL or more raises
    NonIntegerWindingError rather than returning a rounded lie.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    d = wrap_angle(theta[..., g.edge_tails] - theta[..., g.edge_heads])
    raw = d @ g.cycle_signs.T / TWO_PI
    w = np.rint(raw)
    off = np.abs(raw - w) >= WINDING_INT_TOL
    if off.any():
        raise NonIntegerWindingError(f"winding {float(raw[off][0])!r} is not an integer")
    return w.astype(int)


def construct_config(winding, cycle_size: int, cycles: int) -> np.ndarray:
    """Analytic equilibrium of the honeycomb chain for a winding vector.

    Within ring p the consecutive path nodes step down by
    2*pi*winding[p]/cycle_size, starting from theta_1 = 0. The result is
    an exact, locally stable equilibrium whenever every entry obeys the
    winding bound.
    """
    winding = [int(k) for k in winding]
    if len(winding) != cycles:
        raise ParameterDomainError(
            f"winding vector has {len(winding)} entries, expected {cycles}")
    bound = max_winding(cycle_size)
    for p, k in enumerate(winding):
        if abs(k) > bound:
            raise ParameterDomainError(
                f"winding[{p}] = {k} outside |k| <= {bound} for cycle size {cycle_size}")
    n = cycles * (cycle_size - 1) + 1
    theta = np.zeros(n)
    pos = 0
    for k in winding:
        step = TWO_PI * k / cycle_size
        for _ in range(cycle_size - 1):
            theta[pos + 1] = theta[pos] - step
            pos += 1
    return canonicalize(theta)


def _spread_initial(g: Graph, winding) -> np.ndarray:
    """Initial guess that already carries the requested winding vector.

    A minimum-norm edge-difference field gamma with the prescribed cycle
    sums 2*pi*w spreads each winding uniformly around its cycle; the
    field is then integrated down the graph's BFS tree from node 1.
    """
    target = TWO_PI * np.asarray(winding, dtype=float)
    gamma, *_ = np.linalg.lstsq(g.cycle_signs, target, rcond=None)
    theta = np.zeros(g.n)
    for u, v, e in g.bfs_tree.tolist():
        # gamma[e] models theta_low - theta_high for edge e
        theta[v - 1] = theta[u - 1] - gamma[e] if u < v else theta[u - 1] + gamma[e]
    return theta


def _descend(theta: np.ndarray, g: Graph) -> tuple[np.ndarray, bool]:
    """Drive theta to a critical point of the coupling energy.

    Backtracking gradient descent (the velocity field is minus the energy
    gradient). The Armijo test carries a machine-noise floor, otherwise
    the line search dead-locks once true energy decrease falls below
    float resolution, well before |rhs| reaches DEFAULT_CONV_TOL. Returns
    the final state and whether |rhs| got below DEFAULT_CONV_TOL.
    """
    th = np.asarray(theta, dtype=float).copy()
    f = energy(th, g)
    noise = 64.0 * np.finfo(float).eps * (abs(f) + 1.0)
    for _ in range(DESCENT_MAX_ITERS):
        r = rhs(th, g)
        if float(np.max(np.abs(r))) < DEFAULT_CONV_TOL:
            return th, True
        gn2 = float(r @ r)
        t = DESCENT_STEP0
        moved = False
        while t > 1e-14:
            cand = th + t * r
            fc = energy(cand, g)
            if fc <= f - DESCENT_ARMIJO * t * gn2 + noise:
                th, f, moved = cand, fc, True
                break
            t *= DESCENT_SHRINK
        if not moved:
            break
    return th, float(np.max(np.abs(rhs(th, g)))) < DEFAULT_CONV_TOL


def _kick(winding, attempt: int, n: int) -> np.ndarray:
    """Uniform perturbation of a retry's start, deterministic per
    (winding, attempt) and independent of call order."""
    entropy = [attempt] + [int(k) + (1 << 20) for k in winding]
    return np.random.default_rng(np.random.SeedSequence(entropy)).uniform(
        -PERTURB_AMPLITUDE, PERTURB_AMPLITUDE, n)


def winding_constrained_solve(g: Graph, winding) -> Equilibrium | None:
    """Find the stable cohesive equilibrium carrying a winding vector,
    or None when the graph exhibits no such state.

    The winding-spread initial guess is descended to a critical point and
    the result only counts when it is (a) converged, (b) phase-cohesive
    and (c) still carries the requested winding. Cohesion makes it
    stable: every cos(dtheta) > 0, so the Jacobian is a negative weighted
    Laplacian (Dorfler & Bullo 2014). Failed attempts restart from
    perturbed copies of the initial guess; exhausting the retries means
    "not exhibited", not an error.
    """
    winding = tuple(int(k) for k in winding)
    if len(winding) != len(g.cycle_basis):
        raise ParameterDomainError(
            f"winding vector has {len(winding)} entries, graph has "
            f"{len(g.cycle_basis)} basis cycles")
    for k, cyc in zip(winding, g.cycle_basis):
        if abs(k) > max_winding(len(cyc)):
            return None

    base = _spread_initial(g, winding)
    for attempt in range(SOLVER_RETRIES + 1):
        theta, ok = _descend(base + _kick(winding, attempt, g.n) if attempt else base, g)
        if not ok:
            continue
        theta = canonicalize(theta)
        if not is_phase_cohesive(theta, g):
            continue
        if tuple(winding_vector(theta, g)) != winding:
            continue
        return Equilibrium(theta=theta, winding=winding, cohesive=True)
    return None


def _map(fn, items: list, jobs: int) -> list:
    """[fn(x) for x in items], spread over `jobs` worker processes when
    jobs > 1. Results come back in input order either way."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor   # here: loads multiprocessing
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


def enumerate_exact(g: Graph, budget: int = ENUMERATION_BUDGET,
                    jobs: int = 1) -> list[Equilibrium]:
    """All stable phase-cohesive equilibria, by checking every admissible
    winding vector.

    Distinct cohesive equilibria carry distinct winding vectors, so the
    hits come out one per vector, in lexicographic winding order. Boxes
    larger than the budget raise EnumerationBudgetError.
    """
    if budget < 1:
        raise ParameterDomainError(f"budget must be >= 1, got {budget}")
    size = winding_box_size(g)
    if size > budget:
        raise EnumerationBudgetError(
            f"winding box has {size} vectors, budget is {budget}")
    vectors = list(itertools.product(*winding_box(g)))
    hits = _map(partial(winding_constrained_solve, g), vectors, jobs)
    return [eq for eq in hits if eq is not None]


@dataclass
class AuditReport:
    """Outcome of random-restart convergence trials against a known set."""

    trials: int
    match_counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    non_converged: int = 0
    unmatched_stable: list[Equilibrium] = field(default_factory=list)
    unmatched_other: int = 0

    @property
    def matched(self) -> int:
        return sum(self.match_counts.values())

    @property
    def unmatched(self) -> int:
        return len(self.unmatched_stable) + self.unmatched_other

    def summary_lines(self) -> list[str]:
        lines = [f"trials: {self.trials}",
                 f"matched: {self.matched}",
                 f"non_converged: {self.non_converged}",
                 f"unmatched: {self.unmatched}"]
        for w in sorted(self.match_counts):
            lines.append(f"matched {','.join(str(k) for k in w)}: {self.match_counts[w]}")
        for eq in self.unmatched_stable:
            lines.append(f"spurious winding {eq.winding}: "
                         f"theta {np.array2string(eq.theta, precision=6)}")
        return lines


def audit_spurious(g: Graph, known: list[Equilibrium], trials: int,
                   seed: int = 0, jobs: int = 1) -> AuditReport:
    """Random-restart the dynamics and match every limit against `known`.

    Initial states are drawn once, up front, from the seeded generator
    and relax at lock_dt(g). Results are identical however the
    integration work is split: into blocks of at most AUDIT_CHUNK_ROWS
    rows (which bounds the RK4 working set, about (10n + 6E)*8 bytes a
    row), and at least one block per job.
    A converged limit matches a known equilibrium when it is phase-cohesive
    and carries that equilibrium's winding vector: a cohesive equilibrium
    is unique for its winding, so no distance test is needed. Any other
    limit is classified, and a stable one is a spurious-memory finding.
    """
    if trials < 0:
        raise ParameterDomainError(f"trials must be >= 0, got {trials}")
    report = AuditReport(trials=trials)
    if trials == 0:
        return report
    rng = np.random.default_rng(seed)
    states = rng.uniform(-np.pi, np.pi, size=(trials, g.n))

    blocks = np.array_split(states, max(-(-trials // AUDIT_CHUNK_ROWS), min(jobs, trials)))
    results = _map(partial(integrate_batch, g=g, dt=lock_dt(g)), blocks, jobs)
    finals = np.vstack([r[0] for r in results])
    converged = np.concatenate([r[1] for r in results])

    report.non_converged = trials - int(converged.sum())
    limits = finals[converged]
    known_windings = {eq.winding for eq in known}
    for theta, w in zip(limits, map(tuple, winding_vector(limits, g).tolist())):
        cohesive = is_phase_cohesive(theta, g)
        if cohesive and w in known_windings:
            report.match_counts[w] = report.match_counts.get(w, 0) + 1
            continue
        if classify_stability(theta, g, residual_tol=10 * DEFAULT_CONV_TOL).is_stable:
            report.unmatched_stable.append(Equilibrium(theta=theta, winding=w,
                                                       cohesive=cohesive))
        else:
            report.unmatched_other += 1
    return report


def equilibria_to_json(g: Graph, eqs: list[Equilibrium]) -> str:
    """Serialize an enumeration result (graph plus equilibria). The
    largest nonzero Jacobian eigenvalue is computed here, per equilibrium."""
    payload = {
        "graph": graph_payload(g),
        "equilibria": [
            {
                "winding": list(eq.winding),
                "theta": [float(x) for x in eq.theta],
                "eigen_max_nonzero": classify_stability(
                    eq.theta, g, residual_tol=10 * DEFAULT_CONV_TOL).max_nonzero_eigenvalue(),
                "cohesive": eq.cohesive,
            }
            for eq in eqs
        ],
    }
    return jsonutil.dumps(payload)
