"""Counting stable configurations, exactly or by sampling, and the
topology-comparison experiment sweep.

For small winding boxes every vector is checked; large boxes are treated
by uniform sampling with replacement, estimating the fraction of vectors
exhibited by a stable cohesive equilibrium. Confidence intervals use the
Wilson score, which stays sane at hit rates of 0 and 1 where the normal
approximation collapses.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .equilibria import (ENUMERATION_BUDGET, _map, enumerate_exact, winding_box,
                         winding_box_size, winding_constrained_solve)
from .errors import ParameterDomainError
from .graphs import (Graph, build_hex_array, build_honeycomb,
                     build_honeycomb_chain, build_square_array, build_tri_array)
from .jsonutil import integer

# two-sided 95% normal quantile
Z_95 = 1.959963984540054

DEFAULT_SAMPLES = 500
EXACT_THRESHOLD = 100_000


@dataclass(frozen=True)
class CapacityEstimate:
    """Count of stable cohesive configurations, exact or estimated.

    Sampled estimates carry a 95% Wilson interval scaled to the box size;
    exact counts collapse the interval onto the count itself.
    """

    box_size: int
    exact: int | None = None
    estimate: float | None = None
    ci_low: float = 0.0
    ci_high: float = 0.0
    samples: int = 0
    hits: int = 0

    @property
    def count(self) -> float:
        return float(self.exact if self.exact is not None else self.estimate)


def wilson_interval(hits: int, samples: int) -> tuple[float, float]:
    """Wilson score interval at Z_95 for a binomial proportion."""
    if samples < 1:
        raise ParameterDomainError(f"samples must be >= 1, got {samples}")
    if not 0 <= hits <= samples:
        raise ParameterDomainError(f"hits {hits} outside 0..{samples}")
    p = hits / samples
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / samples
    center = (p + z2 / (2 * samples)) / denom
    half = (Z_95 / denom) * np.sqrt(p * (1 - p) / samples + z2 / (4 * samples * samples))
    # at the boundaries center == half holds exactly; don't let round-off
    # push the interval off the observed proportion
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == samples else min(1.0, center + half)
    return lo, hi


def count_exact(g: Graph, jobs: int = 1) -> CapacityEstimate:
    """Exact configuration count by exhaustive winding enumeration."""
    eqs = enumerate_exact(g, jobs=jobs)
    count = len(eqs)
    return CapacityEstimate(box_size=winding_box_size(g), exact=count,
                            ci_low=float(count), ci_high=float(count))


def sample_estimate(g: Graph, samples: int, seed: int = 0, jobs: int = 1) -> CapacityEstimate:
    """Estimate the count by sampling winding vectors with replacement.

    Each distinct draw is solved once, over `jobs` processes as in
    enumerate_exact, and counted for every draw of it; the estimator is the
    hit fraction scaled by the box size, with a Wilson 95% interval scaled
    and clipped the same way. A count outside 1..ENUMERATION_BUDGET raises
    ParameterDomainError before anything is drawn.
    """
    if not 1 <= samples <= ENUMERATION_BUDGET:
        raise ParameterDomainError(f"samples must be in 1..{ENUMERATION_BUDGET}, got {samples}")
    box = winding_box(g)
    box_size = winding_box_size(g)
    rng = np.random.default_rng(seed)
    lows = np.array([r.start for r in box])
    highs = np.array([r.stop for r in box])  # exclusive
    draws = list(map(tuple, rng.integers(lows, highs, size=(samples, len(box))).tolist()))
    distinct = list(dict.fromkeys(draws))
    solved = dict(zip(distinct, _map(partial(winding_constrained_solve, g), distinct, jobs)))
    hits = sum(solved[w] is not None for w in draws)
    lo, hi = wilson_interval(hits, samples)
    return CapacityEstimate(box_size=box_size,
                            estimate=box_size * hits / samples,
                            ci_low=box_size * lo, ci_high=box_size * hi,
                            samples=samples, hits=hits)


# Each topology kind's builder and the names of its two parameters.
BUILDERS = {
    "honeycomb": (build_honeycomb, ("nc", "m")),
    "honeycomb_chain": (build_honeycomb_chain, ("nc", "m")),
    "hex": (build_hex_array, ("rows", "cols")),
    "square": (build_square_array, ("rows", "cols")),
    "tri": (build_tri_array, ("rows", "cols")),
}


def build_topology(kind: str, p1: int, p2: int, coupling: float = 1.0) -> Graph:
    """Dispatch a builder by its one name in BUILDERS, with the two
    parameters BUILDERS names for it."""
    try:
        builder, _ = BUILDERS[kind]
    except KeyError:
        raise ParameterDomainError(
            f"unknown topology {kind!r}, expected one of {sorted(BUILDERS)}")
    return builder(p1, p2, coupling)


RESULT_FIELDS = ("topology", "param1", "param2", "n_nodes", "mode", "count",
                 "ci_low", "ci_high", "samples", "seed", "wall_ms")
CONFIG_KEYS = {"seed", "samples", "exact_threshold", "families"}


def count_row(kind: str, p1: int, p2: int, g: Graph, samples: int | None,
              seed: int, jobs: int = 1) -> dict:
    """The results-CSV row of g, labelled (kind, p1, p2): an exact count
    when samples is None, else an estimate from that many draws at seed.
    wall_ms times the count alone."""
    start = time.perf_counter()
    est = count_exact(g, jobs) if samples is None else sample_estimate(g, samples, seed, jobs)
    return {"topology": kind, "param1": p1, "param2": p2, "n_nodes": g.n,
            "mode": "exact" if samples is None else "sample", "count": est.count,
            "ci_low": est.ci_low, "ci_high": est.ci_high, "samples": est.samples,
            "seed": seed, "wall_ms": format(1000.0 * (time.perf_counter() - start), ".3f")}


def _family_rows(family: dict) -> list[tuple[str, int, int]]:
    kind = family["topology"]
    if kind not in BUILDERS:
        raise ParameterDomainError(f"unknown topology {kind!r}")
    names = BUILDERS[kind][1]
    honeycomb = names == ("nc", "m")
    keys = {"topology", "nc", "m_values"} if honeycomb else {"topology", "sizes"}
    if set(family) != keys:
        raise ParameterDomainError(f"family {kind!r} takes keys {sorted(keys)}")
    pairs = [(family["nc"], m) for m in family["m_values"]] if honeycomb else family["sizes"]
    return [(kind, integer(p1, names[0]), integer(p2, names[1])) for p1, p2 in pairs]


def run_experiment(config: dict, jobs: int = 1) -> list[dict]:
    """Sweep the configured topology families and count configurations.

    Config keys: seed, samples, exact_threshold (ints) and families, a
    list of {"topology": ..., "nc": ..., "m_values": [...]} for honeycomb
    kinds or {"topology": ..., "sizes": [[r, c], ...]} for arrays. Rows
    whose winding box is at most exact_threshold are enumerated exactly,
    the rest sampled, each by count_row. The whole sweep is checked before
    the first count: a config that is not a dict, a malformed or unknown
    key, samples outside 1..ENUMERATION_BUDGET, an exact_threshold above
    it or a family its builder refuses raises ParameterDomainError. Any
    error raised while counting propagates.
    """
    try:
        if not isinstance(config, dict):
            raise TypeError(f"expected a JSON object, got {type(config).__name__}")
        if not set(config) <= CONFIG_KEYS:
            raise ParameterDomainError(f"keys must be among {sorted(CONFIG_KEYS)}")
        base_seed = integer(config.get("seed", 0), "seed")
        samples = integer(config.get("samples", DEFAULT_SAMPLES), "samples")
        threshold = integer(config.get("exact_threshold", EXACT_THRESHOLD), "exact_threshold")
        rows = [r for family in config.get("families", []) for r in _family_rows(family)]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed experiment config: {exc}") from exc
    if base_seed < 0:
        raise ParameterDomainError(f"experiment seed must be >= 0, got {base_seed}")
    if not 1 <= samples <= ENUMERATION_BUDGET:
        raise ParameterDomainError(
            f"experiment samples must be in 1..{ENUMERATION_BUDGET}, got {samples}")
    if threshold > ENUMERATION_BUDGET:
        raise ParameterDomainError(
            f"experiment exact_threshold must be <= {ENUMERATION_BUDGET}, got {threshold}")
    graphs = [build_topology(*row) for row in rows]
    return [count_row(*row, g, None if winding_box_size(g) <= threshold else samples,
                      int(np.random.SeedSequence((base_seed, i)).generate_state(1)[0]), jobs)
            for i, (row, g) in enumerate(zip(rows, graphs))]


def results_to_csv(rows: list[dict]) -> str:
    """The header and one line per count_row row; floats get 17 significant digits."""
    lines = [",".join(RESULT_FIELDS)]
    for row in rows:
        cells = (row[f] for f in RESULT_FIELDS)
        lines.append(",".join(format(c, ".17g") if isinstance(c, float) else str(c) for c in cells))
    return "\n".join(lines) + "\n"
