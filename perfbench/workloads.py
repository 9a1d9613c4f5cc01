"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Operation inputs are a pure function
of the workload seed and the operation's index, so a traced run can replay
exactly the operations an untraced run made. The library only ever sees
the generated inputs (graphs, states, patterns, and the per-operation
seeds that `audit_spurious` and `sample_estimate` take as arguments).

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is written down in README.md next to this file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

import kuramem as km

NOISE = 0.1           # retrieval noise amplitude, the README level
RESIDUAL_TOL = 1e-8   # 10 x the default convergence tolerance, as the solver checks


@dataclass
class OpOutput:
    work: float                       # units of work the operation completed
    result: object                    # what the check inspects
    timed: bool = True                # False: a prelude kept out of the timings


def honeycomb_count(nc: int, m: int) -> int:
    """The paper's closed form: (2*ceil(nc/4) - 1)**m stable configurations."""
    return (2 * math.ceil(nc / 4) - 1) ** m


def _warm(g) -> None:
    """First call on a graph fills its lazy caches (setup, not measured work)."""
    km.rhs(np.zeros(g.n), g)


def check_equilibrium(eq, g) -> str | None:
    """Verify an equilibrium from its phases alone, not from its own fields."""
    theta = np.asarray(eq.theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        return f"winding {eq.winding}: non-finite phases"
    residual = float(np.max(np.abs(km.rhs(theta, g))))
    if residual > RESIDUAL_TOL:
        return f"winding {eq.winding}: residual {residual:.3e}"
    if not km.is_phase_cohesive(theta, g):
        return f"winding {eq.winding}: not phase-cohesive"
    if tuple(int(k) for k in km.winding_vector(theta, g)) != tuple(eq.winding):
        return f"winding {eq.winding}: phases carry another winding vector"
    if not km.classify_stability(theta, g, residual_tol=RESIDUAL_TOL).is_stable:
        return f"winding {eq.winding}: not spectrally stable"
    return None


class Workload:
    SIZES: dict[str, dict]

    def __init__(self, size: str):
        self.p = self.SIZES[size]

    def instrument(self, patches) -> None:
        """Install wrappers the output check needs, in both runs."""


class Audit(Workload):
    """`kuramem audit` on the (9,5) honeycomb: enumerate_exact once, then
    audit_spurious from seeded uniform random starts against its result,
    in batches. Unit of work: one random-start trial.

    Operation 0 is the enumeration. It is checked, and its time is printed
    as `enumerate_s`, but it is not a trial batch, so it stays out of the
    operation timings. Every later operation is one audit_spurious batch.

    The documented audit runs 1000 trials as one batch, which takes
    minutes, longer than a run. A batch here is 64 trials (10 to 15 s), so
    a 35 s run holds two or three. README.md gives the measured cost of an
    integrate_batch step against the number of rows.
    """

    name = "audit"
    SIZES = {"full": dict(nc=9, m=5, trials=64), "small": dict(nc=5, m=2, trials=4)}

    def setup(self):
        g = km.build_honeycomb(self.p["nc"], self.p["m"])
        _warm(g)
        self.known = None
        return g

    def inputs(self, seed: int, g):
        yield None   # operation 0: the enumeration
        for k in count(1):
            rng = np.random.default_rng([seed, k])
            yield int(rng.integers(2**63))

    def run(self, g, audit_seed) -> OpOutput:
        if audit_seed is None:
            self.known = km.enumerate_exact(g)
            return OpOutput(work=len(self.known), result=self.known, timed=False)
        report = km.audit_spurious(g, self.known, trials=self.p["trials"], seed=audit_seed)
        return OpOutput(work=self.p["trials"], result=report)

    def check(self, g, audit_seed, out: OpOutput) -> str | None:
        if audit_seed is None:
            expected = honeycomb_count(self.p["nc"], self.p["m"])
            if len(out.result) != expected:
                return f"enumerate_exact found {len(out.result)} equilibria, expected {expected}"
            return None
        report = out.result
        if report.unmatched or report.non_converged or report.matched != self.p["trials"]:
            return (f"audit: matched {report.matched}/{self.p['trials']}, unmatched "
                    f"{report.unmatched}, non_converged {report.non_converged}")
        return None


class SolveCapture:
    """Records every winding_constrained_solve call and its result.

    count_exact and sample_estimate return counts only; the census check
    needs the equilibria behind those counts to verify them.
    """

    def __init__(self):
        self.calls: dict[tuple[int, ...], object] = {}

    def install(self, patches) -> None:
        def make(solve):
            def captured(g, winding, *args, **kwargs):
                eq = solve(g, winding, *args, **kwargs)
                self.calls[tuple(int(k) for k in winding)] = eq
                return eq
            return captured
        patches.wrap("kuramem.equilibria", "winding_constrained_solve", make)

    def take(self) -> dict:
        calls, self.calls = self.calls, {}
        return calls


class Census(Workload):
    """count_exact on hex 2x2, then sample_estimate on hex 3x3 in chunks.
    Unit of work: one distinct winding vector decided."""

    name = "census"
    SIZES = {"full": dict(exact=(2, 2), min_count=13, sample=(3, 3), per_op=2),
             "small": dict(exact=(1, 1), min_count=3, sample=(1, 2), per_op=2)}

    def __init__(self, size: str):
        super().__init__(size)
        self.capture = SolveCapture()

    def setup(self):
        graphs = {"exact": km.build_hex_array(*self.p["exact"]),
                  "sample": km.build_hex_array(*self.p["sample"])}
        for g in graphs.values():
            _warm(g)
        return graphs

    def instrument(self, patches) -> None:
        self.capture.install(patches)

    def inputs(self, seed: int, graphs):
        yield None   # operation 0: the exact count
        for k in count(1):
            rng = np.random.default_rng([seed, k])
            yield int(rng.integers(2**63))

    def run(self, graphs, sample_seed) -> OpOutput:
        self.capture.take()
        if sample_seed is None:
            est = km.count_exact(graphs["exact"])
        else:
            est = km.sample_estimate(graphs["sample"], self.p["per_op"], seed=sample_seed)
        solved = self.capture.take()
        return OpOutput(work=len(solved), result=(est, solved))

    def check(self, graphs, sample_seed, out: OpOutput) -> str | None:
        est, solved = out.result
        g = graphs["exact" if sample_seed is None else "sample"]
        if not solved:
            return "no winding_constrained_solve call observed; cannot verify"
        hits = [eq for eq in solved.values() if eq is not None]
        for eq in hits:
            failure = check_equilibrium(eq, g)
            if failure:
                return failure
        if sample_seed is None:
            if est.exact < self.p["min_count"]:
                return f"count_exact {est.exact} < {self.p['min_count']}"
            if est.exact != len(hits) or len(solved) != est.box_size:
                return (f"count_exact {est.exact} from {len(solved)} solves, "
                        f"{len(hits)} verified hits, box {est.box_size}")
        elif est.hits < len(hits) or (est.hits > 0) != bool(hits):
            return f"sample_estimate hits {est.hits}, verified distinct hits {len(hits)}"
        return None


class Recall(Workload):
    """Store, perturb by uniform +-NOISE, retrieve, on the (5,3) codec.
    Patterns come in seeded permutations of all 27, so every run covers
    every pattern. Unit of work: one retrieval."""

    name = "recall"
    SIZES = {"full": dict(nc=5, m=3), "small": dict(nc=5, m=2)}

    def setup(self):
        codec = km.PatternCodec(self.p["nc"], self.p["m"])
        g = km.build_honeycomb(self.p["nc"], self.p["m"])
        _warm(g)
        return codec, g

    def inputs(self, seed: int, ctx):
        codec, g = ctx
        rng = np.random.default_rng([seed])
        while True:
            for index in rng.permutation(codec.n_patterns) + 1:
                bits = format(int(index), "b").zfill(codec.bit_width)
                yield bits, rng.uniform(-NOISE, NOISE, g.n)

    def run(self, ctx, inp) -> OpOutput:
        codec, g = ctx
        bits, noise = inp
        got, _ = km.retrieve(km.store(bits, codec) + noise, codec, g)
        return OpOutput(work=1, result=got)

    def check(self, ctx, inp, out: OpOutput) -> str | None:
        if out.result != inp[0]:
            return f"stored {inp[0]}, retrieved {out.result}"
        return None


class RelaxLarge(Workload):
    """integrate on hex 30x30 (n=1,920, E=2,819) from a seeded random state
    for a fixed model-time horizon, not to lock. Unit of work: one unit
    of model time."""

    name = "relax-large"
    SIZES = {"full": dict(rows=30, cols=30, horizon=0.25),
             "small": dict(rows=3, cols=3, horizon=0.25)}

    def setup(self):
        g = km.build_hex_array(self.p["rows"], self.p["cols"])
        _warm(g)
        return g

    def inputs(self, seed: int, g):
        for k in count():
            yield np.random.default_rng([seed, k]).uniform(-np.pi, np.pi, g.n)

    def run(self, g, theta0) -> OpOutput:
        res = km.integrate(theta0, g, t_max=self.p["horizon"])
        return OpOutput(work=res.t_elapsed, result=res)

    def check(self, g, theta0, out: OpOutput) -> str | None:
        theta = out.result.theta
        if not np.all(np.isfinite(theta)):
            return "final state is not finite"
        before, after = km.energy(theta0, g), km.energy(theta, g)
        if after > before:
            return f"energy rose from {before!r} to {after!r}"
        return None


WORKLOADS = {w.name: w for w in (Audit, Census, Recall, RelaxLarge)}
