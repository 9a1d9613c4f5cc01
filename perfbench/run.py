"""kuramem benchmark: closed-loop workloads over the public API.

Run from the repository root:

    python3 perfbench/run.py --workload recall --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

--trace 0 measures the end-to-end metrics. --trace 1 first repeats that
untraced run, then replays the same operations with spans recorded around
every call into the kuramem modules, and reports the per-layer metrics
and the tracing overhead (traced over untraced time for identical work).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the benchmark could not
run at all (for example, no kuramem sources next to it).

Spans, leaf aggregates and a run manifest are written to .perfbench_out/
at the repository root. See README.md next to this file for the metrics.
"""
from __future__ import annotations

import os

# One BLAS thread: the benchmark is a single caller on a small shared
# machine, and a pinned thread count keeps runs comparable. Must be set
# before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import RK4_STAGES, SOLVE, TRACE, Patches, Tracer  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up is measured in fresh interpreters and its median reported. Timed
# in-process, the microsecond-scale graph builds flip between two speeds
# from one process to the next.
SETUP_REPEATS = 5
# The workloads BENCHMARK.json lists, then `audit`, which runs the same way
# but is left out of it: a run holds too few of its operations to be
# steady (README.md, "Steadiness").
WORKLOAD_NAMES = ("census", "recall", "relax-large", "audit")
CHILD_TIMEOUT_S = 175


@dataclass
class Op:
    seconds: float              # wall time of the library calls
    work: float                 # units of work, 0 when the op failed
    failure: str | None
    timed: bool = True          # False: a prelude kept out of the timings


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns (value, percentile, samples). Below 21 samples no percentile
    above the median qualifies, and the maximum is returned, labelled as
    percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n


def run_loop(wl, ctx, inputs, km, *, seconds=None, limit=None, tracer=None):
    """Closed loop: start operations until `seconds` have passed and one
    timed operation is done, or until `limit` operations were made.
    Returns (ops, wall seconds)."""
    ops: list[Op] = []
    inputs = iter(inputs)
    start = perf_counter()
    for k in count():
        if limit is not None and k >= limit:
            break
        root = None
        if tracer is not None:
            tracer.op = k
            root = tracer.begin("bench.op")
        try:
            inp = next(inputs)
            t0 = perf_counter()
            run = tracer.begin("bench.run") if tracer is not None else None
            try:
                out, failure = wl.run(ctx, inp), None
            except km.KuramemError as exc:
                out, failure = None, f"{type(exc).__name__}: {exc}"
            finally:
                if run is not None:
                    tracer.end(run)
            t1 = perf_counter()
            if out is not None:
                failure = _check(wl, ctx, inp, out, km, tracer)
        finally:
            if root is not None:
                tracer.end(root)
        ops.append(Op(t1 - t0, out.work if failure is None else 0.0, failure,
                      out.timed if out is not None else True))
        if failure:
            print(f"check failed: op {k}: {failure}", file=sys.stderr)
        if limit is None and perf_counter() - start >= seconds and any(op.timed for op in ops):
            break
    return ops, perf_counter() - start


def _check(wl, ctx, inp, out, km, tracer):
    """Output check; under tracing it is one span with nothing recorded inside."""
    if tracer is None:
        return _safe_check(wl, ctx, inp, out, km)
    idx = tracer.begin("bench.check")
    tracer.suspended += 1
    try:
        return _safe_check(wl, ctx, inp, out, km)
    finally:
        tracer.suspended -= 1
        tracer.end(idx)


def _safe_check(wl, ctx, inp, out, km):
    try:
        return wl.check(ctx, inp, out)
    except km.KuramemError as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def end_to_end(setups, ops) -> dict[str, tuple[float, str]]:
    timed = [op for op in ops if op.timed]
    seconds = [op.seconds for op in timed]
    failed = sum(op.failure is not None for op in ops)
    tail_value, _, _ = tail(seconds)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (_rate(timed), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(seconds), "ms"),
        "op_tail_ms": (1000.0 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
    }


def named_figures(name, ops, e2e) -> list[str]:
    """The workload-specific figures under their own names, with bases."""
    timed = [op for op in ops if op.timed]
    seconds = [op.seconds for op in timed]
    failed = sum(op.failure is not None for op in ops)
    value, pct, n = tail(seconds)
    lines = [f"fail_ratio {failed / len(ops)!r} ratio ({failed} failed of {len(ops)} attempted)",
             f"op_tail_ms is p{pct:.4g} of {n} operations",
             "op seconds min/q1/median/q3/max " + " ".join(
                 f"{x:.4f}" for x in _five_numbers(seconds))]
    if name == "audit":
        lines += [f"enumerate_s {ops[0].seconds!r} s (operation 0, {ops[0].work:g} equilibria)",
                  f"audit_trials_per_s {e2e['work_per_s'][0]!r} 1/s "
                  f"({sum(op.work for op in timed):g} trials in {n} batches)"]
    elif name == "census":
        lines.append(f"census_vectors_per_s {e2e['work_per_s'][0]!r} 1/s "
                     f"({sum(op.work for op in timed):g} distinct vectors decided)")
    elif name == "recall":
        lines += [f"retrievals_per_s {e2e['work_per_s'][0]!r} 1/s",
                  f"retrieve_p50_ms {e2e['op_p50_ms'][0]!r} ms ({n} retrievals)",
                  f"retrieve_tail_ms {1000.0 * value!r} ms (p{pct:.4g} of {n} retrievals)"]
    elif name == "relax-large":
        lines.append(f"relax_model_time_per_s {e2e['work_per_s'][0]!r} 1/s "
                     f"({sum(op.work for op in timed):g} model time units)")
    return lines


def _rate(ops) -> float:
    return sum(op.work for op in ops) / sum(op.seconds for op in ops)


def _five_numbers(values):
    s = sorted(values)
    if len(s) < 2:
        return s * 5
    q1, q2, q3 = statistics.quantiles(s, n=4, method="inclusive")
    return s[0], q1, q2, q3, s[-1]


def layer_metrics(tracer, untraced_ops, traced_ops, wall) -> tuple[dict, list[str]]:
    selfs = tracer.self_seconds(in_ops=False)
    op_selfs = tracer.self_seconds(in_ops=True)
    incl = tracer.inclusive_seconds()
    c = tracer.counters
    calls = tracer.leaf_calls() + tracer.span_calls()
    rhs_calls = calls["dynamics.rhs"]
    rhs_bytes, rhs_ops = tracer.rhs_kernel()
    steps = c["batch.rhs_calls"] / RK4_STAGES
    row_steps = c["batch.rhs_rows"] / RK4_STAGES
    solves = calls[SOLVE]
    untraced_s = sum(op.seconds for op in untraced_ops)
    traced_s = sum(op.seconds for op in traced_ops)
    bench_self = op_selfs["bench.op"] + op_selfs["bench.check"]
    library_self = sum(v for k, v in op_selfs.items() if not k.startswith("bench.") and k != TRACE)
    # Operation time no kuramem layer and no tracer bookkeeping accounts
    # for: the benchmark's own code inside an operation, or an untraced call.
    unattributed = traced_s - library_self - op_selfs[TRACE]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "dynamics.rhs.calls": (rhs_calls, "count"),
        "dynamics.rhs.self_s": (selfs["dynamics.rhs"], "s"),
        "dynamics.rhs.bytes_computed": (rhs_bytes, "B"),
        "dynamics.rhs.bytes_per_call": (ratio(rhs_bytes, rhs_calls), "B"),
        "dynamics.rhs.ops_per_call": (ratio(rhs_ops, rhs_calls), "op"),
        "dynamics.integrate.calls": (calls["dynamics.integrate"], "count"),
        "dynamics.integrate.self_s": (selfs["dynamics.integrate"], "s"),
        "dynamics.integrate.model_time": (c["integrate.model_time"], "model_t"),
        "dynamics.integrate_batch.self_s": (selfs["dynamics.integrate_batch"], "s"),
        "dynamics.integrate_batch.steps": (steps, "count"),
        "dynamics.integrate_batch.row_steps": (row_steps, "count"),
        "dynamics.integrate_batch.occupancy": (ratio(row_steps, steps), "rows"),
        "dynamics.classify_stability.self_s": (selfs["dynamics.classify_stability"], "s"),
        "equilibria.enumerate_exact.s": (incl["equilibria.enumerate_exact"], "s"),
        "equilibria.audit_spurious.s": (incl["equilibria.audit_spurious"], "s"),
        "equilibria.winding_constrained_solve.calls": (solves, "count"),
        "equilibria.winding_constrained_solve.hit_s": (c["solve.hit_s"], "s"),
        "equilibria.winding_constrained_solve.miss_s": (c["solve.miss_s"], "s"),
        "equilibria.winding_constrained_solve.hit_ratio": (ratio(c["solve.hits"], solves), "ratio"),
        "equilibria.solve.rk4_fallbacks": (c["solve.rk4_fallbacks"], "count"),
        "equilibria.solve.energy_evals": (c["solve.energy_evals"], "count"),
        "equilibria.winding_vector.self_s": (selfs["equilibria.winding_vector"], "s"),
        "capacity.count_exact.s": (incl["capacity.count_exact"], "s"),
        "capacity.sample_estimate.s": (incl["capacity.sample_estimate"], "s"),
        "capacity.sample.distinct_ratio": (ratio(c["sample.solved"], c["sample.requested"]), "ratio"),
        "memory.store.s": (incl["memory.store"], "s"),
        "memory.retrieve.self_s": (selfs["memory.retrieve"], "s"),
        "graphs.build.s": (incl["graphs.build"], "s"),
        "graphs.edge_to_node.bytes_computed": (tracer.edge_to_node_bytes(), "B"),
        "trace.overhead": (ratio(traced_s, untraced_s) - 1.0, "ratio"),
        "trace.self_s": (op_selfs[TRACE], "s"),
        "trace.op_s": (traced_s, "s"),
        "trace.library_self_s": (library_self, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.bench_self_s": (bench_self, "s"),
    }
    overhead_s = traced_s - untraced_s
    lines = [
        f"base dynamics.rhs.bytes_per_call, ops_per_call: {rhs_calls} rhs calls (computed from E, n and rows)",
        f"base dynamics.integrate_batch.occupancy: {steps:g} steps, {row_steps:g} row-steps",
        f"base equilibria.winding_constrained_solve.hit_ratio: {c['solve.hits']} hits of {solves} solves",
        f"base capacity.sample.distinct_ratio: {c['sample.solved']} distinct of "
        f"{c['sample.requested']} drawn",
        f"overhead: traced {traced_s:.6f} s vs untraced {untraced_s:.6f} s for the same "
        f"{len(traced_ops)} operations ({overhead_s:+.6f} s)",
        f"overhead: total work per second traced {_rate(traced_ops)!r} vs untraced {_rate(untraced_ops)!r}",
        f"overhead: tracer bookkeeping {op_selfs[TRACE]:.6f} s "
        f"({100.0 * ratio(op_selfs[TRACE], traced_s):.2f}% of traced operation time)",
        f"blocking path: library self times {library_self:.6f} s + tracer "
        f"{op_selfs[TRACE]:.6f} s of {traced_s:.6f} s in operations "
        f"(unattributed {unattributed:+.6f} s); bench's own {bench_self:.6f} s outside",
    ]
    for name, secs in sorted(op_selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"self {name}: {secs:.6f} s ({100.0 * secs / wall:.2f}% of wall), "
                     f"{calls[name]} calls")
    return m, lines


def manifest(args, km) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        # Set above, before numpy loaded its BLAS.
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(), "kuramem_version": getattr(km, "__version__", None),
    }


def _git_commit():
    """HEAD's commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure_setup(args) -> float:
    """Wall time for a fresh interpreter to import kuramem, build the
    workload's graphs (and codec) and make one warm-up rhs call on each:
    what a user pays before the first operation."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            f"from workloads import WORKLOADS; "
            f"WORKLOADS[{args.workload!r}]({args.size!r}).setup()")
    t0 = perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would show in the measurement.
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


def run_one(args, km) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    setups = [measure_setup(args) for _ in range(SETUP_REPEATS)]
    ctx = wl.setup()
    with Patches() as patches:
        wl.instrument(patches)
        ops, _ = run_loop(wl, ctx, wl.inputs(args.seed, ctx), km, seconds=args.seconds)

    e2e = end_to_end(setups, ops)
    print(f"workload {args.workload} size {args.size} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}: {len(ops)} operations")
    for name, (value, unit) in e2e.items():
        print(f"metric {name} {value!r} {unit}")
    for line in named_figures(args.workload, ops, e2e):
        print(f"figure {line}")
    metrics = e2e
    all_ops = list(ops)

    if args.trace:
        tracer = Tracer()
        ctx = None
        with Patches() as patches:
            tracer.install(patches)
            wl.instrument(patches)
            setup_span = tracer.begin("bench.setup")
            ctx = wl.setup()
            tracer.end(setup_span)
            traced, wall = run_loop(wl, ctx, wl.inputs(args.seed, ctx), km,
                                    limit=len(ops), tracer=tracer)
        metrics, lines = layer_metrics(tracer, ops, traced, wall)
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value!r} {unit}")
        for line in lines:
            print(f"trace {line}")
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
        all_ops += traced

    failed = sum(op.failure is not None for op in all_ops)
    result = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S * (2 + args.trace))
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the smallest graphs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "kuramem" / "__init__.py").is_file():
        print(f"error: no kuramem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kuramem as km
    if Path(km.__file__).resolve().parent != (SRC / "kuramem").resolve():
        print(f"error: kuramem imported from {km.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    info = manifest(args, km)
    (OUT / f"manifest-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")
    print("manifest " + json.dumps(info))
    return run_one(args, km)


if __name__ == "__main__":
    sys.exit(main())
