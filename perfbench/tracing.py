"""Spans and counters recorded around calls into the kuramem modules.

`equilibria`, `memory` and `capacity` import `rhs`, `integrate`,
`winding_constrained_solve` and friends by name, so wrapping a function in
its defining module alone would miss most calls. `Patches` therefore
replaces every binding of a function object in every loaded kuramem module
namespace (the package included) and puts the originals back on close.

The tracer keeps everything in memory until the run ends:

- a span (name, start, end, parent, op id) for each call of a wrapped
  function, plus its child time, from which self time follows;
- for the hot leaf functions (`rhs`, `energy`, `jacobian`,
  `winding_vector`, ...), which run up to millions of times per run, one
  aggregate (calls, total seconds) per (name, parent span) instead of one
  span per call. A leaf has no children, so its self time is its total;
- counters taken at the same boundaries (rows per `rhs` call, solves that
  hit or miss, `integrate` and `energy` calls made inside a solve);
- the tracer's own bookkeeping, timed from a wrapper's entry to its exit
  outside the wrapped call, as a pseudo-leaf named `trace` under the
  calling span. The parent counts it as child time, so the library layers'
  self times leave the tracer out and its cost shows on its own.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

BYTES_PER_FLOAT = 8
RK4_STAGES = 4

# (module, attribute, span name, leaf?)
TRACED = [
    ("kuramem.graphs", "build_honeycomb", "graphs.build", False),
    ("kuramem.graphs", "build_hex_array", "graphs.build", False),
    ("kuramem.dynamics", "rhs", "dynamics.rhs", True),
    ("kuramem.dynamics", "energy", "dynamics.energy", True),
    ("kuramem.dynamics", "jacobian", "dynamics.jacobian", True),
    ("kuramem.dynamics", "integrate", "dynamics.integrate", False),
    ("kuramem.dynamics", "integrate_batch", "dynamics.integrate_batch", False),
    ("kuramem.dynamics", "classify_stability", "dynamics.classify_stability", False),
    ("kuramem.equilibria", "winding_vector", "equilibria.winding_vector", True),
    ("kuramem.equilibria", "is_phase_cohesive", "equilibria.is_phase_cohesive", True),
    ("kuramem.equilibria", "construct_config", "equilibria.construct_config", True),
    ("kuramem.equilibria", "winding_constrained_solve",
     "equilibria.winding_constrained_solve", False),
    ("kuramem.equilibria", "enumerate_exact", "equilibria.enumerate_exact", False),
    ("kuramem.equilibria", "audit_spurious", "equilibria.audit_spurious", False),
    ("kuramem.capacity", "count_exact", "capacity.count_exact", False),
    ("kuramem.capacity", "sample_estimate", "capacity.sample_estimate", False),
    ("kuramem.memory", "store", "memory.store", False),
    ("kuramem.memory", "retrieve", "memory.retrieve", False),
]

SOLVE = "equilibria.winding_constrained_solve"
TRACE = "trace"    # pseudo-leaf holding the tracer's own bookkeeping


def _kuramem_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kuramem" or name.startswith("kuramem."))]


class Patches:
    """Replace functions in every kuramem namespace; `close` undoes it."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, attr: str, make) -> None:
        """Bind make(current) wherever kuramem binds module.attr today;
        a function that does not exist is left alone."""
        current = getattr(sys.modules.get(module), attr, None)
        if current is None:
            return
        new = make(current)
        for mod in _kuramem_modules():
            for key, value in list(vars(mod).items()):
                if value is current:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, current))

    def close(self) -> None:
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _call_arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """In-memory span recorder. Spans are lists [name, start, end, parent
    index, op id, child seconds, tracer seconds inside]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.open = Counter()
        self.counters = Counter()
        self.rhs_shapes: Counter = Counter()   # (id(graph), rows) -> calls
        self.graphs: dict[int, object] = {}
        self.op = -1
        self.suspended = 0    # > 0 while the benchmark's own checks run
        self.trace_s = 0.0    # bookkeeping booked so far, all spans

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0, self.trace_s])
        self.stack.append(idx)
        self.open[name] += 1
        return idx

    def end(self, idx: int) -> float:
        rec = self.spans[idx]
        rec[2] = perf_counter()
        self.stack.pop()
        self.open[rec[0]] -= 1
        rec[6] = self.trace_s - rec[6]
        dur = rec[2] - rec[1]
        if rec[3] >= 0:
            self.spans[rec[3]][5] += dur
        return dur

    def _book(self, parent: int, seconds: float) -> None:
        """Charge tracer bookkeeping to the TRACE pseudo-leaf under parent."""
        agg = self.leaves[(TRACE, parent)]
        agg[0] += 1
        agg[1] += seconds
        self.trace_s += seconds
        if parent >= 0:
            self.spans[parent][5] += seconds

    def _wrap_span(self, name, fn):
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            entered = perf_counter()
            self._on_enter(name, args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            rec = self.spans[idx]
            self._on_return(name, args, kwargs, result, rec)
            self._book(rec[3], (rec[1] - entered) + (perf_counter() - rec[2]))
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, name, fn):
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                parent = self.stack[-1] if self.stack else -1
                agg = self.leaves[(name, parent)]
                agg[0] += 1
                agg[1] += t1 - t0
                if parent >= 0:
                    self.spans[parent][5] += t1 - t0
                self._on_leaf(name, args, kwargs, parent)
                self._book(parent, perf_counter() - t1)
        traced.__wrapped__ = fn
        return traced

    # -- counters at the boundaries -------------------------------------
    def _on_enter(self, name, args, kwargs):
        if name == "dynamics.integrate" and self.open[SOLVE]:
            self.counters["solve.rk4_fallbacks"] += 1
        elif name == "capacity.sample_estimate":
            self.counters["sample.requested"] += int(_call_arg(args, kwargs, 1, "samples"))

    def _on_return(self, name, args, kwargs, result, rec):
        if name == SOLVE:
            dur = rec[2] - rec[1] - rec[6]    # without the tracer inside
            hit = result is not None
            self.counters["solve.hits"] += hit
            self.counters["solve.hit_s" if hit else "solve.miss_s"] += dur
            if self.stack and self.spans[self.stack[-1]][0] == "capacity.sample_estimate":
                self.counters["sample.solved"] += 1
        elif name == "dynamics.integrate":
            self.counters["integrate.model_time"] += float(result.t_elapsed)
        elif name == "graphs.build":
            self.graphs[id(result)] = result

    def _on_leaf(self, name, args, kwargs, parent):
        if name == "dynamics.rhs":
            theta = _call_arg(args, kwargs, 0, "theta")
            g = _call_arg(args, kwargs, 1, "g")
            rows = theta.shape[0] if getattr(theta, "ndim", 1) == 2 else 1
            self.graphs.setdefault(id(g), g)
            self.rhs_shapes[(id(g), rows)] += 1
            if parent >= 0 and self.spans[parent][0] == "dynamics.integrate_batch":
                self.counters["batch.rhs_calls"] += 1
                self.counters["batch.rhs_rows"] += rows
        elif name == "dynamics.energy" and self.open[SOLVE]:
            self.counters["solve.energy_evals"] += 1

    def install(self, patches: Patches) -> None:
        for module, attr, name, leaf in TRACED:
            wrap = self._wrap_leaf if leaf else self._wrap_span
            patches.wrap(module, attr, lambda fn, n=name, w=wrap: w(n, fn))

    # -- summaries ---------------------------------------------------------
    def self_seconds(self, in_ops: bool) -> Counter:
        """Self seconds per name; with in_ops, only inside operations
        (op id >= 0), which leaves out the traced set-up."""
        out = Counter()
        for name, start, end, _, op, child, _ in self.spans:
            if op >= 0 or not in_ops:
                out[name] += (end - start) - child
        for (name, parent), (_, total) in self.leaves.items():
            if not in_ops or (parent >= 0 and self.spans[parent][4] >= 0):
                out[name] += total
        return out

    def inclusive_seconds(self) -> Counter:
        """Span seconds per name, without the tracer's bookkeeping inside."""
        out = Counter()
        for name, start, end, _, _, _, inside in self.spans:
            out[name] += end - start - inside
        return out

    def leaf_calls(self) -> Counter:
        out = Counter()
        for (name, _), (calls, _) in self.leaves.items():
            out[name] += calls
        return out

    def span_calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def rhs_kernel(self) -> tuple[float, float]:
        """Computed (bytes, operations) summed over every rhs call.

        Per call on r rows of a graph with n nodes and E edges: read theta
        (r*n) and write the velocity (r*n); write and read the per-edge
        sines (2*r*E); read the two endpoint index arrays (2*E). The
        node scatter is the dense (E, n) `edge_to_node` product when the
        graph holds that matrix (E*n floats read, 2*r*E*n operations),
        and an O(E) scatter otherwise (2*E index reads, 2*r*E
        operations). Operations add r*E differences, r*E sines and r*n
        coupling products. These are array sizes, not measured traffic.
        """
        total_bytes = 0.0
        total_ops = 0.0
        for (gid, rows), calls in self.rhs_shapes.items():
            g = self.graphs[gid]
            n, e = g.n, len(g.edges)
            dense = "edge_to_node" in vars(g)
            scatter_words = e * n if dense else 2 * e
            scatter_ops = 2 * rows * e * (n if dense else 1)
            words = 2 * rows * n + 2 * rows * e + 2 * e + scatter_words
            total_bytes += calls * BYTES_PER_FLOAT * words
            total_ops += calls * (2 * rows * e + rows * n + scatter_ops)
        return total_bytes, total_ops

    def edge_to_node_bytes(self) -> int:
        return sum(vars(g)["edge_to_node"].nbytes for g in self.graphs.values()
                   if "edge_to_node" in vars(g))

    def write(self, path) -> None:
        """One JSON object per span, then one per leaf aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op, child, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "self": (end - start) - child}) + "\n")
            for (name, parent), (calls, total) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "calls": calls, "total": total}) + "\n")
