"""Command-line front end.

`build` is the only subcommand that takes topology flags; every other
one reads the graph file that `build` writes. Every subcommand is
deterministic given its flags and seed; randomized commands take --seed,
which falls back to the KURAMEM_SEED environment variable and then to 0. Exit codes: 1 I/O failure, 2 parameter domain
error, 3 enumeration budget exceeded, 4 `audit` found a stable spurious
memory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import jsonutil
from .capacity import (BUILDERS, build_topology, count_row, results_to_csv,
                       run_experiment)
from .dynamics import DEFAULT_CONV_TOL, DEFAULT_DT, DEFAULT_T_MAX, integrate
from .equilibria import (ENUMERATION_BUDGET, audit_spurious, enumerate_exact,
                         equilibria_to_json)
from .errors import (EnumerationBudgetError, IntegrationBlowUpError,
                     ParameterDomainError, RetrievalError)
from .graphs import Graph, graph_from_json, graph_to_json
from .memory import codec_for_graph, decode, retrieve, store
from .plotting import write_capacity_svg

SEED_ENV = "KURAMEM_SEED"


def _resolve_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get(SEED_ENV, "0")
        try:
            value = int(env)
        except ValueError:
            raise ParameterDomainError(f"{SEED_ENV}={env!r} is not an integer")
    if value < 0:
        raise ParameterDomainError(f"seed must be >= 0, got {value}")
    return value


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterDomainError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_graph(path: str) -> Graph:
    return graph_from_json(_read_text(path))


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _topology_params(args) -> tuple[int, int]:
    """The --topology parameters that BUILDERS names, e.g. (nc, m)."""
    names = BUILDERS[args.topology][1]
    for flag in ("nc", "m", "rows", "cols"):
        if flag not in names and getattr(args, flag) is not None:
            raise ParameterDomainError(f"--topology {args.topology} cannot take --{flag}")
    params = tuple(getattr(args, name) for name in names)
    if None in params:
        raise ParameterDomainError(f"{args.topology} requires --{names[0]} and --{names[1]}")
    return params


def _add_topology_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", required=True, choices=list(BUILDERS))
    p.add_argument("--nc", type=int, help="cycle size for honeycomb topologies")
    p.add_argument("--m", type=int, help="cycle count for honeycomb topologies")
    p.add_argument("--rows", type=int, help="cell rows for array topologies")
    p.add_argument("--cols", type=int, help="cell columns for array topologies")
    p.add_argument("--coupling", type=float, default=1.0,
                   help="uniform edge weight (default 1.0)")


def _add_noise(theta0: np.ndarray, args) -> np.ndarray:
    """theta0 plus uniform noise in [-noise, noise], drawn from --seed."""
    if not 0 <= 2 * args.noise < np.inf:
        raise ParameterDomainError(
            f"--noise must be >= 0 with 2*noise finite, got {args.noise}")
    if args.noise == 0:
        return theta0
    rng = np.random.default_rng(_resolve_seed(args.seed))
    return theta0 + rng.uniform(-args.noise, args.noise, len(theta0))


def cmd_build(args) -> int:
    g = build_topology(args.topology, *_topology_params(args), args.coupling)
    _write_output(graph_to_json(g), args.output)
    return 0


def cmd_enumerate(args) -> int:
    g = _load_graph(args.graph)
    eqs = enumerate_exact(g, budget=args.budget, jobs=args.jobs)
    _write_output(equilibria_to_json(g, eqs), args.output)
    return 0


def cmd_capacity(args) -> int:
    g = _load_graph(args.graph)
    seed = 0 if args.sample is None else _resolve_seed(args.seed)
    row = count_row("file", 0, 0, g, args.sample, seed, args.jobs)
    _write_output(results_to_csv([row]), args.output)
    return 0


def cmd_store(args) -> int:
    g = _load_graph(args.graph)
    codec = codec_for_graph(g)
    theta = store(args.pattern, codec)
    payload = {
        "pattern": args.pattern,
        "winding": [int(k) for k in decode(args.pattern, codec)],
        "theta": [float(x) for x in theta],
    }
    _write_output(jsonutil.dumps(payload), args.output)
    return 0


def cmd_retrieve(args) -> int:
    g = _load_graph(args.graph)
    codec = codec_for_graph(g)
    theta0 = _add_noise(store(args.pattern, codec), args)
    bits, diag = retrieve(theta0, codec, g, t_max=args.tmax)
    lines = [bits,
             f"t_converged: {diag.t_converged:.6g}",
             f"residual: {diag.residual:.6g}",
             f"cohesive: {str(diag.cohesive).lower()}"]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    if args.init == "zeros":
        theta0 = np.zeros(g.n)
    elif args.init == "random":
        rng = np.random.default_rng(_resolve_seed(args.seed))
        theta0 = rng.uniform(-np.pi, np.pi, g.n)
    else:
        try:
            payload = json.loads(_read_text(args.init))
            values = payload["theta"] if isinstance(payload, dict) else payload
            theta0 = np.asarray([jsonutil.number(x, "state entry") for x in values])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterDomainError(f"malformed state {args.init}: {exc}") from exc
        if len(theta0) != g.n:
            raise ParameterDomainError(
                f"initial state has {len(theta0)} entries, graph has {g.n}")
    theta0 = _add_noise(theta0, args)
    result = integrate(theta0, g, dt=args.dt, t_max=args.tmax,
                       conv_tol=args.conv_tol, record_stride=args.stride)
    header = "t," + ",".join(f"theta_{i}" for i in range(1, g.n + 1))
    lines = [header]
    for t, th in result.trajectory:
        lines.append(",".join([format(t, ".17g")]
                              + [format(x, ".17g") for x in th]))
    _write_output("\n".join(lines) + "\n", args.output)
    sys.stderr.write(f"converged: {str(result.converged).lower()} "
                     f"t: {result.t_elapsed:.6g}\n")
    return 0


def cmd_audit(args) -> int:
    g = _load_graph(args.graph)
    known = enumerate_exact(g, budget=args.budget, jobs=args.jobs)
    report = audit_spurious(g, known, args.trials, seed=_resolve_seed(args.seed),
                            jobs=args.jobs)
    _write_output("\n".join(report.summary_lines()) + "\n", args.output)
    return 0 if not report.unmatched_stable else 4


def cmd_experiment(args) -> int:
    try:
        config = json.loads(_read_text(args.config))
    except ValueError as exc:
        raise ParameterDomainError(f"malformed config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ParameterDomainError(
            f"malformed experiment config: expected a JSON object, got {type(config).__name__}")
    if args.seed is not None or SEED_ENV in os.environ:
        config["seed"] = _resolve_seed(args.seed)
    rows = run_experiment(config, jobs=args.jobs)
    _write_output(results_to_csv(rows), args.output)
    return 0


def cmd_plot(args) -> int:
    import csv
    import io

    rows = list(csv.DictReader(io.StringIO(_read_text(args.results), newline="")))
    _write_output(write_capacity_svg(rows), args.output)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuramem",
        description="Kuramoto-oscillator associative memory toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a topology and write its JSON")
    _add_topology_flags(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("enumerate", help="all stable cohesive equilibria of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("capacity", help="count stable configurations (CSV row)")
    p.add_argument("--graph", required=True)
    p.add_argument("--sample", type=int, metavar="N",
                   help="estimate from N sampled winding vectors (default: exact count)")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("store", help="phase configuration for a bit pattern")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("retrieve",
                       help="store a pattern, perturb it, relax at lock_dt, read it back")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--tmax", type=float, default=DEFAULT_T_MAX)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("simulate", help="integrate and dump a trajectory CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--init", default="random",
                   help="'random', 'zeros', or a JSON file with a theta array")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
    p.add_argument("--tmax", type=float, default=DEFAULT_T_MAX)
    p.add_argument("--conv-tol", type=float, default=DEFAULT_CONV_TOL)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="random-restart search for spurious memories")
    p.add_argument("--graph", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("experiment", help="run a capacity sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="render a sweep CSV as an SVG scatter")
    p.add_argument("--results", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ParameterDomainError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterDomainError, RetrievalError, IntegrationBlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
