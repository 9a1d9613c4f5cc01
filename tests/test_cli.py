import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "kuramem"]
# The checkout's own package: the child runs in tmp_path, where a relative
# PYTHONPATH entry such as "src" would no longer resolve.
SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.pop("KURAMEM_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    # A runaway child fails its test instead of hanging the suite.
    return subprocess.run(CLI + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture()
def g9(tmp_path):
    res = run_cli(["build", "--topology", "honeycomb", "--nc", "5", "--m", "2",
                   "-o", "g9.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    return tmp_path / "g9.json"


def _readme_blocks(lang):
    """The ```lang code blocks of README's "Command line" section."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    return [b.split("\n", 1)[1] for b in section.split("```")[1::2]
            if b.startswith(lang + "\n")]


def test_readme_command_line_runs_as_written(tmp_path):
    (commands,), (config,) = _readme_blocks("bash"), _readme_blocks("json")
    (tmp_path / "experiment.json").write_text(config)
    lines = [line for line in commands.splitlines() if line.startswith("kuramem ")]
    assert len(lines) == 11
    for line in lines:
        res = run_cli(shlex.split(line)[1:], tmp_path)
        assert res.returncode == 0, (line, res.stderr)


def test_build_writes_valid_graph(tmp_path, g9):
    payload = json.loads(g9.read_text())
    assert payload["n"] == 9
    assert len(payload["edges"]) == 10
    assert payload["edges"] == sorted(payload["edges"])


def test_build_hex(tmp_path):
    res = run_cli(["build", "--topology", "hex", "--rows", "1", "--cols", "1",
                   "-o", "hex.json"], tmp_path)
    assert res.returncode == 0
    assert json.loads((tmp_path / "hex.json").read_text())["n"] == 6


def test_build_rejects_domain_error(tmp_path):
    res = run_cli(["build", "--topology", "honeycomb", "--nc", "4", "--m", "1"],
                  tmp_path)
    assert res.returncode == 2
    assert "cycle size" in res.stderr


def test_build_is_byte_deterministic(tmp_path):
    a = run_cli(["build", "--topology", "honeycomb", "--nc", "5", "--m", "2"],
                tmp_path)
    b = run_cli(["build", "--topology", "honeycomb", "--nc", "5", "--m", "2"],
                tmp_path)
    assert a.stdout == b.stdout and a.returncode == 0


def test_enumerate_outputs_nine_equilibria(tmp_path, g9):
    res = run_cli(["enumerate", "--graph", "g9.json", "-o", "eq.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "eq.json").read_text())
    assert len(payload["equilibria"]) == 9
    assert payload["graph"]["n"] == 9
    again = run_cli(["enumerate", "--graph", "g9.json"], tmp_path)
    assert again.stdout == (tmp_path / "eq.json").read_text()


def test_enumerate_budget_exit_code(tmp_path, g9):
    for command in ("enumerate", "audit --trials 1"):
        res = run_cli([*command.split(), "--graph", "g9.json", "--budget", "2"], tmp_path)
        assert res.returncode == 3
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
        assert "9 vectors" in res.stderr and "budget is 2" in res.stderr
        assert res.stdout == ""


def test_missing_graph_file_is_io_error(tmp_path):
    res = run_cli(["enumerate", "--graph", "nope.json"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "nope.json" in res.stderr


def test_capacity_exact_honeycomb(tmp_path):
    build = run_cli(["build", "--topology", "honeycomb", "--nc", "5", "--m", "3",
                     "-o", "g13.json"], tmp_path)
    assert build.returncode == 0, build.stderr
    res = run_cli(["capacity", "--graph", "g13.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    header, row = res.stdout.strip().split("\n")
    assert header.startswith("topology,")
    assert row.split(",")[:6] == ["file", "0", "0", "13", "exact", "27"]


def _csv_cells(csv_text):
    header, row = csv_text.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


def test_capacity_row_is_the_experiment_row(tmp_path):
    from kuramem import run_experiment
    from kuramem.capacity import results_to_csv

    build = run_cli(["build", "--topology", "honeycomb", "--nc", "5", "--m", "3",
                     "-o", "g13.json"], tmp_path)
    assert build.returncode == 0, build.stderr
    res = run_cli(["capacity", "--graph", "g13.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = run_experiment({"families": [{"topology": "honeycomb", "nc": 5, "m_values": [3]}]})
    file_row, sweep_row = _csv_cells(res.stdout), _csv_cells(results_to_csv(rows))
    keys = ("n_nodes", "mode", "count", "ci_low", "ci_high", "samples")
    assert [file_row[k] for k in keys] == [sweep_row[k] for k in keys] \
        == ["13", "exact", "27", "27", "27", "0"]


def test_capacity_sampled_from_graph_file(tmp_path, g9):
    res = run_cli(["capacity", "--graph", "g9.json", "--sample", "50",
                   "--seed", "5"], tmp_path)
    assert res.returncode == 0, res.stderr
    row = res.stdout.strip().split("\n")[1].split(",")
    assert row[4] == "sample"
    assert float(row[5]) == 9.0


def _without_wall_ms(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().split("\n")]


def test_capacity_sample_jobs_match_serial(tmp_path):
    build = run_cli(["build", "--topology", "hex", "--rows", "3", "--cols", "3",
                     "-o", "hex33.json"], tmp_path)
    assert build.returncode == 0, build.stderr
    args = ["capacity", "--graph", "hex33.json", "--sample", "30", "--seed", "5"]
    serial = run_cli([*args, "--jobs", "1"], tmp_path)
    parallel = run_cli([*args, "--jobs", "2"], tmp_path)
    assert serial.returncode == parallel.returncode == 0, parallel.stderr
    assert _without_wall_ms(serial.stdout) == _without_wall_ms(parallel.stdout)


def test_experiment_sampled_row_jobs_match_serial(tmp_path):
    config = {"seed": 2, "samples": 20, "exact_threshold": 30,
              "families": [{"topology": "honeycomb", "nc": 5, "m_values": [1]},
                           {"topology": "hex", "sizes": [[2, 2]]}]}
    (tmp_path / "exp.json").write_text(json.dumps(config))
    serial = run_cli(["experiment", "--config", "exp.json", "--jobs", "1"], tmp_path)
    parallel = run_cli(["experiment", "--config", "exp.json", "--jobs", "2"], tmp_path)
    assert serial.returncode == parallel.returncode == 0, parallel.stderr
    rows = _without_wall_ms(serial.stdout)
    assert [r.split(",")[4] for r in rows[1:]] == ["exact", "sample"]
    assert rows == _without_wall_ms(parallel.stdout)


@pytest.mark.parametrize("flags", [
    ["--topology", "hex"], ["--nc", "5"], ["--m", "2"], ["--rows", "2"],
    ["--cols", "2"], ["--coupling", "3"], ["--coupling", "1"], ["--exact"],
])
def test_capacity_graph_file_rejects_topology_flags(tmp_path, g9, flags):
    # only `build` takes topology flags; capacity counts exactly unless --sample
    res = run_cli(["capacity", "--graph", "g9.json", *flags], tmp_path)
    assert res.returncode == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ["build", "--topology", "hex", "--rows", "1", "--cols", "1", "--nc", "5", "--m", "7"],
    ["build", "--topology", "honeycomb", "--nc", "5", "--m", "1", "--rows", "9",
     "--cols", "9"],
])
def test_topology_rejects_the_other_family_flags(tmp_path, args):
    res = run_cli(args, tmp_path)
    assert res.returncode == 2
    assert "cannot take" in res.stderr and res.stdout == ""


def test_capacity_times_the_count(tmp_path, g9):
    res = run_cli(["capacity", "--graph", "g9.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    header, row = res.stdout.strip().split("\n")
    assert header.endswith(",wall_ms")
    assert float(row.split(",")[-1]) > 0


@pytest.mark.parametrize("topology", ["square", "tri"])
@pytest.mark.parametrize("command", [["store", "--pattern", "1"], ["retrieve", "--pattern", "1"]])
def test_store_and_retrieve_name_a_cell_that_is_not_the_honeycomb(tmp_path, topology, command):
    build = run_cli(["build", "--topology", topology, "--rows", "1", "--cols", "1",
                     "-o", "cell.json"], tmp_path)
    assert build.returncode == 0, build.stderr
    res = run_cli([*command, "--graph", "cell.json"], tmp_path)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: graph is not the honeycomb with nc ")


def test_retrieve_zero_noise_round_trip(tmp_path, g9):
    res = run_cli(["retrieve", "--graph", "g9.json", "--pattern", "0010",
                   "--noise", "0.0", "--seed", "1"], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "0010"
    assert any(line.startswith("cohesive: true") for line in lines)


def test_retrieve_with_noise_recovers(tmp_path, g9):
    res = run_cli(["retrieve", "--graph", "g9.json", "--pattern", "1001",
                   "--noise", "0.1", "--seed", "42"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[0] == "1001"


def test_retrieve_seed_env_var_and_flag_priority(tmp_path, g9):
    base = run_cli(["retrieve", "--graph", "g9.json", "--pattern", "0110",
                    "--noise", "0.3", "--seed", "7"], tmp_path)
    via_env = run_cli(["retrieve", "--graph", "g9.json", "--pattern", "0110",
                       "--noise", "0.3"], tmp_path, {"KURAMEM_SEED": "7"})
    flag_wins = run_cli(["retrieve", "--graph", "g9.json", "--pattern", "0110",
                         "--noise", "0.3", "--seed", "7"], tmp_path,
                        {"KURAMEM_SEED": "99"})
    assert base.stdout == via_env.stdout == flag_wins.stdout


def test_retrieve_rejects_bad_pattern(tmp_path, g9):
    res = run_cli(["retrieve", "--graph", "g9.json", "--pattern", "0000"],
                  tmp_path)
    assert res.returncode == 2


@pytest.mark.parametrize("command", ["store", "retrieve"])
def test_store_and_retrieve_take_no_codec_flags(tmp_path, g9, command):
    # the graph file alone fixes the codec
    res = run_cli([command, "--graph", "g9.json", "--pattern", "0010",
                   "--nc", "5", "--m", "2"], tmp_path)
    assert res.returncode == 2
    assert "unrecognized arguments: --nc 5 --m 2" in res.stderr and res.stdout == ""


def test_store_writes_state(tmp_path, g9):
    res = run_cli(["store", "--graph", "g9.json", "--pattern", "0100",
                   "-o", "state.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "state.json").read_text())
    assert payload["winding"] == [0, -1]
    assert len(payload["theta"]) == 9
    assert payload["theta"][:5] == [0, 0, 0, 0, 0]


@pytest.mark.parametrize("command", ["store", "retrieve"])
@pytest.mark.parametrize("topology,pattern", [
    (["honeycomb_chain", "--nc", "5", "--m", "2"], "0001"),
    (["hex", "--rows", "1", "--cols", "1"], "10"),
])
def test_store_and_retrieve_take_only_the_codec_honeycomb(tmp_path, command,
                                                         topology, pattern):
    # same node count and cycle sizes as a honeycomb, but other edges
    build = run_cli(["build", "--topology", *topology, "-o", "g.json"], tmp_path)
    assert build.returncode == 0, build.stderr
    res = run_cli([command, "--graph", "g.json", "--pattern", pattern], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


def test_simulate_trajectory_csv(tmp_path, g9):
    res = run_cli(["simulate", "--graph", "g9.json", "--init", "random",
                   "--seed", "3", "--tmax", "2", "--stride", "50",
                   "-o", "traj.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert lines[0] == "t," + ",".join(f"theta_{i}" for i in range(1, 10))
    assert len(lines) >= 4
    assert lines[1].split(",")[0] == "0"


def test_simulate_from_stored_state_stays_put(tmp_path, g9):
    store = run_cli(["store", "--graph", "g9.json", "--pattern", "0101",
                     "-o", "state.json"], tmp_path)
    assert store.returncode == 0, store.stderr
    res = run_cli(["simulate", "--graph", "g9.json", "--init", "state.json",
                   "--tmax", "1", "--stride", "10"], tmp_path)
    assert res.returncode == 0
    assert "converged: true" in res.stderr


SIMULATE = ["simulate", "--graph", "g9.json"]
RETRIEVE = ["retrieve", "--graph", "g9.json", "--pattern", "0110"]


@pytest.mark.parametrize("flags", [
    [*SIMULATE, "--stride", "0"], [*SIMULATE, "--stride", "-1"],
    [*SIMULATE, "--tmax", "inf"], [*SIMULATE, "--tmax", "nan"],
    [*SIMULATE, "--seed", "-1"], [*SIMULATE, "--dt", "1e-300", "--tmax", "1e10"],
    [*SIMULATE, "--dt", "1e-300", "--tmax", "1"], [*RETRIEVE, "--tmax", "1e10"],
    *[[*cmd, "--noise", v] for cmd in (SIMULATE, RETRIEVE) for v in ("inf", "nan", "-0.1")],
    [*SIMULATE, "--noise", "1e308"],
    ["enumerate", "--graph", "g9.json", "--jobs", "0"],
    *[[*SIMULATE, "--conv-tol", v] for v in ("nan", "0", "-1", "inf")],
    ["enumerate", "--graph", "g9.json", "--budget", "-5"],
    ["enumerate", "--graph", "g9.json", "--budget", "0"],
])
def test_simulate_rejects_bad_flags(tmp_path, g9, flags):
    res = run_cli(flags, tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


def test_retrieve_takes_no_step_flag(tmp_path, g9):
    # retrieve always relaxes at lock_dt(g)
    res = run_cli([*RETRIEVE, "--dt", "0.01"], tmp_path)
    assert res.returncode == 2
    assert "unrecognized arguments: --dt 0.01" in res.stderr and res.stdout == ""


@pytest.mark.parametrize("args,content", [
    (["simulate", "--graph", "g9.json", "--init"], b"not json"),
    (["simulate", "--graph", "g9.json", "--init"], b'{"theta": ["a", 1]}'),
    (["simulate", "--graph"], b"\xff{}"),
    (["experiment", "--config"], b"not json"),
    (["experiment", "--config"],
     b'{"families": [{"topology": "honeycomb", "nc": "x", "m_values": [1]}]}'),
    (["experiment", "--config"],
     b'{"families": [{"topology": "hex", "sizes": [[1, "a"]]}]}'),
    (["plot", "--results"], b"a,b\n1,2\n"),
    (["simulate", "--graph", "g9.json", "--init"], b"[0, 0, 0, 0, NaN, 0, 0, 0, 0]"),
    (["simulate", "--graph", "g9.json", "--init"], b"[0, 0, 0, 0, Infinity, 0, 0, 0, 0]"),
    *[(["experiment", "--config"],
       b'{"samples": %d, "exact_threshold": 1, "families": '
       b'[{"topology": "honeycomb", "nc": 5, "m_values": [1]}]}' % n) for n in (0, -3)],
    # a family with the keys of the other topology family
    (["experiment", "--config"], b'{"families": [{"topology": "hex", "nc": 2, "m_values": [1]}]}'),
    (["experiment", "--config"], b'{"families": [{"topology": "honeycomb", "sizes": [[5, 2]]}]}'),
    # integers that are not integers
    *[(["experiment", "--config"], b'{%s"families": [{"topology": "honeycomb", "nc": %s, '
       b'"m_values": [%s]}]}' % fields) for fields in [
        (b"", b"5.7", b"1"), (b"", b"5", b"1.2"), (b'"seed": 1.5, ', b"5", b"1"),
        (b'"samples": 2.9, "exact_threshold": 1, ', b"5", b"1")]],
    *[(["enumerate", "--graph"], b'{"n": %s, "coupling_c": 1.0, "edges": [[%s], [1, 5], '
       b'[2, 3], [3, 4], [4, 5]], "cycle_basis": [[1, 2, 3, 4, 5]]}' % fields)
      for fields in [(b"5", b"true, 2"), (b"5", b"1, 2.9"), (b"5.7", b"1, 2")]],
    # a one-node graph
    *[(args, b'{"n": 1, "coupling_c": 1.0, "edges": [], "cycle_basis": []}') for args in [
        ["enumerate", "--graph"], ["capacity", "--graph"],
        ["capacity", "--sample", "5", "--graph"], ["audit", "--trials", "3", "--graph"],
        ["simulate", "--tmax", "1", "--graph"]]],
    # hex 1x2 with its first hexagon listed twice: |E|-n+1 cycles, all edges, no basis
    *[(args, b'{"n": 10, "coupling_c": 1.0, "edges": [[1, 2], [1, 6], [2, 3], [3, 4], [3, 8], '
       b'[4, 5], [5, 10], [6, 7], [7, 8], [8, 9], [9, 10]], '
       b'"cycle_basis": [[1, 2, 3, 8, 7, 6], [1, 2, 3, 8, 7, 6]]}')
      for args in [["capacity", "--graph"], ["enumerate", "--graph"]]],
    # a sweep is checked whole before its first row: a misspelt key, a threshold
    # above the enumeration budget, a family its builder refuses after a good one
    *[(["experiment", "--config"], b'{%s"families": [{"topology": "honeycomb", "nc": 5, '
       b'"m_values": [1]}%s]}' % fields) for fields in [
        (b'"sampels": 3, ', b""), (b'"exact_threshold": 10000001, ', b""),
        (b"", b', {"topology": "honeycomb", "nc": 4, "m_values": [1]}'),
        (b"", b', {"topology": "hex", "sizes": [[0, 1]]}')]],
    # --init entries that are not JSON numbers, or not finite floats
    *[pytest.param(["simulate", "--graph", "g9.json", "--init"],
                   b'{"theta": [%s, 0, 0, 0, 0, 0, 0, 0, 0]}' % entry, id=f"init-{name}")
      for name, entry in [("string", b'"0.1"'), ("bool", b"true"),
                          ("400-digit-int", b"1" + b"0" * 400)]],
])
def test_malformed_input_file_exits_2(tmp_path, g9, args, content):
    (tmp_path / "input").write_bytes(content)
    res = run_cli([*args, "input"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


@pytest.mark.parametrize("content", [b"[1]", b'"x"'])
@pytest.mark.parametrize("seed_args,env", [([], None), (["--seed", "1"], None),
                                           ([], {"KURAMEM_SEED": "1"})])
def test_experiment_config_that_is_not_an_object_exits_2(tmp_path, content, seed_args, env):
    (tmp_path / "exp.json").write_bytes(content)
    res = run_cli(["experiment", "--config", "exp.json", *seed_args], tmp_path, env)
    assert res.returncode == 2
    assert res.stderr.startswith("error: malformed experiment config")
    assert len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


def test_plot_skips_rows_it_cannot_place():
    from kuramem.plotting import write_capacity_svg

    good = {"topology": "hex", "param1": "1", "n_nodes": "6", "count": "3", "mode": "exact"}
    bad = [dict(good, ci_low="abc"), dict(good, count="nan"), dict(good, count="inf")]
    assert write_capacity_svg([good, *bad]) == write_capacity_svg([good])


def test_audit_reports_no_unmatched(tmp_path, g9):
    res = run_cli(["audit", "--graph", "g9.json", "--trials", "50",
                   "--seed", "7"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "unmatched: 0" in res.stdout
    assert "trials: 50" in res.stdout


def test_build_enumerate_capacity_round_trip(tmp_path, g9):
    from kuramem import num_patterns

    enum = run_cli(["enumerate", "--graph", "g9.json", "-o", "eq.json"], tmp_path)
    assert enum.returncode == 0
    n_eq = len(json.loads((tmp_path / "eq.json").read_text())["equilibria"])
    cap = run_cli(["capacity", "--graph", "g9.json"], tmp_path)
    count = float(cap.stdout.strip().split("\n")[1].split(",")[5])
    assert n_eq == count == num_patterns(5, 2) == 9


def test_audit_accepts_jobs_flag(tmp_path, g9):
    res = run_cli(["audit", "--graph", "g9.json", "--trials", "24",
                   "--seed", "7", "--jobs", "2"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "unmatched: 0" in res.stdout


def test_experiment_and_plot(tmp_path):
    config = {
        "seed": 0,
        "samples": 50,
        "exact_threshold": 30,
        "families": [
            {"topology": "honeycomb", "nc": 5, "m_values": [1, 2]},
            {"topology": "hex", "sizes": [[1, 1]]},
        ],
    }
    (tmp_path / "exp.json").write_text(json.dumps(config))
    res = run_cli(["experiment", "--config", "exp.json", "-o", "results.csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 4

    plot = run_cli(["plot", "--results", "results.csv", "-o", "fig.svg"],
                   tmp_path)
    assert plot.returncode == 0, plot.stderr
    svg = (tmp_path / "fig.svg").read_text()
    assert svg.startswith("<svg")
    assert "honeycomb-5" in svg

    plot2 = run_cli(["plot", "--results", "results.csv"], tmp_path)
    assert plot2.stdout == svg
