import importlib

import numpy as np
import pytest

from kuramem import (NonIntegerWindingError, ParameterDomainError,
                     build_hex_array, build_honeycomb,
                     build_square_array, build_topology, build_tri_array,
                     count_exact, run_experiment, sample_estimate,
                     wilson_interval)
from kuramem.capacity import RESULT_FIELDS, results_to_csv
from kuramem.equilibria import ENUMERATION_BUDGET

# reference values computed with an independent Wilson implementation
WILSON_CASES = [
    (50, 100, 0.4038315303659956, 0.5961684696340044),
    (0, 100, 0.0, 0.03699349820698568),
    (100, 100, 0.9630065017930143, 1.0),
    (3, 500, 0.002042596271960237, 0.01749025210405338),
    (1, 10, 0.017876213095072868, 0.4041500267952385),
]


@pytest.mark.parametrize("hits,n,lo,hi", WILSON_CASES)
def test_wilson_reference_values(hits, n, lo, hi):
    got_lo, got_hi = wilson_interval(hits, n)
    assert got_lo == pytest.approx(lo, abs=1e-12)
    assert got_hi == pytest.approx(hi, abs=1e-12)


def test_wilson_contains_point_estimate_and_clips():
    for hits, n in [(0, 7), (7, 7), (3, 9), (1, 1000)]:
        lo, hi = wilson_interval(hits, n)
        assert 0.0 <= lo <= hits / n <= hi <= 1.0


def test_wilson_rejects_bad_input():
    with pytest.raises(ParameterDomainError):
        wilson_interval(1, 0)
    with pytest.raises(ParameterDomainError):
        wilson_interval(5, 3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_count_exact_pentagonal_powers(m):
    est = count_exact(build_honeycomb(5, m))
    assert est.exact == 3 ** m
    assert est.ci_low == est.ci_high == est.exact


def test_count_exact_trivial_arrays():
    assert count_exact(build_square_array(2, 2)).exact == 1
    assert count_exact(build_tri_array(2, 2)).exact == 1


def test_count_exact_single_hexagon():
    assert count_exact(build_hex_array(1, 1)).exact == 3


def test_sample_degenerate_box_is_exact():
    # all triangle windings are forced to zero: the box has one vector
    g = build_tri_array(1, 1)
    est = sample_estimate(g, samples=20, seed=5)
    assert est.box_size == 1
    assert est.estimate in (0.0, 1.0)
    assert est.estimate == 1.0  # synchrony is always exhibited


def test_sample_estimate_close_to_exact():
    g = build_honeycomb(5, 1)
    exact = count_exact(g).exact
    est = sample_estimate(g, samples=30, seed=12)
    half_width = (est.ci_high - est.ci_low) / 2
    assert abs(est.estimate - exact) <= max(half_width, 1e-12)
    assert est.ci_low <= est.estimate <= est.ci_high
    assert 0.0 <= est.ci_low and est.ci_high <= est.box_size


def test_sample_estimate_deterministic_per_seed():
    g = build_honeycomb(5, 2)
    a = sample_estimate(g, samples=50, seed=3)
    b = sample_estimate(g, samples=50, seed=3)
    assert (a.hits, a.estimate, a.ci_low, a.ci_high) == \
        (b.hits, b.estimate, b.ci_low, b.ci_high)


def test_sample_estimate_refuses_more_draws_than_the_budget_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ParameterDomainError, match="samples must be in 1..10000000"):
        sample_estimate(build_honeycomb(5, 3), samples=ENUMERATION_BUDGET + 1)


def test_build_topology_dispatch():
    assert build_topology("honeycomb", 5, 2).n == 9
    assert build_topology("hex", 1, 1).n == 6
    for kind in ("moebius", "hex_array"):   # each kind has one name
        with pytest.raises(ParameterDomainError):
            build_topology(kind, 1, 1)


EXPERIMENT_CONFIG = {
    "seed": 0,
    "samples": 100,
    "exact_threshold": 100,
    "families": [
        {"topology": "honeycomb", "nc": 5, "m_values": [1, 2, 3]},
        {"topology": "honeycomb", "nc": 9, "m_values": [1]},
        {"topology": "hex", "sizes": [[1, 1]]},
    ],
}


@pytest.fixture(scope="module")
def experiment_rows():
    return run_experiment(EXPERIMENT_CONFIG)


def test_experiment_row_shape(experiment_rows):
    assert len(experiment_rows) == 5
    for row in experiment_rows:
        assert row["mode"] in ("exact", "sample")
        assert row["n_nodes"] >= 1


def test_experiment_pentagonal_counts(experiment_rows):
    penta = [r for r in experiment_rows
             if r["topology"] == "honeycomb" and r["param1"] == 5]
    assert [r["count"] for r in penta] == [3, 9, 27]
    assert [r["n_nodes"] for r in penta] == [5, 9, 13]
    # exact geometric growth: log2(count) affine in node count
    logs = np.log2([r["count"] for r in penta])
    n = np.array([r["n_nodes"] for r in penta], dtype=float)
    slope, intercept = np.polyfit(n, logs, 1)
    assert np.max(np.abs(slope * n + intercept - logs)) < 1e-9


def test_experiment_nonagonal_count(experiment_rows):
    nona = [r for r in experiment_rows
            if r["topology"] == "honeycomb" and r["param1"] == 9]
    assert [r["count"] for r in nona] == [5]


def test_experiment_sampled_mode_kicks_in():
    config = {
        "seed": 1, "samples": 60, "exact_threshold": 5,
        "families": [{"topology": "honeycomb", "nc": 5, "m_values": [2]}],
    }
    (row,) = run_experiment(config)
    assert row["mode"] == "sample"
    assert row["samples"] == 60
    assert row["ci_low"] <= row["count"] <= row["ci_high"]


@pytest.mark.parametrize("bad", [{"topology": "honeycomb", "nc": 4, "m_values": [1]},
                                 {"topology": "hex", "sizes": [[0, 1]]}])
def test_experiment_bad_family_stops_the_sweep_before_any_count(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(importlib.import_module("kuramem.capacity"), "count_exact",
                        lambda *args, **kwargs: calls.append(args))
    config = {"families": [{"topology": "honeycomb", "nc": 5, "m_values": [1]}, bad]}
    with pytest.raises(ParameterDomainError):
        run_experiment(config)
    assert calls == []


def test_experiment_lets_a_winding_error_in_a_row_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise NonIntegerWindingError("cycle sum 0.5 is not an integer")

    monkeypatch.setattr(importlib.import_module("kuramem.capacity"), "count_exact", broken)
    with pytest.raises(NonIntegerWindingError):
        run_experiment({"families": [{"topology": "honeycomb", "nc": 5, "m_values": [1]}]})


@pytest.mark.parametrize("config,match", [
    ({"exact_threshold": ENUMERATION_BUDGET + 1}, "exact_threshold must be <="),
    ({"sampels": 3}, "keys must be among"),
    ({"samples": ENUMERATION_BUDGET + 1}, "samples must be in 1..10000000"),
])
def test_experiment_refuses_a_bad_sweep_setting(config, match):
    families = [{"topology": "honeycomb", "nc": 5, "m_values": [1]}]
    with pytest.raises(ParameterDomainError, match=match):
        run_experiment({**config, "families": families})


@pytest.mark.parametrize("config,kind", [("seed", "str"), ([], "list"), (5, "int")])
def test_experiment_config_that_is_not_a_dict_is_refused(config, kind):
    # the library checks the shape itself, with the message the CLI prints
    with pytest.raises(ParameterDomainError, match=rf"^malformed experiment config: "
                                                   rf"expected a JSON object, got {kind}$"):
        run_experiment(config)


def test_experiment_lets_bugs_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    # the package's `capacity` attribute is memory.capacity, not the module
    monkeypatch.setattr(importlib.import_module("kuramem.capacity"), "build_topology", broken)
    with pytest.raises(RuntimeError):
        run_experiment({"families": [{"topology": "honeycomb", "nc": 5, "m_values": [1]}]})


def test_experiment_deterministic_modulo_walltime():
    rows_a = run_experiment(EXPERIMENT_CONFIG)
    rows_b = run_experiment(EXPERIMENT_CONFIG)
    for a, b in zip(rows_a, rows_b):
        for key in RESULT_FIELDS:
            if key == "wall_ms":
                continue
            assert a.get(key) == b.get(key)


def test_results_csv_header_and_cells(experiment_rows):
    text = results_to_csv(experiment_rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("topology,param1,param2,n_nodes,mode,count,"
                        "ci_low,ci_high,samples,seed,wall_ms")
    assert len(lines) == 1 + len(experiment_rows)
    first = lines[1].split(",")
    assert first[0] == "honeycomb" and first[5] == "3"
