"""Tests of the benchmark's own arithmetic, checks and metric list."""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import hostspeed
import reference
from run import END_TO_END_UNITS, ERROR_METRICS, load_workload
from tracing import Layer, Tracer, nearest_rank, self_times, tail_divisor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

GOOD_SUMMARY = (
    "method,task,mean_error,stderr,repeats\n"
    "optimal,filtering,0.17,0.006,50\n"
    "optimal,prediction,0.27,0.008,50\n"
    "nonparametric,filtering,0.23,0.006,50\n"
    "nonparametric,prediction,0.37,0.01,50\n"
)


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] overhangs.
    start = [0.0, 1.0, 2.0, 8.0, 2.5]
    end = [10.0, 3.0, 5.0, 12.0, 4.0]
    parent = [-1, 0, 0, 0, 2]  # span 4 is a grandchild inside span 2
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - (4 + 2), 2.0, 3.0 - 1.5, 4.0, 1.5])


def test_self_time_of_leaf_is_its_duration():
    assert self_times([1.0], [3.5], [-1]) == [2.5]


def _fake_package():
    """A package 'fakepkg' whose module calls its functions through globals."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.work")

    def leaf(k):
        return k

    def step(k):
        return mod.leaf(k) + mod.leaf(k)

    def run(n):
        return [mod.step(k) for k in range(n)]

    mod.leaf, mod.step, mod.run = leaf, step, run
    pkg.work = mod
    return pkg, mod


def test_tracer_records_nested_spans_and_restores(monkeypatch):
    pkg, mod = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.work", mod)
    ticks = iter(range(1000))
    layers = (Layer("work.run", experiment_level=True),
              Layer("work.step", starts_repeat=True, count=lambda a, k, r: r,
                    count_name="total"),
              Layer("work.leaf"))
    tracer = Tracer(layers, clock=lambda: float(next(ticks)))
    original = mod.run
    tracer.install("fakepkg")
    assert mod.run(3) == [0, 2, 4]
    tracer.uninstall()
    assert mod.run is original

    m = tracer.metrics()
    assert m["work.run.calls"][0] == 1
    assert m["work.step.calls"][0] == 3
    assert m["work.leaf.calls"][0] == 6
    assert m["work.step.total"][0] == 0 + 2 + 4
    # Each leaf spans 1 tick; each step spans 5 ticks, 3 of them its own;
    # run spans 19 ticks, 4 of them its own.
    assert m["work.leaf.self_s"][0] == pytest.approx(6.0)
    assert m["work.step.self_s"][0] == pytest.approx(3 * 3.0)
    assert m["work.run.self_s"][0] == pytest.approx(4.0)
    assert list(tracer.repeat) == [-1, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert list(tracer.parent) == [-1, 0, 1, 1, 0, 4, 4, 0, 7, 7]


def test_tracer_on_hmmar_keeps_summary_bytes(tmp_path):
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from hmmar.harness import config_from_dict, example_config_path, run_experiment

    doc = json.loads(Path(example_config_path()).read_text())
    doc.update(n_total=80, eval_window=[61, 80], repeats=2)
    config = config_from_dict(doc)
    run_experiment(config, out_dir=tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        import hmmar.harness
        hmmar.harness.run_experiment(config, out_dir=tmp_path / "traced", trace=True)
    finally:
        tracer.uninstall()
    assert (tmp_path / "plain" / "summary.csv").read_bytes() \
        == (tmp_path / "traced" / "summary.csv").read_bytes()
    m = tracer.metrics()
    M, np_steps = config.model.M, 2 * 20
    assert m["model.simulate.calls"][0] == 2
    assert m["kde.ucv_bandwidth.calls"][0] == 2
    assert m["simplex_qp.solve_kkt.calls"][0] == np_steps
    assert m["gaussian.product_integral.calls"][0] == np_steps * M * (M + 1) // 2
    assert m["harness.emit_trace.bytes"][0] == sum(
        (tmp_path / "traced" / f"trace_{r}.csv").stat().st_size for r in range(2))
    assert set(tracer.repeat) == {-1, 0, 1}


# --- percentiles -----------------------------------------------------------

@pytest.mark.parametrize("n, divisor", [(0, None), (19, None), (20, 2), (99, 2),
                                        (100, 10), (999, 10), (1000, 100),
                                        (10_000, 1000), (2_000_000, 100_000)])
def test_tail_percentile_keeps_ten_samples_beyond(n, divisor):
    assert tail_divisor(n) == divisor


def test_nearest_rank_leaves_n_over_d_beyond():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 10) == 90.0  # 10 values beyond
    assert nearest_rank(values, 2) == 50.0
    assert nearest_rank([7.0], 2) == 7.0
    assert sum(v > nearest_rank(values, 10) for v in values) == 10


# --- output checks ---------------------------------------------------------

def test_good_summary_passes(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(GOOD_SUMMARY)
    errors = checks.check_summary(path, "both", 50)
    assert errors[("nonparametric", "prediction")] == 0.37
    checks.check_error_table(errors, load_workload("example", None).error_table)


@pytest.mark.parametrize("corrupt", [
    lambda s: s.replace("0.17", "nan"),
    lambda s: s.replace("0.17", "1.5"),
    lambda s: s.replace("0.17", "-0.1"),
    lambda s: s.replace("0.006,50", "0.006,49", 1),
    lambda s: s.replace("0.006,50", "inf,50", 1),
    lambda s: "\n".join(s.split("\n")[:-2]) + "\n",           # row missing
    lambda s: s.rstrip("\n"),                                  # truncated
    lambda s: s.replace("mean_error", "mean"),                # header
    lambda s: s.replace("optimal,prediction", "optimal,predict"),
    lambda s: s.replace("0.27,", "0.27,0.1,"),                # extra field
    lambda s: "",
])
def test_corrupted_summary_fails(tmp_path, corrupt):
    path = tmp_path / "summary.csv"
    path.write_text(corrupt(GOOD_SUMMARY))
    with pytest.raises(checks.CheckFailed):
        checks.check_summary(path, "both", 50)


def test_summary_rows_follow_mode(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(GOOD_SUMMARY)
    with pytest.raises(checks.CheckFailed):
        checks.check_summary(path, "optimal", 50)
    lines = GOOD_SUMMARY.split("\n")
    path.write_text("\n".join([lines[0], lines[3], lines[4], ""]))
    assert len(checks.check_summary(path, "nonparametric", 50)) == 2


def test_error_table_outside_tolerance_fails():
    table = load_workload("example", None).error_table
    assert table[("optimal", "filtering")] == (0.164, 0.04)
    errors = {key: target for key, (target, _) in table.items()}
    checks.check_error_table(errors, table)
    errors[("optimal", "filtering")] += 0.041
    with pytest.raises(checks.CheckFailed):
        checks.check_error_table(errors, table)
    with pytest.raises(checks.CheckFailed):
        checks.check_error_table({}, table)
    checks.check_error_table({}, {})


def test_reference_errors_allow_only_near_ties():
    ref = {("optimal", "filtering"): 0.15, ("optimal", "prediction"): 0.25}
    errors = {**ref, ("nonparametric", "filtering"): 0.5}
    checks.check_reference_errors(errors, ref, 1000)
    errors[("optimal", "prediction")] += checks.REFERENCE_SLACK / 1000
    checks.check_reference_errors(errors, ref, 1000)
    errors[("optimal", "prediction")] += 1 / 1000
    with pytest.raises(checks.CheckFailed):
        checks.check_reference_errors(errors, ref, 1000)
    with pytest.raises(checks.CheckFailed):
        checks.check_reference_errors({}, ref, 1000)


def test_short_or_missing_trace_file_fails(tmp_path):
    for r in range(2):
        (tmp_path / f"trace_{r}.csv").write_text("n,x\n" + "1,0.5\n" * 5)
    checks.check_trace_files(tmp_path, 2, 5)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_files(tmp_path, 3, 5)
    (tmp_path / "trace_1.csv").write_text("n,x\n" + "1,0.5\n" * 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_files(tmp_path, 2, 5)


def test_differing_bytes_fail(tmp_path):
    (tmp_path / "a").write_bytes(b"x\n")
    (tmp_path / "b").write_bytes(b"x\n")
    checks.check_same_bytes(tmp_path / "a", tmp_path / "b", "same")
    (tmp_path / "b").write_bytes(b"x \n")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_bytes(tmp_path / "a", tmp_path / "b", "differ")


# --- reference filter ------------------------------------------------------

def test_forward_errors_score_the_window():
    # Two well-separated states: the filter and the prediction are always
    # right, except where the truth is set wrong on purpose.
    p = np.array([[0.9, 0.1], [0.1, 0.9]])
    mu, a, b = np.array([0.0, 10.0]), np.zeros((2, 1)), np.array([0.1, 0.1])
    x = np.array([[0.0] * 6, [10.0] * 6])
    s = np.array([[1] * 6, [2] * 6])
    s[1, 4] = 1
    errs = reference.forward_errors(p, mu, a, b, s, x, (3, 6))
    assert errs[("optimal", "filtering")] == pytest.approx((0 + 1 / 4) / 2)
    assert errs[("optimal", "prediction")] == pytest.approx((0 + 1 / 4) / 2)


def test_reference_filter_matches_hmmar_optimal_filter():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from hmmar.harness import config_from_dict, example_config_path, run_experiment

    doc = json.loads(Path(example_config_path()).read_text())
    doc.update(n_total=400, eval_window=[101, 400], repeats=4, seed=31415, mode="optimal")
    config = config_from_dict(doc)
    summary = run_experiment(config)
    assert reference.optimal_errors(config) == {
        ("optimal", "filtering"): summary.filtering_error_optimal.mean,
        ("optimal", "prediction"): summary.prediction_error_optimal.mean}


# --- host-speed reference --------------------------------------------------

def test_scale_is_reference_over_mean_kernel_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == pytest.approx(1.0)
    assert hostspeed.scale([ref, 3 * ref]) == pytest.approx(0.5)


def test_sampler_runs_kernels_during_block_and_reports_their_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.05)
    start = time.perf_counter()
    with hostspeed.Sampler() as speed:
        while time.perf_counter() - start < 0.4:
            pass
    # one kernel before, several from the timer, one after
    assert len(speed.kernel_times) >= 4
    inside = speed.kernel_times[1:-1]
    assert sum(inside) <= speed.handler_s < 0.4
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- benchmark definition --------------------------------------------------

def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    errors = {name: "ratio" for name in ERROR_METRICS.values()}
    assert per_layer == {**reported, **errors, "trace.overhead_s": "s", "trace.wall_s": "s"}
    names = {w["name"] for w in spec["workloads"]}
    assert names <= {p.stem for p in (BENCH / "workloads").glob("*.toml")}
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "example",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
