import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hmmar.filters import FilterRun, run_filters
from hmmar.harness import (ConfigError, ExperimentConfig, config_from_dict,
                           emit_trace, example_config, load_config,
                           run_experiment, write_summary)
from hmmar.kde import embed, ucv_bandwidth
from hmmar.model import (ArStateParams, SwitchingArModel, Trajectory,
                         TransitionMatrix, simulate)

from example_model import EXAMPLE_P
from regenerate_goldens import moved


def small_doc(**overrides):
    doc = {
        "model": {
            "transition": EXAMPLE_P,
            "states": [{"mu": 0.0, "a": [0.3, 0.2], "b": 0.1},
                       {"mu": 0.5, "a": [0.2, 0.3], "b": 0.2},
                       {"mu": 1.0, "a": [0.1, 0.4], "b": 0.1}],
        },
        "n_total": 100,
        "eval_window": [61, 100],
        "tau": 2,
        "l": 1,
        "repeats": 2,
        "seed": 0,
        "burn_in": 50,
        "mode": "both",
    }
    doc.update(overrides)
    return doc


def separated_config(repeats=1, mode="optimal"):
    model = SwitchingArModel(
        TransitionMatrix([[0.9, 0.1], [0.1, 0.9]]),
        [ArStateParams(0.0, [0.0], 1.0), ArStateParams(50.0, [0.0], 1.0)],
    )
    return ExperimentConfig(model=model, n_total=400, eval_window=[101, 400],
                            tau=2, l=1, repeats=repeats, seed=0, burn_in=50,
                            mode=mode)


class TestConfigParsing:
    def test_example_config_is_bundled(self):
        cfg = example_config()
        assert cfg.model.M == 3
        np.testing.assert_allclose(cfg.model.transition.p, EXAMPLE_P)
        assert cfg.n_total == 600
        assert cfg.eval_window == (501, 600)
        assert (cfg.tau, cfg.l, cfg.repeats, cfg.seed) == (2, 1, 50, 0)
        assert cfg.mode == "both"

    def test_defaults_fill_in(self):
        doc = small_doc()
        for key in ("tau", "l", "repeats", "seed", "burn_in", "mode"):
            del doc[key]
        cfg = config_from_dict(doc)
        assert (cfg.tau, cfg.l, cfg.repeats, cfg.seed, cfg.burn_in) == (2, 1, 50, 0, 100)
        assert cfg.mode == "both"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict(small_doc(bogus=1))

    def test_missing_required_key(self):
        doc = small_doc()
        del doc["eval_window"]
        with pytest.raises(ConfigError, match="eval_window"):
            config_from_dict(doc)

    def test_model_errors_are_labeled(self):
        doc = small_doc()
        doc["model"]["states"][0]["b"] = -1.0
        with pytest.raises(ConfigError, match="model"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("n_total", 0),
        ("eval_window", [0, 100]),
        ("eval_window", [90, 80]),
        ("eval_window", [61, 101]),
        ("tau", 0),
        ("l", 0),
        ("repeats", 0),
        ("seed", -1),
        ("burn_in", -1),
        ("mode", "bayes"),
    ])
    def test_invalid_values_name_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field.split("_")[0]):
            config_from_dict(small_doc(**{field: value}))

    @pytest.mark.parametrize("field,value", [
        ("eval_window", [61, 100, 3]),
        ("eval_window", [61]),
        ("eval_window", 61),
        ("eval_window", [61.0, 100]),
        ("eval_window", [True, 100]),
        ("n_total", 100.5),
        ("n_total", 100.0),
        ("tau", True),
        ("l", "1"),
        ("repeats", 2.5),
        ("seed", "0"),
        ("seed", None),
        ("burn_in", [50]),
    ])
    def test_wrong_types_name_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            config_from_dict(small_doc(**{field: value}))

    @pytest.mark.parametrize("param,value", [
        ("mu", float("nan")),
        ("a", [float("inf"), 0.2]),
        ("b", float("inf")),
    ])
    def test_non_finite_model_parameters_rejected(self, param, value):
        doc = small_doc()
        doc["model"]["states"][1][param] = value
        with pytest.raises(ConfigError, match=rf"^model: states\[1\]\.{param} must be"):
            config_from_dict(doc)

    def test_eval_window_must_clear_warmup(self):
        with pytest.raises(ConfigError, match="warm-up"):
            config_from_dict(small_doc(eval_window=[20, 100]))

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for data in (b"{not json", b'\xff{"model": 1}', b"[" * 100_000):  # not UTF-8; too deep
            path.write_bytes(data)
            with pytest.raises(ConfigError, match="is not valid JSON"):
                load_config(path)

    def test_override_revalidates(self):
        cfg = config_from_dict(small_doc())
        cfg2 = replace(cfg, repeats=5, mode="optimal")
        assert (cfg2.repeats, cfg2.mode) == (5, "optimal")
        assert cfg.repeats == 2  # original untouched
        with pytest.raises(ConfigError):
            replace(cfg, mode="nope")


class TestRunExperiment:
    def test_separated_states_near_zero_error(self):
        summary = run_experiment(separated_config())
        assert summary.filtering_error_optimal.mean < 0.01
        assert summary.filtering_error_nonparametric is None

    def test_mode_selects_methods(self):
        cfg = config_from_dict(small_doc(mode="nonparametric"))
        summary = run_experiment(cfg)
        assert summary.filtering_error_optimal is None
        assert summary.filtering_error_nonparametric is not None

    def test_single_mode_runs_match_the_joint_run(self):
        # trajectories depend only on the seed, so each method's errors are
        # identical whether it runs alone or alongside the other
        both = run_experiment(config_from_dict(small_doc()))
        opt = run_experiment(config_from_dict(small_doc(mode="optimal")))
        nonp = run_experiment(config_from_dict(small_doc(mode="nonparametric")))
        assert opt.filtering_error_optimal == both.filtering_error_optimal
        assert opt.prediction_error_optimal == both.prediction_error_optimal
        assert nonp.filtering_error_nonparametric == both.filtering_error_nonparametric
        assert nonp.prediction_error_nonparametric == both.prediction_error_nonparametric

    def test_summary_matches_records(self, monkeypatch):
        import hmmar.harness as harness
        runs = []

        def kept(trajectories, *args, **kwargs):
            block = run_filters(trajectories, *args, **kwargs)
            runs.extend(block)
            return block

        monkeypatch.delenv("HMMAR_THREADS", raising=False)
        monkeypatch.setattr(harness, "run_filters", kept)
        cfg = config_from_dict(small_doc(repeats=2))
        summary = run_experiment(cfg)
        lo, hi = cfg.eval_window
        means = []
        for r, run in enumerate(runs):
            traj = simulate(cfg.model, cfg.n_total, cfg.burn_in, cfg.seed + r)
            assert run.eval_start == lo
            assert run.optimal_posterior.shape == (hi - lo + 1, cfg.model.M)
            errs = run.optimal_posterior.argmax(axis=1) + 1 != traj.s[lo - 1:hi]
            means.append(np.mean(errs))
        assert summary.filtering_error_optimal.mean == pytest.approx(np.mean(means))

    def test_deterministic_summary_bytes(self, tmp_path):
        cfg = config_from_dict(small_doc())
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a == b
        assert b"method,task,mean_error,stderr,repeats" in a

    def test_parallel_equals_serial(self, tmp_path, monkeypatch):
        # summary.csv and every trace file, byte for byte; two real workers on any host
        import hmmar.harness as harness
        cfg = config_from_dict(small_doc(repeats=4))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.delenv("HMMAR_THREADS", raising=False)
        run_experiment(cfg, out_dir=tmp_path / "serial", trace=True)
        monkeypatch.setenv("HMMAR_THREADS", "2")
        run_experiment(cfg, out_dir=tmp_path / "par", trace=True)
        names = ["summary.csv", *(f"trace_{r}.csv" for r in range(4))]
        for side in ("serial", "par"):
            assert sorted(f.name for f in (tmp_path / side).iterdir()) == sorted(names)
        for name in names:
            serial, par = ((tmp_path / side / name).read_bytes() for side in ("serial", "par"))
            assert serial == par, name

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("HMMAR_THREADS", "many")
        with pytest.raises(ConfigError, match="HMMAR_THREADS"):
            run_experiment(config_from_dict(small_doc(repeats=1)))

    def test_negative_thread_count_rejected(self, monkeypatch):
        import hmmar.harness as harness
        monkeypatch.setenv("HMMAR_THREADS", "-1")
        with pytest.raises(ConfigError, match="^HMMAR_THREADS must be >= 0, got -1$"):
            harness._worker_count(4)

    def test_zero_threads_is_one_worker_per_cpu(self, monkeypatch):
        # _worker_count only counts; no pool starts here
        import hmmar.harness as harness
        monkeypatch.setenv("HMMAR_THREADS", "0")
        for repeats in (1, 2, 1000):
            assert harness._worker_count(repeats) == min(os.cpu_count(), repeats)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)  # CPU count unknown
        assert harness._worker_count(1000) == 1

    def test_thread_count_is_capped_at_the_cpus(self, monkeypatch):
        # a fork pool starts all its workers at once, so HMMAR_THREADS=64 on 2 CPUs asks for 2;
        # _worker_count only counts, and no pool starts here
        import hmmar.harness as harness
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HMMAR_THREADS", "64")
        assert [harness._worker_count(r) for r in (1, 2, 100)] == [1, 2, 2]
        monkeypatch.setenv("HMMAR_THREADS", "1")
        assert harness._worker_count(100) == 1

    @pytest.mark.parametrize("threads", [None, "2"])
    @pytest.mark.parametrize("factor,tail", [
        (1e200, r" reaches .*, past .*, where the filters' arithmetic overflows$"),
        (1e-130, r": h_plus .* is below .*, where UCV's 1/h\^3 overflows$"),
    ], ids=["too-wide", "too-narrow"])
    def test_rejected_series_names_its_seed(self, monkeypatch, threads, factor, tail):
        # only seed 2 is out of range: index 2 of one serial block of 4, and index 0
        # of the second block of 2 with two workers, whose ConfigError crosses the pool
        import hmmar.harness as harness

        def simulate_one_off(model, n, burn_in, rng_seed):
            traj = simulate(model, n, burn_in, rng_seed)
            return Trajectory(s=traj.s, x=factor * traj.x) if rng_seed == 2 else traj

        monkeypatch.setattr(harness, "simulate", simulate_one_off)
        if threads is None:
            monkeypatch.delenv("HMMAR_THREADS", raising=False)
        elif multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched simulate reaches pool workers only through fork")
        else:
            monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # two workers on any host
            monkeypatch.setenv("HMMAR_THREADS", threads)
        with pytest.raises(ConfigError, match="^model: the series of seed 2" + tail) as info:
            run_experiment(config_from_dict(small_doc(repeats=4)))
        assert type(info.value) is ConfigError

    def test_nonparametric_run_embeds_each_series_once(self, monkeypatch):
        # the range check and UCV's sample come from one embedding per series
        import hmmar.filters as filters
        import hmmar.harness as harness
        calls = []

        def counted(embed):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return embed(*args, **kwargs)
            return wrapper

        for module in (filters, harness):
            if hasattr(module, "embed"):
                monkeypatch.setattr(module, "embed", counted(module.embed))
        monkeypatch.delenv("HMMAR_THREADS", raising=False)
        run_experiment(replace(example_config(), mode="nonparametric"))
        assert len(calls) == 50

    def test_stderr_shrinks_like_inverse_sqrt_repeats(self):
        cfg = config_from_dict(small_doc(repeats=160, mode="optimal",
                                         n_total=80, eval_window=[41, 80]))
        summary = run_experiment(cfg)
        vals = summary.per_repeat["optimal_filtering"]

        def se(k):
            return vals[:k].std(ddof=1) / np.sqrt(k)

        # ideal ratios are 2 and 4; allow a factor of 2 either way
        assert 1.0 <= se(10) / se(40) <= 4.0
        assert 2.0 <= se(10) / se(160) <= 8.0

    def test_trace_requires_out_dir(self):
        with pytest.raises(ConfigError, match="out_dir"):
            run_experiment(config_from_dict(small_doc(repeats=1)), trace=True)


class TestEmitTrace:
    def test_empty_records_write_header_only(self, tmp_path):
        traj = Trajectory(s=[1, 2], x=[0.0, 1.0])
        path = tmp_path / "trace.csv"
        empty = np.zeros((0, 2))
        emit_trace(traj, FilterRun(3, np.zeros(0, dtype=bool), empty, empty, empty, empty), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("n,s_true,x,s_opt_filter,s_np_filter,s_opt_pred,s_np_pred")
        assert lines[0].endswith("post_opt_1,post_opt_2,post_np_1,post_np_2")

    def test_roundtrip_and_row_count(self, tmp_path):
        cfg = config_from_dict(small_doc(repeats=1))
        traj = simulate(cfg.model, cfg.n_total, cfg.burn_in, cfg.seed)
        run = run_filters([traj.x], cfg.model, tau=cfg.tau, l=cfg.l,
                          eval_start=cfg.eval_window[0])[0]
        path = tmp_path / "trace.csv"
        emit_trace(traj, run, path)
        lines = path.read_text().splitlines()
        lo, hi = cfg.eval_window
        assert len(lines) == 1 + (hi - lo + 1)
        header = lines[0].split(",")
        for k, line in enumerate(lines[1:]):
            n = lo + k
            cells = dict(zip(header, line.split(",")))
            assert int(cells["n"]) == n
            assert float(cells["x"]) == traj.x[n - 1]  # exact round trip
            assert int(cells["s_opt_filter"]) == np.argmax(run.optimal_posterior[k]) + 1
            assert int(cells["s_np_pred"]) == np.argmax(run.nonparametric_predictive[k]) + 1
            for m in range(3):
                assert float(cells[f"post_np_{m+1}"]) == run.nonparametric_posterior[k, m]

    def test_missing_method_leaves_cells_empty(self, tmp_path):
        cfg = config_from_dict(small_doc(repeats=1, mode="optimal"))
        traj = simulate(cfg.model, cfg.n_total, cfg.burn_in, cfg.seed)
        run = run_filters([traj.x], cfg.model, eval_start=cfg.eval_window[0],
                          mode="optimal")[0]
        path = tmp_path / "trace.csv"
        emit_trace(traj, run, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = dict(zip(header, lines[1].split(",")))
        assert cells["s_np_filter"] == ""
        assert cells["post_np_1"] == ""
        assert cells["s_opt_filter"] != ""
        lo, hi = cfg.eval_window
        assert len(lines) == 1 + (hi - lo + 1)  # every step, empty columns and all
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_trajectory_shorter_than_run_rejected(self, tmp_path):
        cfg = config_from_dict(small_doc(repeats=1, mode="optimal"))
        traj = simulate(cfg.model, cfg.n_total, cfg.burn_in, cfg.seed)
        run = run_filters([traj.x], cfg.model, eval_start=cfg.eval_window[0],
                          mode="optimal")[0]
        short = Trajectory(s=traj.s[:-1], x=traj.x[:-1])
        with pytest.raises(ValueError, match="the run ends at n = 100"):
            emit_trace(short, run, tmp_path / "trace.csv")

    def test_missing_directory_names_the_trace_file(self, tmp_path):
        cfg = config_from_dict(small_doc(repeats=1, mode="optimal"))
        traj = simulate(cfg.model, cfg.n_total, cfg.burn_in, cfg.seed)
        run = run_filters([traj.x], cfg.model, eval_start=cfg.eval_window[0], mode="optimal")[0]
        path = tmp_path / "missing" / "trace.csv"
        with pytest.raises(OSError, match=f"^cannot write trace file {re.escape(str(path))}: "):
            emit_trace(traj, run, path)

    def test_trace_files_written_by_run_experiment(self, tmp_path):
        cfg = config_from_dict(small_doc(repeats=2))
        run_experiment(cfg, out_dir=tmp_path, trace=True)
        assert (tmp_path / "trace_0.csv").exists()
        assert (tmp_path / "trace_1.csv").exists()
        assert (tmp_path / "summary.csv").exists()


def test_write_summary_format(tmp_path):
    cfg = config_from_dict(small_doc(repeats=2))
    summary = run_experiment(cfg)
    path = tmp_path / "summary.csv"
    write_summary(summary, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,task,mean_error,stderr,repeats"
    assert len(lines) == 5  # both methods x both tasks
    for line in lines[1:]:
        method, task, mean, stderr, repeats = line.split(",")
        assert method in ("optimal", "nonparametric")
        assert task in ("filtering", "prediction")
        assert 0.0 <= float(mean) <= 1.0
        assert float(stderr) >= 0.0
        assert int(repeats) == 2


DATA = Path(__file__).parent / "data"
GOLDEN_DIGESTS = json.loads((DATA / "golden_traces.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["golden_example", "golden_qp_dense", "golden_optimal"])
def test_summary_matches_golden_bytes(name):
    # summary.csv and the sha256 of every trace CSV fixed when the files were
    # committed: any change to either filter's decisions or probabilities, the
    # bandwidth search or the CSV formats shows here, one line per moved row or digest
    assert moved(name, GOLDEN_DIGESTS) == []


@pytest.mark.parametrize("name", ["golden_example", "golden_qp_dense", "golden_optimal"])
def test_two_repeat_blocks_keep_golden_bytes(name, monkeypatch):
    # blocks are filtered in lockstep; a budget of one cell and a floor of 2
    # repeats make every block hold 2 repeats (1 where the count is odd), and
    # the bytes must match the single-block goldens
    import hmmar.harness as harness
    sizes = []

    def counted(trajectories, *args, **kwargs):
        sizes.append(len(trajectories))
        return run_filters(trajectories, *args, **kwargs)

    monkeypatch.setattr(harness, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(harness, "_BLOCK_MIN", 2)
    monkeypatch.setattr(harness, "run_filters", counted)
    assert moved(name, GOLDEN_DIGESTS) == []
    assert sizes == {2: [2], 3: [2, 1]}[load_config(DATA / f"{name}.json").repeats]


def test_golden_summaries_hold_under_other_kernels():
    # every summary.csv row of the goldens holds on another host class: OpenBLAS's AVX2
    # kernel, and numpy without its AVX-512 path, each in its own child.  Trace digests
    # may move (BLAS in _predict and numpy's exp and log round apart); rows may not.
    # golden_qp_dense runs the nonparametric filter alone, whose QP solve is Python floats
    # and calls no BLAS or LAPACK, so under another OpenBLAS kernel its digests hold too
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    settings = [{"OPENBLAS_CORETYPE": "Haswell"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}]
    script = str(Path(__file__).parent / "regenerate_goldens.py")
    children = [subprocess.Popen([sys.executable, script, "--check"], env=dict(base, **setting),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for setting in settings]
    for setting, child in zip(settings, children):
        out, err = child.communicate(timeout=300)
        assert child.returncode in (0, 1), (setting, err[-2000:])
        lines = out.splitlines()
        assert lines and all(" digest " in line or line.startswith("unchanged: ")
                             for line in lines), (setting, lines)
        if "OPENBLAS_CORETYPE" in setting:
            assert not [line for line in lines if line.startswith("golden_qp_dense:")], lines


def block_sizes(cfg, monkeypatch, workers=1):
    """Sizes of the blocks ``run_experiment(cfg)`` hands out to ``workers`` workers, in order.

    A stand-in pool runs the blocks here, and a stand-in block only counts its repeats."""
    import concurrent.futures
    import hmmar.harness as harness
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            assert max_workers == workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    def fake_block(task):
        seen.append(len(task[1]))
        return [{"qp_fallback": 0} for _ in task[1]]

    monkeypatch.setattr(harness.os, "cpu_count", lambda: workers)
    monkeypatch.setenv("HMMAR_THREADS", str(workers))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness, "_run_block", fake_block)
    run_experiment(cfg)
    return seen


def partition_config(base, steps, repeats, mode):
    return replace(base, n_total=steps, eval_window=(501 if steps > 501 else 41, steps),
                   repeats=repeats, mode=mode)


@pytest.mark.parametrize("steps,repeats,sizes", [(600, 50, [10] * 5),  # perfbench's example
                                                  (250, 120, [24] * 5),
                                                  (10_000, 10, [4, 4, 2])])  # optimal_long
def test_block_partition(steps, repeats, sizes, monkeypatch):
    # about 18,000 step-state cells per block, and 4 repeats at least (the floor sets the
    # width at 10,000 steps)
    cfg = partition_config(example_config(), steps, repeats, "optimal")
    assert block_sizes(cfg, monkeypatch) == sizes


@pytest.mark.parametrize("steps,repeats,mode,workers,sizes", [
    (600, 50, "both", 1, [10] * 5),
    (250, 120, "nonparametric", 1, [24] * 5),
    (600, 50, "both", 2, [9] * 5 + [5]),
    (600, 10, "both", 2, [5, 5]),
])
def test_ucv_block_partition(steps, repeats, mode, workers, sizes, monkeypatch):
    # a run that fits UCV takes the same width as an optimal-only run; the blocks are of
    # equal size, and their count is a multiple of the workers
    cfg = partition_config(example_config(), steps, repeats, mode)
    assert block_sizes(cfg, monkeypatch, workers) == sizes


def test_block_partition_counts_states(monkeypatch):
    # the budget is of step-state cells: qp_dense's M = 4 states narrow its blocks to
    # 18,000 // (250 * 4) = 18 repeats, where the example's M = 3 takes 24
    cfg = partition_config(load_config(DATA / "golden_qp_dense.json"), 250, 120, "nonparametric")
    assert block_sizes(cfg, monkeypatch) == [18] * 6 + [12]


@pytest.mark.parametrize("steps", [250, 600, 1200])
def test_widest_ucv_block_stays_under_one_fit(steps, monkeypatch):
    # where the cell budget, not the floor, sets the width, the widest block of a UCV run on
    # the example model, with h pinned, peaks below one UCV fit on one of its series
    # (tracemalloc): the run's largest arrays stay the fit's.  A width of hi // 60 once took
    # 20 repeats at 1,200 steps, 1.64 MiB against a fit's 0.65
    import tracemalloc
    cfg = replace(example_config(), n_total=steps, eval_window=(steps - 99, steps), repeats=1000)
    width = max(block_sizes(cfg, monkeypatch))
    xs = [simulate(cfg.model, steps, cfg.burn_in, seed).x for seed in range(width)]
    sample = embed(xs[0], d=cfg.tau + 1, l=cfg.l)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fit = peak(lambda: ucv_bandwidth(sample))
    block = peak(lambda: run_filters(xs, cfg.model, cfg.tau, cfg.l, eval_start=cfg.eval_window[0],
                                     h=0.05, mode=cfg.mode))
    assert block < fit, (width, block, fit)


def test_block_of_unequal_lengths_rejected():
    cfg = config_from_dict(small_doc())
    x = simulate(cfg.model, cfg.n_total, cfg.burn_in, cfg.seed).x
    with pytest.raises(ValueError, match=r"^x is no \(R, n\) block of numbers: .*inhomogeneous"):
        run_filters([x, x[:-1]], cfg.model, eval_start=cfg.eval_window[0])
    with pytest.raises(ValueError, match=r"^x must be an \(R, n\) block of R >= 1 series, "
                                         r"got shape \(0,\)$"):
        run_filters([], cfg.model, eval_start=cfg.eval_window[0])
