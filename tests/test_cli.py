import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from hmmar import example_config_path, warmup_threshold
from hmmar.cli import main
from hmmar.filters import MODES

from example_model import EXAMPLE_P


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "model": {
            "transition": EXAMPLE_P,
            "states": [{"mu": 0.0, "a": [0.3, 0.2], "b": 0.1},
                       {"mu": 0.5, "a": [0.2, 0.3], "b": 0.2},
                       {"mu": 1.0, "a": [0.1, 0.4], "b": 0.1}],
        },
        "n_total": 100,
        "eval_window": [61, 100],
        "repeats": 2,
        "seed": 0,
        "burn_in": 50,
        "mode": "both",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def edit_config(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_validate_ok(config_path, capsys):
    assert main(["validate", "--config", config_path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_states_the_whole_run(capsys):
    # the config file is the run's only description, so validate prints every field run uses
    assert main(["validate", "--config", example_config_path()]) == 0
    assert capsys.readouterr().out == (
        "config ok: M=3, n_total=600, eval_window=[501, 600], tau=2, l=1, repeats=50, "
        "seed=0, burn_in=100, mode=both\n")


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_total": 5}')
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("eval_window", [61, 100, 3]),
    ("n_total", 100.5),
    ("repeats", 2.5),
    ("tau", True),
    ("seed", "0"),
])
def test_validate_rejects_wrong_types(config_path, field, value, capsys):
    edit_config(config_path, lambda doc: doc.update({field: value}))
    assert main(["validate", "--config", config_path]) == 2
    assert f"config error: {field} must be" in capsys.readouterr().err


def test_non_finite_model_parameter_exits_2(config_path, capsys):
    edit_config(config_path, lambda doc: doc["model"]["states"][0].update(b=float("inf")))
    assert main(["run", "--config", config_path]) == 2
    assert "config error: model: states[0].b must be" in capsys.readouterr().err


def test_underflowing_noise_scale_exits_2(config_path, capsys):
    # b = 1e-200 is positive, but b^2 underflows to a zero emission variance
    edit_config(config_path, lambda doc: doc["model"]["states"][0].update(b=1e-200))
    edit_config(config_path, lambda doc: doc.update(repeats=1))
    assert main(["run", "--config", config_path]) == 2
    assert "config error: model: states[0].b must have a nonzero square" in capsys.readouterr().err


def test_overflowing_noise_scale_exits_2(config_path, capsys):
    # b = 1e160 squares to inf; the run used to exit 3 on the NaN series it simulated
    edit_config(config_path, lambda doc: doc["model"]["states"][0].update(b=1e160))
    edit_config(config_path, lambda doc: doc.update(repeats=1))
    assert main(["run", "--config", config_path]) == 2
    assert "config error: model: states[0].b must have a nonzero square that is finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("states,mode,code,prefix", [
    *[({0: state}, mode, 2, "seed 0 reaches") for state in ({"mu": 1e308}, {"a": [50.0, 0.0]})
      for mode in ("both", "optimal")],  # exit 3 before, after numpy overflow warnings
    ({0: {"mu": 1e60}}, "both", 0, None),  # far inside every term of the limit
    ({0: {"mu": 1e140}}, "both", 2, "seed 0: h_plus"),  # UCV's h ** (tau + 1) would overflow
    ({0: {"mu": 1e140}}, "optimal", 0, None),  # without UCV, 1e140 squares safely
    ({0: {"b": 1e-150}, 1: {"mu": 1e5}}, "optimal", 2,  # (x - mean)^2 / 2b^2 would overflow
     "seed 0 reaches"),
], ids=["mu-1e308-both", "mu-1e308-optimal", "a-explosive-both", "a-explosive-optimal",
        "mu-1e60", "mu-1e140-ucv", "mu-1e140-optimal", "b-tiny"])
def test_overflowing_series_exits_2(tmp_path, states, mode, code, prefix):
    # Each parameter is finite, so validate passes; only the simulated series can
    # show that the filters' arithmetic would overflow.
    doc = json.loads(Path(example_config_path()).read_text())
    doc.update(repeats=3, mode=mode)
    for i, change in states.items():
        doc["model"]["states"][i].update(change)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", "--config", str(path)])[0] == 0
    result, err = run_cli(["run", "--config", str(path)])
    assert result == code, err
    if code == 2:
        assert err.startswith(f"config error: model: the series of {prefix}"), err


def example_with(tmp_path, edit, **fields) -> str:
    """Path of the bundled example config after ``edit(doc)`` and ``doc.update(fields)``,
    with 2 repeats unless ``fields`` sets them."""
    doc = json.loads(Path(example_config_path()).read_text())
    doc["repeats"] = 2
    edit(doc)
    doc.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_without_warnings(args) -> tuple[int, str]:
    """:func:`run_cli`, failing if a RuntimeWarning (numpy's overflow ones) was issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    return result


def scaled(factor):
    """Edit scaling every state's mu and b by ``factor``."""
    def edit(doc):
        for state in doc["model"]["states"]:
            state.update(mu=state["mu"] * factor, b=state["b"] * factor)
    return edit


def tiny_states(doc):
    """Every b at 1e-140 and mu at 0, 1e-139, 2e-139: UCV's 1/h^3 would be 1/0."""
    for state, mu in zip(doc["model"]["states"], (0.0, 1e-139, 2e-139)):
        state.update(mu=mu, b=1e-140)


def constant_series(doc):
    """b too small to move x off mu = 1: the series is constant."""
    for state in doc["model"]["states"]:
        state.update(mu=1.0, b=1e-100)


@pytest.mark.parametrize("edit,mode,code", [
    (tiny_states, "both", 2),  # exited 0 after divide-by-zero warnings in UCV
    (tiny_states, "nonparametric", 2),
    (tiny_states, "optimal", 0),  # no UCV, nothing divides by h
    (scaled(1e-100), "both", 2),  # exited 3: overflow in UCV's 1/h^3
    (scaled(1e-100), "nonparametric", 2),
    (scaled(1e-90), "both", 0),  # h_plus clears the floor
], ids=["tiny-both", "tiny-nonparametric", "tiny-optimal", "1e-100-both",
        "1e-100-nonparametric", "1e-90-both"])
def test_underflowing_series_exits_2(tmp_path, edit, mode, code):
    path = example_with(tmp_path, edit, mode=mode)
    assert run_without_warnings(["validate", "--config", path])[0] == 0
    result, err = run_without_warnings(["run", "--config", path])
    assert result == code, err
    if code == 2:
        assert err.startswith("config error: model: the series of seed 0: h_plus "), err


@pytest.mark.parametrize("k,code", [(-318, 2), (-317, 0), (0, 0), (332, 0), (336, 0), (400, 2)])
def test_example_scaled_by_a_power_of_two(tmp_path, k, code):
    # only h_plus's own range refuses a scale; 2^336 once met a looser bound in the harness
    def edit(doc):
        scaled(2.0 ** k)(doc)
        doc["repeats"] = 3
    path = example_with(tmp_path, edit)
    result, err = run_without_warnings(["run", "--config", path])
    assert result == code, err
    if code == 2:
        assert err.startswith("config error: model: the series of seed 0: h_plus "), err


@pytest.mark.parametrize("mode,code", [("both", 2), ("nonparametric", 2), ("optimal", 0)])
def test_constant_series_exits_2(tmp_path, mode, code):
    # exited 3 with UCV's "degenerate sample"; the optimal filter needs no spread
    path = example_with(tmp_path, constant_series, mode=mode)
    result, err = run_without_warnings(["run", "--config", path])
    assert result == code, err
    if code == 2:
        assert err.rstrip() == ("config error: model: the series of seed 0: "
                                "degenerate sample: all coordinates are constant"), err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_overflowing_a_mu_exits_2(tmp_path, command):
    # a.sum() * mu = 2e308 is past the float range; numpy used to warn, then validate passed
    path = example_with(tmp_path, lambda doc: doc["model"]["states"][0].update(mu=1e308,
                                                                               a=[2.0, 0.0]))
    result, err = run_without_warnings([command, "--config", path])
    assert result == 2
    assert err.startswith("config error: model: states[0].a.sum() * mu leaves the float range"), err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_sticky_chain_runs(tmp_path, command):
    # power iteration did not converge on this chain, and both commands exited 2
    sticky = [[0.999, 0.0005, 0.0005], [0.001, 0.998, 0.001], [0.002, 0.002, 0.996]]
    path = example_with(tmp_path, lambda doc: doc["model"].update(transition=sticky))
    result, err = run_without_warnings([command, "--config", path])
    assert result == 0, err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("transition", [
    [[0.5, 0.5, 0.0], [1e-160, 0.5, 0.5], [0.0, 1e-160, 1.0]],
    [[0.5, 0.5], [1e-309, 1.0]],
], ids=["1e-160", "1e-309"])
def test_chain_with_exits_below_the_float_range_runs(tmp_path, command, transition):
    # a stationary distribution whose elimination divided by these exits came out NaN:
    # validate passed and run exited 3 with an IndexError from the initial-state draw
    def edit(doc):
        doc["model"].update(transition=transition)
        del doc["model"]["states"][len(transition):]
    result, err = run_without_warnings([command, "--config", example_with(tmp_path, edit)])
    assert result == 0, err


@pytest.mark.parametrize("start", [2, 3, 10])
def test_optimal_only_window_starts_past_the_ar_order(tmp_path, start):
    # run_filters records an optimal-only run from n = p + 1 = 3, and validate and run ask the
    # same; the warm-up threshold, 23 here, binds once the nonparametric filter runs
    path = example_with(tmp_path, lambda doc: doc.update(mode="optimal",
                                                         eval_window=[start, 600]))
    out = tmp_path / "out"
    for args in (["validate"], ["run", "--out", str(out)]):
        result, err = run_cli([*args, "--config", path])
        if start > 2:
            assert result == 0, err
        else:
            assert (result, err) == (2, "config error: eval_window start 2 must exceed "
                                        "the AR order 2\n")
    assert out.exists() == (start > 2)
    if start > 2:
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["optimal", "filtering"],
                                                        ["optimal", "prediction"]]
        path = example_with(tmp_path, lambda doc: doc.update(mode="both",
                                                             eval_window=[start, 600]))
        assert run_cli(["run", "--config", path]) == (
            2, f"config error: eval_window start {start} must exceed the warm-up threshold 23\n")


def test_nonparametric_filter_takes_at_most_twelve_states(tmp_path, monkeypatch):
    # each state doubles the QP's table (two 3.45 GiB arrays at M = 20), so validate and
    # run refuse 13 states before any simulation, unless only the optimal filter runs
    import hmmar.harness as harness
    transition = (0.5 * np.eye(13) + 0.5 / 13).tolist()
    states = [{"mu": float(m), "a": [0.2], "b": 0.3} for m in range(13)]

    def run_mode(mode, out):
        path = example_with(tmp_path, lambda doc: doc.update(
            model={"transition": transition, "states": states}, mode=mode))
        return [run_cli([*args, "--config", path]) for args in (["validate"],
                                                                ["run", "--out", str(out)])]

    assert run_mode("optimal", tmp_path / "optimal") == [(0, "")] * 2
    monkeypatch.setattr(harness, "simulate", lambda *args: pytest.fail("simulated"))
    for mode in ("both", "nonparametric"):
        assert run_mode(mode, tmp_path / "out") == [
            (2, "config error: model has 13 states; the nonparametric QP takes at most 12\n")] * 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_reducible_chain_exits_2(config_path, command, capsys):
    # no unique stationary distribution for the optimal filter to start from
    edit_config(config_path, lambda doc: doc["model"].update(
        transition=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert main([command, "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert "config error: model: transition: chain is reducible" in err


@pytest.mark.parametrize("field,edit", [
    ("states[0].mu", lambda model: model["states"][0].update(mu=None)),
    ("states[0].mu", lambda model: model["states"][0].update(mu={})),
    ("states[0].b", lambda model: model["states"][0].update(b=[0.2])),
    ("states[0].a", lambda model: model["states"][0].update(a={})),
    ("states", lambda model: model.update(states=3)),
    ("transition", lambda model: model.update(transition={})),
])
def test_non_numeric_model_document_exits_2(config_path, field, edit, capsys):
    edit_config(config_path, lambda doc: edit(doc["model"]))
    assert main(["validate", "--config", config_path]) == 2
    assert f"config error: model: {field} must be" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "none.json")]) == 2


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    # neither file reaches the config rules: one is not UTF-8, one nests past the recursion limit
    for name, data in (("latin.json", b'\xff{"model": 1}'), ("deep.json", b"[" * 100_000)):
        (tmp_path / name).write_bytes(data)
        assert main(["validate", "--config", str(tmp_path / name)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err


def test_run_writes_summary(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == 0
    text = (out / "summary.csv").read_text()
    assert text.startswith("method,task,mean_error,stderr,repeats\n")
    assert "optimal,filtering," in text
    assert "nonparametric,prediction," in text
    assert "mean_error" in capsys.readouterr().out


def test_run_with_traces(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out), "--trace"]) == 0
    assert (out / "trace_0.csv").exists()
    assert (out / "trace_1.csv").exists()


def test_trace_without_out_is_config_error(config_path):
    assert main(["run", "--config", config_path, "--trace"]) == 2


def test_runtime_failure_exits_3(config_path, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    # out dir path goes through an existing file -> filesystem error at runtime
    assert main(["run", "--config", config_path, "--out", str(blocker / "x")]) == 3


@pytest.mark.parametrize("flag,value", [("--seed", "7"), ("--repeats", "10"),
                                        ("--mode", "optimal"), ("--tau", "3"), ("--stride", "2")])
def test_removed_override_flags_are_usage_errors(config_path, flag, value, capsys):
    # the config file is the run's whole description: no flag changes a field of it
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config_path, flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh ``import hmmar`` loads no scipy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import hmmar, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    """The process pool is imported only for parallel runs: a fresh ``import hmmar`` and a
    serial run load no multiprocessing."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import hmmar, sys; from dataclasses import replace; "
            "hmmar.run_experiment(replace(hmmar.example_config(), repeats=1, mode='optimal')); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'))")
    env = {k: v for k, v in os.environ.items() if k != "HMMAR_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


# Property tests over whole documents: every invalid one is a config error
# naming its field (exit 2, nothing written), every small valid one runs.

@hst.composite
def valid_docs(draw):
    """A small valid config: M 2-5, p 1-4, tau 1-5, l 1-3 and a short series."""
    M, p = draw(hst.integers(2, 5)), draw(hst.integers(1, 4))
    tau, l = draw(hst.integers(1, 5)), draw(hst.integers(1, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    transition = 0.5 * rng.dirichlet(np.ones(M), size=M) + 0.5 * np.eye(M)
    states = [{"mu": float(rng.uniform(-2.0, 2.0)),
               "a": (rng.uniform(-0.9, 0.9, size=p) / p).tolist(),
               "b": float(rng.uniform(0.05, 1.0))} for _ in range(M)]
    lo = warmup_threshold(p, tau) + 1 + draw(hst.integers(0, 10))
    hi = lo + draw(hst.integers(0, 15))
    return {"model": {"transition": transition.tolist(), "states": states},
            "n_total": hi + draw(hst.integers(0, 5)), "eval_window": [lo, hi],
            "tau": tau, "l": l, "repeats": draw(hst.integers(1, 2)),
            "seed": draw(hst.integers(0, 1000)), "burn_in": draw(hst.integers(0, 30)),
            "mode": draw(hst.sampled_from(MODES))}


DELETE = object()
NAN, INF = float("nan"), float("inf")


def state_count(doc):
    return len(doc["model"]["states"])


def refused_start(doc):
    """Largest refused window start: the AR order in mode optimal, else the warm-up threshold."""
    p = len(doc["model"]["states"][0]["a"])
    return p if doc["mode"] == "optimal" else warmup_threshold(p, doc["tau"])


def without_last(seq, doc):
    return seq[:-1]


# (id, path into the document, new value (or DELETE, or a function of the old
# value and the document), text the error must contain; {i} is the last state)
SPOILERS = [
    *[(f"{field}-type", (field,), bad, field) for field, bad in [
        ("n_total", 2.5), ("tau", True), ("l", "3"), ("repeats", None), ("seed", [1]),
        ("burn_in", NAN)]],
    *[(f"{field}-floor", (field,), floor - 1, field)
      for field, floor in {"n_total": 1, "tau": 1, "l": 1, "repeats": 1, "seed": 0,
                           "burn_in": 0}.items()],
    ("window-short", ("eval_window",), lambda w, d: w[:1], "eval_window"),
    ("window-long", ("eval_window",), lambda w, d: w + w[1:], "eval_window"),
    ("window-float", ("eval_window",), lambda w, d: [float(w[0]), w[1]], "eval_window"),
    ("window-text", ("eval_window",), lambda w, d: f"{w[0]},{w[1]}", "eval_window"),
    ("window-reversed", ("eval_window",), lambda w, d: [w[1] + 1, w[1]], "eval_window"),
    ("window-past-end", ("eval_window",), lambda w, d: [w[0], d["n_total"] + 1], "eval_window"),
    ("window-warm-up", ("eval_window",), lambda w, d: [refused_start(d), w[1]], "eval_window"),
    ("stride-too-long", ("l",), lambda l, d: d["eval_window"][1] - d["tau"], "l = "),
    ("mode-case", ("mode",), "Both", "mode"),
    ("mode-null", ("mode",), None, "mode"),
    *[(f"missing-{key}", (key,), DELETE, f"missing '{key}'")
      for key in ("model", "n_total", "eval_window")],
    ("unknown-key", ("eval_windows",), [1, 2], "eval_windows"),
    *[(f"transition-entry-{name}", ("model", "transition", 0, 0), bad, "transition")
      for name, bad in [("nan", NAN), ("inf", INF), ("negative", -0.1), ("above-1", 1.5),
                        ("text", "0.5"), ("null", None), ("huge-int", 10**400)]],
    ("transition-row-sum", ("model", "transition", 0, 0), lambda v, d: v + 1e-9, "transition"),
    ("transition-ragged", ("model", "transition", 0), without_last, "transition"),
    ("transition-not-square", ("model", "transition"), without_last, "transition"),
    ("transition-reducible", ("model", "transition"),
     lambda t, d: np.eye(len(t)).tolist(), "transition"),
    ("transition-text", ("model", "transition"), "P", "transition"),
    *[(f"mu-{name}", ("model", "states", -1, "mu"), bad, "states[{i}].mu")
      for name, bad in [("nan", NAN), ("inf", -INF), ("text", "0.1"), ("bool", True),
                        ("huge-int", -10**400)]],
    *[(f"b-{name}", ("model", "states", -1, "b"), bad, "states[{i}].b")
      for name, bad in [("zero", 0.0), ("negative", -0.5), ("nan", NAN), ("inf", INF),
                        ("square-underflows", 1e-200), ("square-overflows", 1e200),
                        ("list", [0.2])]],
    *[(f"a-{name}", ("model", "states", -1, "a"), bad, "states[{i}].a")
      for name, bad in [("nan", lambda a, d: [*a[:-1], NAN]),
                        ("bool", lambda a, d: [True] * len(a)),
                        ("nested", lambda a, d: [a]), ("text", "a")]],
    ("state-extra-key", ("model", "states", -1, "sigma"), 1.0, "states[{i}]"),
    ("state-missing-key", ("model", "states", -1, "b"), DELETE, "states[{i}]"),
    ("state-not-object", ("model", "states", -1), [1.0], "states[{i}]"),
    ("state-count", ("model", "states"), without_last, "states"),
    ("state-orders", ("model", "states", -1, "a"), lambda a, d: a + [0.0], "states"),
    # the chain starts from its stationary law, and no key sets another start:
    # whatever its value, an initial_dist entry is refused as an unknown key
    *[(f"initial-{name}", ("model", "initial_dist"), bad, "unknown model keys: ['initial_dist']")
      for name, bad in [("length", lambda v, d: [1.0] * (state_count(d) + 1)),
                        ("nan", lambda v, d: [NAN] * state_count(d)),
                        ("sum", lambda v, d: [1.0] * state_count(d)),
                        ("negative", lambda v, d: [-1.0, 2.0] + [0.0] * (state_count(d) - 2)),
                        ("text", "uniform")]],
    ("model-unknown-key", ("model", "order"), 2, "unknown model keys"),
    ("model-not-object", ("model",), [], "model"),
]


def spoiled(doc, path, value):
    """``doc`` with the entry at ``path`` set to ``value`` (see SPOILERS)."""
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is DELETE:
        del target[key]
    elif callable(value):
        target[key] = value(target.get(key) if isinstance(target, dict) else target[key], doc)
    else:
        target[key] = value
    return doc


def run_cli(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@pytest.mark.parametrize("path,value,field", [s[1:] for s in SPOILERS],
                         ids=[s[0] for s in SPOILERS])
@settings(derandomize=True, deadline=None, max_examples=8)
@given(doc=valid_docs())
def test_invalid_documents_exit_2_naming_the_field(path, value, field, doc):
    if path[0] == "l":  # too long a stride matters only to the nonparametric filter
        doc["mode"] = "both"
    doc = spoiled(doc, path, value)
    if "{i}" in field:
        field = field.format(i=state_count(doc) - 1)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        for args in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(out)]):
            code, err = run_cli(args)
            assert code == 2, (args[0], err)
            assert err.startswith("config error: ") and field in err, err
        assert not out.exists()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(doc=valid_docs())
def test_small_valid_documents_write_a_finite_summary(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        code, err = run_cli(["run", "--config", str(path), "--out", str(out)])
        assert code == 0, err
        header, *rows = (out / "summary.csv").read_text().splitlines()
    assert header == "method,task,mean_error,stderr,repeats"
    assert len(rows) == (4 if doc["mode"] == "both" else 2)
    for row in rows:
        method, task, mean, stderr, repeats = row.split(",")
        assert 0.0 <= float(mean) <= 1.0 and math.isfinite(float(stderr))
        assert int(repeats) == doc["repeats"]
