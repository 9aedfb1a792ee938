import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hmmar.cli import main

EXAMPLE_P = [[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.1, 0.05, 0.85]]


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
    assert main(["run", "--config", config_path, "--repeats", "1"]) == 2
    assert "config error: model: states[0].b must have a nonzero square" in capsys.readouterr().err


def test_overflowing_noise_scale_exits_2(config_path, capsys):
    # b = 1e160 squares to inf; the run used to exit 3 on the NaN series it simulated
    edit_config(config_path, lambda doc: doc["model"]["states"][0].update(b=1e160))
    assert main(["run", "--config", config_path, "--repeats", "1"]) == 2
    assert "config error: model: states[0].b must have a nonzero square that is finite" \
        in capsys.readouterr().err


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
    ("initial_dist", lambda model: model.update(initial_dist={})),
])
def test_non_numeric_model_document_exits_2(config_path, field, edit, capsys):
    edit_config(config_path, lambda doc: edit(doc["model"]))
    assert main(["validate", "--config", config_path]) == 2
    assert f"config error: model: {field} must be" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "none.json")]) == 2


def test_run_writes_summary(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == 0
    text = (out / "summary.csv").read_text()
    assert text.startswith("method,task,mean_error,stderr,repeats\n")
    assert "optimal,filtering," in text
    assert "nonparametric,prediction," in text
    assert "mean_error" in capsys.readouterr().out


def test_run_overrides(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out),
                 "--repeats", "1", "--mode", "optimal"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3  # header + optimal filtering/prediction only
    assert all(line.endswith(",1") for line in lines[1:])


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


def test_bad_mode_flag_is_usage_error(config_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config_path, "--mode", "wrong"])
    assert exc.value.code == 2


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh ``import hmmar`` loads no scipy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import hmmar, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
