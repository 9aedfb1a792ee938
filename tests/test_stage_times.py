import json

from hmmar.harness import example_config_path, load_config, run_experiment

from stage_times import LINES, STAGES, main


def test_stage_times_prints_every_stage_and_keeps_the_summary(tmp_path, capsys, monkeypatch):
    # two passes of a tiny run with trace files: one line per stage, each with calls and
    # seconds; the timed run writes the untimed run's summary.csv and leaves no wrapper behind
    doc = json.loads(open(example_config_path(), encoding="utf-8").read())
    doc.update(n_total=140, eval_window=[121, 140], repeats=3)
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    originals = [getattr(module, name) for module, name in STAGES]
    monkeypatch.setenv("HMMAR_THREADS", "2")  # ignored: the timers run in this process

    assert main([str(config_path), "2", "--trace", "--out", str(tmp_path / "timed")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["stage", "calls", "min_s", "max_s", "over", "2", "passes"]
    assert [line[:26].strip() for line in lines[1:]] == list(LINES)
    calls = {line[:26].strip(): int(line[26:34]) for line in lines[1:]}
    assert calls == {"simulate": 3, "ucv_bandwidth": 3, "emission_mixture_problem": 20,
                     "solve_kkt": 60, "run_filters (recursions)": 1, "emit_trace": 3,
                     "run_experiment": 1}
    for line in lines[1:]:
        low, high = map(float, line[34:].split())
        assert 0.0 <= low <= high
    assert [getattr(module, name) for module, name in STAGES] == originals

    run_experiment(load_config(config_path), out_dir=tmp_path / "untimed")
    assert ((tmp_path / "timed" / "summary.csv").read_bytes()
            == (tmp_path / "untimed" / "summary.csv").read_bytes())
