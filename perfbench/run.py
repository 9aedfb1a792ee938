"""Benchmark of the hmmar Monte-Carlo experiment, one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Workloads are the TOML files in
``perfbench/workloads``; ``--seed`` replaces the config's ``seed`` (the
default).  Every experiment runs in a fresh process (``experiment.py``) that
imports hmmar from ``src/``, loads the config with ``load_config`` and calls
``run_experiment``.

``--trace 0``: one closed-loop client that runs one experiment at a time,
with a few set-up-only processes before each, and starts the next only if it
should end within ``--seconds``.  Reports the end-to-end metrics as medians.
``--trace 1``: one untraced and one traced experiment; reports the
per-layer metrics of the traced one and the tracing overhead.

Every experiment's outputs are checked (see ``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; artifacts of the latest run of each workload are
kept in ``.perfbench/<workload>/``.  Exit status: 0 when every check passed,
1 when one failed, 2 on a usage error or when ``src/hmmar`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from checks import (CheckFailed, check_error_table, check_reference_errors, check_same_bytes,
                    check_summary, check_trace_files)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

#: Set-up-only processes per round of the closed loop (and after the last).
SETUP_PROBES = 3
#: Every process this run starts must end this long after the run started.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Per-layer metrics of the traced run's summary: the mean error of each task,
#: averaged over the methods the workload runs.
ERROR_METRICS = {"filtering": "err.filter", "prediction": "err.pred"}


@dataclass
class Workload:
    name: str
    config: dict
    write_traces: bool = False
    #: {(method, task): (target, tolerance)} that every mean error must meet.
    error_table: dict = field(default_factory=dict)

    @property
    def trace_rows(self) -> int:
        lo, hi = self.config["eval_window"]
        return hi - lo + 1


def load_workload(name: str, seed: int | None) -> Workload:
    with open(BENCH / "workloads" / f"{name}.toml", "rb") as fh:
        spec = tomllib.load(fh)
    config = {}
    if "config_file" in spec:
        config = json.loads((ROOT / spec["config_file"]).read_text(encoding="utf-8"))
    config.update(spec.get("config", {}))
    if seed is not None:
        config["seed"] = seed
    table = {tuple(key.split(".")): tuple(v) for key, v in spec.get("error_table", {}).items()}
    return Workload(name=name, config=config, write_traces=spec.get("write_traces", False),
                    error_table=table)


class Runner:
    """Spawns experiment processes for one workload and checks their outputs."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.versions: dict = {}
        self.samples: dict = {}
        self._reference = None

    def spawn(self, out_dir: Path, *flags: str) -> dict:
        """Run experiment.py to completion; returns its result plus set-up and elapsed time."""
        env = dict(os.environ)
        env.pop("HMMAR_THREADS", None)
        cmd = [sys.executable, str(BENCH / "experiment.py"), str(ROOT / "src"),
               str(self.config_path), str(out_dir), *flags]
        self.attempted += 1
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CheckFailed(f"experiment {out_dir.name} timed out")
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            raise CheckFailed(f"experiment {out_dir.name} exited {proc.returncode}: {tail[0]}")
        result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
        self.versions = {k: result[k] for k in ("python", "numpy", "scipy")}
        result["setup_s"] = result["ready_monotonic"] - t0
        result["elapsed_s"] = elapsed
        return result

    def reference(self) -> dict:
        """The reference filter's optimal errors for this workload (computed once)."""
        if self._reference is None:
            sys.path.insert(0, str(ROOT / "src"))
            from hmmar.harness import config_from_dict

            import reference

            try:
                self._reference = reference.optimal_errors(config_from_dict(self.w.config))
            except Exception as exc:
                raise CheckFailed(f"reference filter failed: {exc!r}") from exc
        return self._reference

    def check(self, out_dir: Path) -> dict:
        """All single-experiment checks; returns {(method, task): mean_error}."""
        cfg = self.w.config
        mode = cfg.get("mode", "both")
        errors = check_summary(out_dir / "summary.csv", mode, cfg["repeats"])
        check_error_table(errors, self.w.error_table)
        if mode != "nonparametric":
            check_reference_errors(errors, self.reference(), cfg["repeats"] * self.w.trace_rows)
        if self.w.write_traces:
            check_trace_files(out_dir, cfg["repeats"], self.w.trace_rows)
        return errors

    def experiment(self, tag: str, *flags: str):
        """Spawn and check one experiment; returns (result, errors) or None if it failed."""
        out_dir = self.dir / tag
        if self.w.write_traces:
            flags += ("--write-traces",)
        try:
            result = self.spawn(out_dir, *flags)
            return result, self.check(out_dir)
        except CheckFailed as exc:
            self.fail(str(exc))
            return None
        finally:
            for path in out_dir.glob("trace_*.csv"):
                path.unlink()

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run_untraced(runner: Runner, seconds: float):
    """The closed loop; returns (metrics, per-method errors).

    Each round spawns SETUP_PROBES set-up-only processes, each after a
    host-speed reference process, then one experiment; more probes follow
    the last round, so set-up is sampled throughout the run.  After the
    first two rounds, a round starts only if a round as long as the last one
    would end within ``seconds``.  Times are taken to the reference host
    speed (see ``hostspeed.py``); the samples keep the raw ones too.
    """
    samples = {"wall_s": [], "wall_raw_s": [], "setup_s": [], "setup_raw_s": [],
               "peak_rss_mb": []}

    def probe():
        for _ in range(SETUP_PROBES):
            try:
                out_dir = runner.dir / f"setup{len(samples['setup_s'])}"
                scale = hostspeed.setup_scale()
                setup = runner.spawn(out_dir, "--setup-only")["setup_s"]
            except (CheckFailed, subprocess.CalledProcessError) as exc:
                runner.fail(str(exc))
                continue
            samples["setup_s"].append(setup * scale)
            samples["setup_raw_s"].append(setup)

    errors = {}
    start = time.monotonic()
    while not runner.failed:
        round_start = time.monotonic()
        probe()
        tag = f"exp{len(samples['wall_s'])}"
        outcome = runner.experiment(tag)
        if outcome is None:
            break
        result, errors = outcome
        if tag != "exp0":
            try:
                check_same_bytes(runner.dir / "exp0" / "summary.csv",
                                 runner.dir / tag / "summary.csv", "repeated experiment")
            except CheckFailed as exc:
                runner.fail(str(exc))
        samples["wall_s"].append(result["wall_s"] * result["wall_scale"])
        samples["wall_raw_s"].append(result["wall_s"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
        now = time.monotonic()
        if len(samples["wall_s"]) >= 2 and now - start + (now - round_start) > seconds:
            break
    probe()
    if runner.failed:
        return {}, errors
    runner.samples = samples
    return {name: (statistics.median(samples[name]), unit)
            for name, unit in END_TO_END_UNITS.items()}, errors


def run_traced(runner: Runner):
    """An untraced and a traced experiment; returns (per-layer metrics, errors)."""
    plain = runner.experiment("plain")
    traced = runner.experiment("traced", "--traced") if plain else None
    if traced is None:
        return {}, {}
    try:
        check_same_bytes(runner.dir / "plain" / "summary.csv",
                         runner.dir / "traced" / "summary.csv", "traced vs untraced summary")
    except CheckFailed as exc:
        runner.fail(str(exc))
    metrics = {name: tuple(v) for name, v in traced[0]["layers"].items()}
    for task, name in ERROR_METRICS.items():
        mean = statistics.fmean(v for (_, t), v in traced[1].items() if t == task)
        metrics[name] = (mean, "ratio")
    metrics["trace.overhead_s"] = (traced[0]["wall_s"] - plain[0]["wall_s"], "s")
    metrics["trace.wall_s"] = (traced[0]["wall_s"], "s")
    runner.samples = {"untraced_wall_s": plain[0]["wall_s"]}
    return metrics, traced[1]


def environment(runner: Runner) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **runner.versions,
            "HMMAR_THREADS": None, "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hmmar" / "harness.py").is_file():
        print(f"perfbench: no hmmar source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (BENCH / "workloads" / f"{args.workload}.toml").is_file():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    runner = Runner(load_workload(args.workload, args.seed))
    if args.trace:
        metrics, errors = run_traced(runner)
    else:
        metrics, errors = run_untraced(runner, args.seconds)
    record = {"workload": args.workload, "seed": runner.w.config.get("seed"),
              "trace": args.trace, "environment": environment(runner),
              "errors": {",".join(k): v for k, v in errors.items()},
              "samples": runner.samples, "problems": runner.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (runner.dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {record['seed']} trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    for key, value in record["errors"].items():
        print(f"  error {key:<26} {value:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    for problem in runner.problems:
        print(f"FAILED: {problem}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
