"""Monte-Carlo experiment harness: repeated simulate-filter-score runs.

A run draws ``repeats`` independent trajectories (seeds seed, seed+1, ...),
filters each with the methods selected by ``mode``, and scores the fraction
of wrong argmax decisions inside the evaluation window, separately for
filtering and one-step prediction.  Results are aggregated as mean and
standard error across repeats and written to ``summary.csv``; per-repeat
``trace_<r>.csv`` files carry the plot-ready per-step data.

Repeats are independent; set HMMAR_THREADS to run them in parallel
(0 = one worker per CPU).  Aggregation order is fixed by repeat index, so
output files are byte-identical regardless of parallelism.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .filters import FilterRun, run_filters, warmup_threshold
from .model import SwitchingArModel, Trajectory, model_from_dict, simulate

MODES = ("optimal", "nonparametric", "both")

#: (method, task) of each summary row, in output order.
_ROWS = (("optimal", "filtering"), ("optimal", "prediction"),
         ("nonparametric", "filtering"), ("nonparametric", "prediction"))


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the failing field."""


def _is_int(value) -> bool:
    """True for an int that is not a bool (bool subclasses int; `true` is no count)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(eq=False)
class ExperimentConfig:
    """Everything a reproducible experiment run needs."""

    model: SwitchingArModel
    n_total: int
    eval_window: tuple[int, int]
    tau: int = 2
    l: int = 1
    repeats: int = 50
    seed: int = 0
    burn_in: int = 100
    mode: str = "both"

    def __post_init__(self):
        for name in ("n_total", "tau", "l", "repeats", "seed", "burn_in"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        window = self.eval_window
        if not (isinstance(window, (list, tuple)) and len(window) == 2
                and all(map(_is_int, window))):
            raise ConfigError(f"eval_window must be two integers [lo, hi], got {window!r}")
        self.eval_window = tuple(window)
        if self.n_total < 1:
            raise ConfigError(f"n_total must be >= 1, got {self.n_total}")
        lo, hi = self.eval_window
        if not (1 <= lo <= hi <= self.n_total):
            raise ConfigError(
                f"eval_window must satisfy 1 <= lo <= hi <= n_total, got ({lo}, {hi})"
            )
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.l < 1:
            raise ConfigError(f"l must be >= 1, got {self.l}")
        thresh = warmup_threshold(self.model.ar_order, self.tau)
        if lo <= thresh:
            raise ConfigError(
                f"eval_window start {lo} must exceed the warm-up threshold {thresh}"
            )
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def with_optimal(self) -> bool:
        return self.mode in ("optimal", "both")

    @property
    def with_nonparametric(self) -> bool:
        return self.mode in ("nonparametric", "both")


_CONFIG_KEYS = {"model", "n_total", "eval_window", "tau", "l", "repeats",
                "seed", "burn_in", "mode"}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate an experiment config document (unknown keys rejected)."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model", "n_total", "eval_window"):
        if key not in doc:
            raise ConfigError(f"config is missing '{key}'")
    try:
        model = model_from_dict(doc["model"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    kwargs = {k: doc[k] for k in ("tau", "l", "repeats", "seed", "burn_in", "mode")
              if k in doc}
    return ExperimentConfig(model=model, n_total=doc["n_total"],
                            eval_window=doc["eval_window"], **kwargs)


def load_config(path) -> ExperimentConfig:
    """Load an ExperimentConfig from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def example_config() -> ExperimentConfig:
    """The bundled three-state AR(2) example configuration."""
    text = resources.files("hmmar").joinpath("example.json").read_text(encoding="utf-8")
    return config_from_dict(json.loads(text))


def example_config_path() -> str:
    """Filesystem path of the bundled example config."""
    return str(resources.files("hmmar").joinpath("example.json"))


@dataclass(frozen=True)
class ErrorStat:
    """Mean error fraction and its standard error across repeats."""

    mean: float
    stderr: float


@dataclass(eq=False)
class ErrorSummary:
    """Aggregated error rates; fields are None for methods that did not run."""

    filtering_error_optimal: Optional[ErrorStat]
    prediction_error_optimal: Optional[ErrorStat]
    filtering_error_nonparametric: Optional[ErrorStat]
    prediction_error_nonparametric: Optional[ErrorStat]
    repeats: int
    qp_fallback_steps: int
    per_repeat: dict

    def rows(self) -> list[tuple[str, str, ErrorStat]]:
        """(method, task, stat) of every method that ran, in ``summary.csv`` order."""
        stats = ((method, task, getattr(self, f"{task}_error_{method}")) for method, task in _ROWS)
        return [row for row in stats if row[2] is not None]


def _fmt(value: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(value))


def _run_one(task) -> tuple[dict, int, Optional[FilterRun]]:
    """Worker for a single repeat; top-level so process pools can pickle it."""
    config, r, trace_dir, keep = task
    traj = simulate(config.model, config.n_total, config.burn_in, config.seed + r)
    lo, hi = config.eval_window
    clipped = Trajectory(s=traj.s[:hi], x=traj.x[:hi])
    run = run_filters(
        clipped, config.model, tau=config.tau, l=config.l, eval_start=lo,
        compute_optimal=config.with_optimal,
        compute_nonparametric=config.with_nonparametric,
    )
    truth = clipped.s[lo - 1:]
    errors: dict = {}
    if config.with_optimal:
        errors["optimal_filtering"] = _error_fraction(run.optimal_posterior, truth)
        errors["optimal_prediction"] = _error_fraction(run.optimal_predictive, truth)
    if config.with_nonparametric:
        errors["nonparametric_filtering"] = _error_fraction(run.nonparametric_posterior, truth)
        errors["nonparametric_prediction"] = _error_fraction(run.nonparametric_predictive, truth)
    if trace_dir is not None:
        emit_trace(clipped, run, Path(trace_dir) / f"trace_{r}.csv")
    return errors, int(run.qp_fallback.sum()), (run if keep else None)


def _error_fraction(probs: np.ndarray, truth: np.ndarray) -> float:
    """Share of rows whose argmax decision (1-based) differs from the true state."""
    return np.count_nonzero(probs.argmax(axis=1) + 1 != truth) / truth.shape[0]


def _worker_count(repeats: int) -> int:
    raw = os.environ.get("HMMAR_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        k = int(raw)
    except ValueError as exc:
        raise ConfigError(f"HMMAR_THREADS must be an integer, got {raw!r}") from exc
    if k < 0:
        raise ConfigError(f"HMMAR_THREADS must be >= 0, got {k}")
    if k == 0:
        k = os.cpu_count() or 1
    return max(1, min(k, repeats))


def run_experiment(config: ExperimentConfig, out_dir=None, trace: bool = False,
                   keep_records: bool = False):
    """Run the configured experiment; returns an :class:`ErrorSummary`.

    When ``out_dir`` is given, writes ``summary.csv`` there, plus one
    ``trace_<r>.csv`` per repeat if ``trace`` is set.  With
    ``keep_records=True`` returns ``(summary, runs)`` instead, ``runs`` holding
    one :class:`~hmmar.filters.FilterRun` per repeat.
    """
    if trace and out_dir is None:
        raise ConfigError("trace output requires out_dir")
    trace_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if trace:
            trace_dir = str(out_dir)

    tasks = [(config, r, trace_dir, keep_records) for r in range(config.repeats)]
    workers = _worker_count(config.repeats)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]

    per_repeat = {}
    for key in (f"{method}_{task}" for method, task in _ROWS):
        if key in results[0][0]:
            per_repeat[key] = np.array([res[0][key] for res in results])
    per_repeat["qp_fallback"] = np.array([res[1] for res in results])
    fallback_total = int(per_repeat["qp_fallback"].sum())

    def stat(key: str) -> Optional[ErrorStat]:
        if key not in per_repeat:
            return None
        vals = per_repeat[key]
        stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        return ErrorStat(mean=float(vals.mean()), stderr=stderr)

    summary = ErrorSummary(
        filtering_error_optimal=stat("optimal_filtering"),
        prediction_error_optimal=stat("optimal_prediction"),
        filtering_error_nonparametric=stat("nonparametric_filtering"),
        prediction_error_nonparametric=stat("nonparametric_prediction"),
        repeats=config.repeats,
        qp_fallback_steps=fallback_total,
        per_repeat=per_repeat,
    )
    if out_dir is not None:
        write_summary(summary, out_dir / "summary.csv")
    if keep_records:
        return summary, [res[2] for res in results]
    return summary


def write_summary(summary: ErrorSummary, path) -> None:
    """Write the aggregate error table as CSV (LF line endings)."""
    rows = [f"{method},{task},{_fmt(st.mean)},{_fmt(st.stderr)},{summary.repeats}\n"
            for method, task, st in summary.rows()]
    text = "method,task,mean_error,stderr,repeats\n" + "".join(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_trace(trajectory: Trajectory, run: FilterRun, path) -> None:
    """Write the per-step trace CSV for one run.

    Columns: n, true state, observation, filtered/predicted decisions for
    both methods, then the M posterior probabilities per method.  Methods
    that were not computed leave their cells empty.
    """
    posteriors = (run.optimal_posterior, run.nonparametric_posterior)
    decided = (*posteriors, run.optimal_predictive, run.nonparametric_predictive)
    decisions = [None if v is None else v.argmax(axis=1) + 1 for v in decided]
    n_states = next((v.shape[1] for v in decided if v is not None), None)
    header = ["n", "s_true", "x", "s_opt_filter", "s_np_filter", "s_opt_pred", "s_np_pred"]
    if n_states is not None:
        header += [f"post_opt_{m}" for m in range(1, n_states + 1)]
        header += [f"post_np_{m}" for m in range(1, n_states + 1)]
    lines = [",".join(header)]
    for k in range(run.qp_fallback.shape[0]):
        idx = run.eval_start + k - 1
        row = [str(idx + 1), str(int(trajectory.s[idx])), _fmt(trajectory.x[idx])]
        row += ["" if d is None else str(d[k]) for d in decisions]
        if n_states is not None:
            for post in posteriors:
                row += [""] * n_states if post is None else [_fmt(v) for v in post[k]]
        lines.append(",".join(row))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace file {path}: {exc}") from exc


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Non-destructive update with re-validation (used by the CLI)."""
    changes = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **changes) if changes else config
