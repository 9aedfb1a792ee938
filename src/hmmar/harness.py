"""Monte-Carlo experiment harness: repeated simulate-filter-score runs.

A run draws ``repeats`` independent trajectories (seeds seed, seed+1, ...),
filters each with the methods selected by ``mode``, and scores the fraction
of wrong argmax decisions inside the evaluation window, separately for
filtering and one-step prediction.  Only these scores leave a block of
repeats: their mean and standard error across repeats go to ``summary.csv``,
and the per-step data only to the plot-ready ``trace_<r>.csv`` files.

Repeats are independent and run in lockstep blocks of about ``_BLOCK_OBS`` observations,
``_BLOCK_MIN`` repeats or, in a run that fits UCV, as many repeats as keep a block's arrays
well under one fit's pairwise distances, whichever is most; the blocks are of equal size, and
their count is a multiple of the workers.  Set HMMAR_THREADS to run blocks in parallel (0 = one
worker per CPU).  Aggregation order is fixed by repeat index, so output files are
byte-identical regardless of blocking and parallelism.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from itertools import islice, repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .filters import FilterRun, SeriesError, check_window, run_filters
from .model import SwitchingArModel, Trajectory, _is_int, check_fields, model_from_dict, simulate

#: (method, task, FilterRun field scored) of each summary row, in output order.  A
#: row's per-repeat key is f"{method}_{task}", its ErrorSummary field f"{task}_error_{method}".
_ROWS = (("optimal", "filtering", "optimal_posterior"),
         ("optimal", "prediction", "optimal_predictive"),
         ("nonparametric", "filtering", "nonparametric_posterior"),
         ("nonparametric", "prediction", "nonparametric_predictive"))

#: Observations per lockstep block (_BLOCK_MIN repeats at least); in a run that fits UCV, also
#: hi // (_BLOCK_UCV * M) repeats of hi steps.  With at most 5 M floats per repeat and step, a
#: block's arrays take under half of one fit's hi^2 / 2 pairwise distances; wider raises peak RSS.
_BLOCK_OBS, _BLOCK_MIN, _BLOCK_UCV = 1 << 11, 4, 20

#: Lowest allowed value of each integer field of ExperimentConfig; check_window owns tau and l.
_INT_FLOORS = {"n_total": 1, "repeats": 1, "seed": 0, "burn_in": 0}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the failing field."""


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
        for name, lowest in _INT_FLOORS.items():
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < lowest:
                raise ConfigError(f"{name} must be >= {lowest}, got {value}")
        window = self.eval_window
        if not (isinstance(window, (list, tuple)) and len(window) == 2
                and all(map(_is_int, window))):
            raise ConfigError(f"eval_window must be two integers [lo, hi], got {window!r}")
        self.eval_window = lo, hi = tuple(window)
        if hi > self.n_total:
            raise ConfigError(f"eval_window end {hi} is past n_total {self.n_total}")
        try:  # run_filters' rules for the window
            check_window(self.model, self.tau, self.l, self.mode, lo, hi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate an experiment config document (unknown keys rejected)."""
    check_fields(doc, "config", ExperimentConfig, ConfigError)
    try:
        model = model_from_dict(doc["model"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    return ExperimentConfig(model=model, **{k: v for k, v in doc.items() if k != "model"})


def load_config(path) -> ExperimentConfig:
    """Load an ExperimentConfig from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nesting too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def example_config() -> ExperimentConfig:
    """The bundled three-state AR(2) example configuration."""
    return load_config(example_config_path())


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
        return [(method, task, st) for method, task, _ in _ROWS
                if (st := getattr(self, f"{task}_error_{method}")) is not None]


def _fmt(value: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(value))


def _run_block(task) -> list[dict]:
    """Worker for a block of repeats, filtered in lockstep; top-level so pools can pickle it.

    Takes ``(config, repeats, trace_dir)``; returns each repeat's ``{f"{method}_{task}": error,
    ..., "qp_fallback": steps}``, in order.  A SeriesError becomes a ConfigError naming the seed.
    """
    config, repeats, trace_dir = task
    model, (lo, hi) = config.model, config.eval_window
    trajectories = [simulate(model, hi, config.burn_in, config.seed + r) for r in repeats]
    try:
        runs = run_filters([t.x for t in trajectories], model, tau=config.tau, l=config.l,
                           eval_start=lo, mode=config.mode)
    except SeriesError as exc:
        raise ConfigError(f"model: the series of seed {config.seed + repeats[exc.index]}"
                          f"{exc.tail}") from None
    results = []
    for r, traj, run in zip(repeats, trajectories, runs):
        truth = traj.s[lo - 1:]
        record = {f"{method}_{task}": _error_fraction(getattr(run, field), truth)
                  for method, task, field in _ROWS if getattr(run, field) is not None}
        record["qp_fallback"] = int(run.qp_fallback.sum())
        if trace_dir is not None:
            emit_trace(traj, run, Path(trace_dir) / f"trace_{r}.csv")
        results.append(record)
    return results


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
    cpus = os.cpu_count() or 1  # fork starts every worker at once, so no more than the CPUs
    return max(1, min(k or cpus, cpus, repeats))


def run_experiment(config: ExperimentConfig, out_dir=None, trace: bool = False) -> ErrorSummary:
    """Run the configured experiment; returns its :class:`ErrorSummary`.

    When ``out_dir`` is given, writes ``summary.csv`` there, plus one
    ``trace_<r>.csv`` per repeat if ``trace`` is set.
    """
    if trace and out_dir is None:
        raise ConfigError("trace output requires out_dir")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = str(out_dir) if trace else None

    workers, hi, repeats = _worker_count(config.repeats), config.eval_window[1], config.repeats
    # repeats per block: the observation budget's share, or UCV's if more; then as many blocks,
    # rounded up to a multiple of the workers, of equal size
    ucv = hi // (_BLOCK_UCV * config.model.M) if config.mode != "optimal" else 0
    blocks = -(-repeats // max(_BLOCK_MIN, _BLOCK_OBS // hi, ucv))
    size = -(-repeats // (blocks + -blocks % workers))
    tasks = [(config, range(a, min(a + size, repeats)), trace_dir) for a in range(0, repeats, size)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, tasks))
    else:
        blocks = [_run_block(t) for t in tasks]
    records = [record for block in blocks for record in block]
    per_repeat = {key: np.array([record[key] for record in records]) for key in records[0]}

    def stat(key: str) -> Optional[ErrorStat]:
        if key not in per_repeat:
            return None
        vals = per_repeat[key]
        stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        return ErrorStat(mean=float(vals.mean()), stderr=stderr)

    summary = ErrorSummary(
        **{f"{task}_error_{method}": stat(f"{method}_{task}") for method, task, _ in _ROWS},
        repeats=config.repeats,
        qp_fallback_steps=int(per_repeat["qp_fallback"].sum()),
        per_repeat=per_repeat,
    )
    if out_dir is not None:
        write_summary(summary, out_dir / "summary.csv")
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
    n_states = next(v.shape[1] for v in posteriors if v is not None)
    header = ["n", "s_true", "x", "s_opt_filter", "s_np_filter", "s_opt_pred", "s_np_pred"]
    header += [f"post_opt_{m}" for m in range(1, n_states + 1)]
    header += [f"post_np_{m}" for m in range(1, n_states + 1)]
    # Built by columns, one map() each.  float.__repr__ of a float64 is _fmt's
    # shortest round-trip form; mapping it over the array builds no float list.
    T = run.qp_fallback.shape[0]
    lo = run.eval_start - 1
    if len(trajectory) < lo + T:
        raise ValueError(f"trajectory has {len(trajectory)} steps, the run ends at n = {lo + T}")
    columns = [map(str, range(run.eval_start, run.eval_start + T)),
               map(str, trajectory.s[lo:lo + T].tolist()),
               map(float.__repr__, trajectory.x[lo:lo + T])]
    columns += [repeat("", T) if d is None else map(str, d.tolist()) for d in decisions]
    for post in posteriors:
        # one repeat() per empty column: zip() would drain a shared iterator n_states times
        columns += ([repeat("", T) for _ in range(n_states)] if post is None
                    else [map(float.__repr__, col) for col in post.T])
    rows = map(",".join, zip(*columns))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            while chunk := list(islice(rows, 1024)):  # rows per write
                fh.write("\n".join(chunk) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace file {path}: {exc}") from exc
