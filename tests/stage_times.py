"""Time the stages of an experiment run in this process, one line per stage.

    PYTHONPATH=src python tests/stage_times.py src/hmmar/example.json [PASSES] [--trace] [--out DIR]

Runs the config PASSES times (default 5) with ``run_experiment``, serially:
HMMAR_THREADS is ignored, because the timers live in this process.  Each pass
wraps the functions that ``hmmar.harness`` and ``hmmar.filters`` call by name
(``simulate``, ``run_filters``, ``ucv_bandwidth``, ``emission_mixture_problem``,
``solve_kkt`` and ``emit_trace``), and the lattice builder ``_pair_lattice``
where ``hmmar.kde`` binds it, with ``perf_counter`` timers, and restores them
afterwards.  For each stage it prints the calls of one pass and the least and
greatest total seconds of a pass.  ``_pair_lattice`` is the histogram of pair
distances that each UCV fit builds once; ``ucv_bandwidth (scores)`` is the rest
of the fit, its grid and Brent scores.  ``run_filters (recursions)`` is
``run_filters`` less the UCV fits, QP builds and KKT solves inside it: the AR
means, the optimal and Bayes recursions and the checks of its output.
``run_experiment`` is the whole pass.  ``--trace`` also writes the trace CSVs,
so that ``emit_trace`` runs; ``--out`` keeps the last pass's files in DIR.

A timer costs well under a microsecond per call; ``solve_kkt``, the most
called, runs 5,000 times in one pass of the bundled example.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hmmar.filters as filters
import hmmar.harness as harness
import hmmar.kde as kde
from hmmar.harness import load_config, run_experiment

#: (module, name) of each wrapped function, in the order of the printed lines.
STAGES = ((harness, "simulate"), (kde, "_pair_lattice"), (filters, "ucv_bandwidth"),
          (filters, "emission_mixture_problem"), (filters, "solve_kkt"),
          (harness, "run_filters"), (harness, "emit_trace"))
#: Stages timed inside run_filters; the rest of its time is the recursions.
INSIDE = ("ucv_bandwidth", "emission_mixture_problem", "solve_kkt")
LINES = ("simulate", "_pair_lattice", "ucv_bandwidth (scores)", *INSIDE[1:],
         "run_filters (recursions)", "emit_trace", "run_experiment")


def _timed(fn, counts: dict, seconds: dict, name: str):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[name] += 1
            seconds[name] += perf_counter() - start
    return wrapper


def time_pass(config, out_dir, trace: bool) -> dict[str, tuple[int, float]]:
    """``{line: (calls, seconds)}`` of one serial ``run_experiment`` pass."""
    counts = dict.fromkeys((name for _, name in STAGES), 0)
    seconds = dict.fromkeys(counts, 0.0)
    originals = [(module, name, getattr(module, name)) for module, name in STAGES]
    threads = os.environ.pop("HMMAR_THREADS", None)
    try:
        for module, name, fn in originals:
            setattr(module, name, _timed(fn, counts, seconds, name))
        start = perf_counter()
        run_experiment(config, out_dir=out_dir, trace=trace)
        total = perf_counter() - start
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
        if threads is not None:
            os.environ["HMMAR_THREADS"] = threads
    times = {name: (counts[name], seconds[name]) for name in counts}
    calls, inner = times.pop("run_filters")
    times["run_filters (recursions)"] = (calls, inner - sum(seconds[name] for name in INSIDE))
    calls, ucv = times.pop("ucv_bandwidth")
    times["ucv_bandwidth (scores)"] = (calls, ucv - seconds["_pair_lattice"])
    times["run_experiment"] = (1, total)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="experiment config JSON")
    parser.add_argument("passes", nargs="?", type=int, default=5, help="passes (default 5)")
    parser.add_argument("--trace", action="store_true", help="write the trace CSVs too")
    parser.add_argument("--out", help="keep the last pass's output files here")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"passes must be >= 1, got {args.passes}")
    config = load_config(args.config)
    with tempfile.TemporaryDirectory() as tmp:
        runs = [time_pass(config, Path(args.out or tmp), args.trace) for _ in range(args.passes)]
    print(f"{'stage':<26}{'calls':>8}{'min_s':>10}{'max_s':>10}   over {args.passes} passes")
    for line in LINES:
        secs = [run[line][1] for run in runs]
        print(f"{line:<26}{runs[0][line][0]:>8}{min(secs):>10.4f}{max(secs):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
