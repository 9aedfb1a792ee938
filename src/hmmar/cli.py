"""Command-line entry points: ``hmmar run`` and ``hmmar validate``.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmar",
        description="Hidden-state estimation experiments for Markov-switching AR models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte-Carlo experiment")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    run_p.add_argument("--out", default=None, help="directory for summary.csv (and traces)")
    run_p.add_argument("--trace", action="store_true", help="write per-repeat trace CSVs")

    val_p = sub.add_parser("validate", help="check a config file and exit")
    val_p.add_argument("--config", required=True, help="experiment config JSON")
    return parser


def _print_summary(summary) -> None:
    print(f"{'method':<15}{'task':<12}{'mean_error':>11}{'stderr':>10}")
    for method, task, st in summary.rows():
        print(f"{method:<15}{task:<12}{st.mean:>11.4f}{st.stderr:>10.4f}")
    print(f"repeats: {summary.repeats}   qp fallback steps: {summary.qp_fallback_steps}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate":
            print(f"config ok: M={config.model.M}, n_total={config.n_total}, "
                  f"eval_window={list(config.eval_window)}, tau={config.tau}, l={config.l}, "
                  f"repeats={config.repeats}, seed={config.seed}, burn_in={config.burn_in}, "
                  f"mode={config.mode}")
            return 0
        summary = run_experiment(config, out_dir=args.out, trace=args.trace)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _print_summary(summary)
    if args.out is not None:
        print(f"wrote {args.out}/summary.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
