"""Monte-Carlo error table for the bundled example configuration.

Repeats the simulate-filter-score cycle and aggregates mean error rates with
standard errors.  A reduced repeat count keeps this demo quick; the full
50-repeat table is one CLI call:

    hmmar run --config src/hmmar/example.json --out results/
"""
from dataclasses import replace

from hmmar import example_config, run_experiment

config = replace(example_config(), repeats=10)
print(f"running {config.repeats} repeats (seeds {config.seed}..{config.seed + config.repeats - 1})...")
summary = run_experiment(config)

print(f"\n{'method':<15}{'task':<12}{'mean error':>12}{'std error':>11}")
for method, task, st in summary.rows():
    print(f"{method:<15}{task:<12}{st.mean:>11.1%}{st.stderr:>10.1%}")
print(f"\nQP fallback steps across all repeats: {summary.qp_fallback_steps}")
print("expected at 50 repeats: optimal ~16%/27%, nonparametric ~23%/37%")
