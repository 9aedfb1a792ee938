"""Filter and predict the hidden state along one trajectory, both methods.

Runs the optimal filter (transition matrix known) and the nonparametric
filter (transition matrix unknown) over the same data, prints their error
rates on the evaluation window, writes the plot-ready trace CSV, and - if
matplotlib is importable - renders the six-panel comparison figure.
"""
import numpy as np

from hmmar import emit_trace, example_config, run_filters, simulate

config = example_config()
traj = simulate(config.model, config.n_total, config.burn_in, rng_seed=0)
lo, hi = config.eval_window

# run_filters reads only the observations, an (R, n) block; this one is a block of one
# series, and its hidden states stay here for scoring
run = run_filters([traj.x], config.model, tau=config.tau, l=config.l, eval_start=lo)[0]
truth = traj.s[lo - 1:hi]
# each decision is the 1-based argmax of a (T, M) row; ties go to the smaller state
decided = {name: getattr(run, name).argmax(axis=1) + 1
           for name in ("optimal_posterior", "optimal_predictive",
                        "nonparametric_posterior", "nonparametric_predictive")}

print(f"evaluation window n in [{lo}, {hi}], {truth.shape[0]} decisions")
for method in ("optimal", "nonparametric"):
    print(f"{method:<15}filtering error {np.mean(decided[f'{method}_posterior'] != truth):.3f}"
          f"   prediction error {np.mean(decided[f'{method}_predictive'] != truth):.3f}")

emit_trace(traj, run, "trace_demo.csv")
print("\nwrote trace_demo.csv (n, truth, observation, decisions, posteriors)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    ns = np.arange(lo, hi + 1)
    panels = [
        ("hidden state s_n", truth, "step"),
        ("observed x_n", traj.x[lo - 1:hi], "line"),
        ("optimal filtering", decided["optimal_posterior"], "step"),
        ("nonparametric filtering", decided["nonparametric_posterior"], "step"),
        ("optimal prediction", decided["optimal_predictive"], "step"),
        ("nonparametric prediction", decided["nonparametric_predictive"], "step"),
    ]
    fig, axes = plt.subplots(len(panels), 1, figsize=(9, 11), sharex=True)
    for ax, (title, ys, kind) in zip(axes, panels):
        if kind == "step":
            ax.step(ns, ys, where="mid", lw=1)
        else:
            ax.plot(ns, ys, lw=1)
        ax.set_ylabel(title, fontsize=8)
    axes[-1].set_xlabel("n")
    fig.tight_layout()
    fig.savefig("filter_comparison.png", dpi=120)
    print("wrote filter_comparison.png")
