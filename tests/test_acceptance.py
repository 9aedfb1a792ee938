"""Acceptance gate: every release-blocking criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-size experiment
(50 repeats of the bundled example config) is shared across criteria through
a module fixture; end to end the module takes a few minutes.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import hmmar
from hmmar.filters import optimal_step, posterior_update, run_filters
from hmmar.gaussian import product_integral
from hmmar.kde import EmbeddedSample, embed, oversmoothed_bandwidth, ucv_bandwidth, \
    ucv_objective
from hmmar.model import simulate, stationary_distribution
from hmmar.simplex_qp import solve_kkt
from hmmar.harness import example_config, run_experiment, write_summary

from kde_reference import kde_eval
from lattice_oracle import brute_force_solve, objective
from test_kde import generic_ucv


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def example_run():
    """One full experiment on the bundled config: 50 repeats, seeds 0..49."""
    config = example_config()
    records = []

    def kept(trajectories, *args, **kwargs):
        runs = run_filters(trajectories, *args, **kwargs)
        records.extend(runs)
        return runs

    with pytest.MonkeyPatch.context() as mp:  # serial, so the runs are seen here
        mp.delenv("HMMAR_THREADS", raising=False)
        mp.setattr(hmmar.harness, "run_filters", kept)
        summary = run_experiment(config)
    return config, summary, records


def test_criterion_1_error_table(example_run):
    _, summary, _ = example_run
    targets = [
        ("optimal filtering", summary.filtering_error_optimal.mean, 0.164, 0.04),
        ("optimal prediction", summary.prediction_error_optimal.mean, 0.266, 0.05),
        ("nonparametric filtering", summary.filtering_error_nonparametric.mean, 0.227, 0.06),
        ("nonparametric prediction", summary.prediction_error_nonparametric.mean, 0.376, 0.07),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in targets)
    detail = "; ".join(f"{name} {got:.4f} (target {want} +- {tol})"
                       for name, got, want, tol in targets)
    report(1, "error table reproduction", ok, detail)


def test_criterion_2_error_ordering(example_run):
    _, summary, _ = example_run
    of = summary.filtering_error_optimal.mean
    op = summary.prediction_error_optimal.mean
    nf = summary.filtering_error_nonparametric.mean
    npred = summary.prediction_error_nonparametric.mean
    margins = {
        "np filtering - opt filtering": nf - of,
        "np prediction - opt prediction": npred - op,
        "opt prediction - opt filtering": op - of,
        "np prediction - np filtering": npred - nf,
    }
    ok = all(m >= 0.02 for m in margins.values())
    detail = "; ".join(f"{k} = {v:.4f}" for k, v in margins.items())
    report(2, "error ordering with 2pp margins", ok, detail)


def test_criterion_3_qp_oracle_equivalence():
    rng = np.random.default_rng(2024)
    sizes = [2] * 80 + [3] * 60 + [4] * 40 + [5] * 20  # 200 instances
    worst_gap = -np.inf
    worst_resid = 0.0
    for M in sizes:
        A = rng.normal(size=(M, M))
        C, c = A @ A.T + 0.05 * np.eye(M), rng.uniform(0.05, 2.0, size=M)
        sol = solve_kkt(C, c)
        assert not sol.fallback
        grid = brute_force_solve(C, c, step=0.005)
        worst_gap = max(worst_gap, objective(C, c, sol.u) - objective(C, c, grid.u))
        stat = C @ sol.u - sol.lam[:-1] + sol.lam[-1] - c
        comp = sol.lam[:-1] * sol.u
        resid = max(float(np.max(np.abs(stat))), float(np.max(np.abs(comp))),
                    float(np.max(-np.minimum(sol.lam[:-1], 0.0))))
        worst_resid = max(worst_resid, resid)
    ok = worst_gap <= 1e-6 and worst_resid < 1e-8
    report(3, "QP vs brute-force oracle, 200 instances",
           ok, f"worst objective gap {worst_gap:.2e} (<= 1e-6), "
               f"worst KKT residual {worst_resid:.2e} (< 1e-8)")


def test_criterion_4_filter_oracle_equivalence():
    config = example_config()
    model = config.model
    traj = simulate(model, 1000, burn_in=100, rng_seed=123)
    p = model.ar_order
    posterior = stationary_distribution(model.transition)
    worst = 0.0
    for n in range(p + 1, len(traj) + 1):
        true_predictive = posterior @ model.transition.p
        true_predictive /= true_predictive.sum()
        hist = traj.x[n - 1 - p:n - 1][::-1]
        substituted = posterior_update(true_predictive, traj.x[n - 1], hist, model)
        _, posterior = optimal_step(posterior, traj.x[n - 1], hist, model)
        worst = max(worst, float(np.max(np.abs(substituted - posterior))))
    ok = worst <= 1e-12
    report(4, "true predictive reproduces optimal posterior",
           ok, f"max posterior deviation {worst:.2e} over {len(traj) - p} steps (<= 1e-12)")


def test_criterion_5_gaussian_identities():
    means = [-2.0, -0.5, 0.0, 1.0, 3.0]
    variances = [0.04, 0.25, 1.0, 2.0, 5.0]
    worst_pi = 0.0
    for m1, v1 in zip(means, variances):
        for m2, v2 in zip(means[::-1], variances[::-1]):
            oracle, _ = quad(lambda t: norm.pdf(t, m1, np.sqrt(v1)) * norm.pdf(t, m2, np.sqrt(v2)),
                             -np.inf, np.inf)
            worst_pi = max(worst_pi, abs(product_integral(m1, v1, m2, v2) - oracle))

    rng = np.random.default_rng(31)
    sample1 = EmbeddedSample(vectors=rng.normal(size=(4, 1)))
    total1, _ = quad(lambda t: kde_eval(sample1, 0.8, t), -np.inf, np.inf)

    sample2 = EmbeddedSample(vectors=rng.normal(size=(4, 2)))
    h = 0.8
    nodes, weights = np.polynomial.legendre.leggauss(160)
    lo = sample2.vectors.min(axis=0) - 8 * h
    hi = sample2.vectors.max(axis=0) + 8 * h
    xs = 0.5 * (hi[0] - lo[0]) * nodes + 0.5 * (hi[0] + lo[0])
    ys = 0.5 * (hi[1] - lo[1]) * nodes + 0.5 * (hi[1] + lo[1])
    wx = 0.5 * (hi[0] - lo[0]) * weights
    wy = 0.5 * (hi[1] - lo[1]) * weights
    total2 = sum(w1 * sum(w2 * kde_eval(sample2, h, (x, y))
                          for y, w2 in zip(ys, wy))
                 for x, w1 in zip(xs, wx))

    ok = worst_pi <= 1e-9 and abs(total1 - 1.0) <= 1e-6 and abs(total2 - 1.0) <= 1e-6
    report(5, "Gaussian identities",
           ok, f"product-integral vs quadrature {worst_pi:.2e} (<= 1e-9); "
               f"kde integral d=1 err {abs(total1 - 1):.2e}, d=2 err {abs(total2 - 1):.2e} (<= 1e-6)")


def test_criterion_6_ucv_correctness():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(4, 14))
        vectors = rng.normal(size=(N, d))
        h = float(rng.uniform(0.3, 1.4))
        sample = EmbeddedSample(vectors=vectors)
        worst = max(worst, abs(ucv_objective(sample, h)
                               - generic_ucv(vectors, h * h * np.eye(d))))

    sample = embed(rng.standard_normal(200), d=1, l=1)
    h_ucv = ucv_bandwidth(sample)
    h_plus = oversmoothed_bandwidth(sample)
    grid = np.geomspace(1e-6 * h_plus, h_plus, 10_000)
    grid_min = min(ucv_objective(sample, h) for h in grid)
    gap = ucv_objective(sample, h_ucv) - grid_min
    ok = worst <= 1e-12 and gap <= 1e-6
    report(6, "UCV specialization and bandwidth search",
           ok, f"max specialized-vs-generic deviation {worst:.2e} (<= 1e-12); "
               f"selected-minus-grid-min objective gap {gap:.2e} (<= 1e-6)")


def test_criterion_7_simplex_invariants(example_run):
    _, _, runs = example_run
    checked = 0
    worst_sum = 0.0
    clean = True
    for run in runs:
        for vs in (run.optimal_predictive, run.optimal_posterior,
                   run.nonparametric_predictive, run.nonparametric_posterior):
            for v in vs:
                checked += 1
                if not np.all(np.isfinite(v)) or np.any(v < 0.0):
                    clean = False
                worst_sum = max(worst_sum, abs(float(v.sum()) - 1.0))
    ok = clean and worst_sum <= 1e-10
    report(7, "simplex invariants over a full experiment",
           ok, f"{checked} vectors checked, max |sum - 1| = {worst_sum:.2e}, "
               f"all finite and nonnegative: {clean}")


def test_criterion_8_byte_identical_summaries(tmp_path):
    config = replace(example_config(), repeats=4)
    run_experiment(config, out_dir=tmp_path / "run1")
    run_experiment(config, out_dir=tmp_path / "run2")
    b1 = (tmp_path / "run1" / "summary.csv").read_bytes()
    b2 = (tmp_path / "run2" / "summary.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    report(8, "deterministic summary bytes",
           ok, f"two runs, {len(b1)} bytes each, identical: {b1 == b2}")


def test_bundled_example_summary_matches_pinned_bytes(example_run, tmp_path):
    # the bytes of `hmmar run --config src/hmmar/example.json`'s summary.csv, pinned; the
    # fixture's summary is that run's, so no extra run is needed.  Re-record the file only
    # for a change that moves the example on purpose, and record what moved.
    _, summary, _ = example_run
    write_summary(summary, tmp_path / "summary.csv")
    pinned = Path(__file__).parent / "data" / "bundled_example_summary.csv"
    assert (tmp_path / "summary.csv").read_bytes() == pinned.read_bytes()
