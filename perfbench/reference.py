"""Reference Bayes filter: the optimal filter's error table, computed apart from hmmar.

The optimal filter's argmax decisions follow from the model alone, so its
mean errors on a seed are known without trusting ``hmmar.filters``.  This
module redraws the experiment's trajectories with ``hmmar.model.simulate``
(the experiment's input generator) and runs its own forward recursion over
all repeats at once.  The benchmark then requires ``summary.csv`` to carry
the same optimal errors, so a change that moves the optimal filter's
accuracy fails the run.
"""

from __future__ import annotations

import numpy as np


def stationary(p: np.ndarray) -> np.ndarray:
    """Left eigenvector of the transition matrix for eigenvalue 1, normalised."""
    w, v = np.linalg.eig(p.T)
    pi = np.abs(np.real(v[:, np.argmin(np.abs(w - 1.0))]))
    return pi / pi.sum()


def forward_errors(p: np.ndarray, mu: np.ndarray, a: np.ndarray, b: np.ndarray,
                   s: np.ndarray, x: np.ndarray, eval_window) -> dict:
    """Mean error fractions of the Bayes filter over repeats.

    ``p`` is the M x M transition matrix, ``mu``, ``b`` the per-state means
    and noise scales, ``a`` the M x p AR coefficients; ``s`` (1-based states)
    and ``x`` are R x N arrays, one row per repeat.  The recursion starts
    from the stationary distribution after the first p observations; steps
    n in ``eval_window`` (1-based, inclusive) are scored, as in the harness.
    Returns {("optimal", "filtering"): mean, ("optimal", "prediction"): mean}.
    """
    lo, hi = eval_window
    order = a.shape[1]
    repeats = x.shape[0]
    post = np.tile(stationary(p), (repeats, 1))
    log_norm = -0.5 * np.log(2.0 * np.pi * b ** 2)
    offset = mu - a.sum(axis=1) * mu
    wrong_filter = np.zeros(repeats, dtype=int)
    wrong_pred = np.zeros(repeats, dtype=int)
    for n in range(order + 1, hi + 1):
        pred = np.maximum(post @ p, 0.0)
        pred /= pred.sum(axis=1, keepdims=True)
        history = x[:, n - 1 - order:n - 1][:, ::-1]
        means = offset + history @ a.T
        log_f = log_norm - (x[:, n - 1, None] - means) ** 2 / (2.0 * b ** 2)
        with np.errstate(divide="ignore"):
            log_post = log_f + np.log(pred)
        post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        post /= post.sum(axis=1, keepdims=True)
        if n >= lo:
            truth = s[:, n - 1] - 1
            wrong_filter += np.argmax(post, axis=1) != truth
            wrong_pred += np.argmax(pred, axis=1) != truth
    steps = hi - lo + 1
    return {("optimal", "filtering"): float(np.mean(wrong_filter / steps)),
            ("optimal", "prediction"): float(np.mean(wrong_pred / steps))}


def optimal_errors(config) -> dict:
    """The optimal filter's error table for a validated ``ExperimentConfig``."""
    from hmmar.model import simulate

    model = config.model
    hi = config.eval_window[1]
    trajectories = [simulate(model, config.n_total, config.burn_in, config.seed + r)
                    for r in range(config.repeats)]
    s = np.stack([t.s[:hi] for t in trajectories])
    x = np.stack([t.x[:hi] for t in trajectories])
    return forward_errors(model.transition.p,
                          np.array([st.mu for st in model.states]),
                          np.stack([st.a for st in model.states]),
                          np.array([st.b for st in model.states]),
                          s, x, config.eval_window)
