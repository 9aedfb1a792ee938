"""State filtering and one-step prediction for the switching AR model.

Two estimators of the hidden state are provided:

* the optimal Bayes filter, which propagates the posterior through the known
  transition matrix, and
* the nonparametric filter, which never touches the transition matrix: at
  each step the predictive vector is recovered by L2-projecting a kernel
  estimate of the conditional observation density onto the mixture of the
  per-state emission densities, a quadratic program over the simplex.

Both produce the predictive vector P(S_n = . | x_1^{n-1}) first and the
posterior P(S_n = . | x_1^n) second, so prediction never sees x_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, repeat
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gaussian import product_integral
from .kde import _check_bandwidth, conditional_weights, embed, embedding_heads, ucv_bandwidth
from .model import SwitchingArModel, _is_int
from .simplex_qp import MAX_STATES, solve_kkt

_SIMPLEX_TOL = 1e-10

#: Values of ``run_filters``' ``mode``: which filters run.
MODES = ("optimal", "nonparametric", "both")

#: Extra steps granted to the nonparametric path before its output counts.
WARMUP_MARGIN = 20


def warmup_threshold(p: int, tau: int) -> int:
    """Steps n at or below this have too little history for the nonparametric filter."""
    return max(p, tau + 1) + WARMUP_MARGIN


def check_window(model: SwitchingArModel, tau: int, l: int, mode: str, lo: int, hi: int) -> None:
    """A ValueError unless tau, l and lo are integers >= 1 (not bools), ``mode`` is in
    :data:`MODES` and steps lo <= hi of ``model``'s series suit it: lo must exceed
    :func:`warmup_threshold` if the nonparametric filter runs, else the AR order p, and that
    filter, h pinned or not, needs M <= :data:`~hmmar.simplex_qp.MAX_STATES` and two delay
    vectors of dimension tau + 1, stride l, in x_1^hi."""
    for name, value in (("tau", tau), ("l", l), ("eval_start", lo)):
        if not (_is_int(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    p, M = model.ar_order, model.M
    if mode != "optimal" and M > MAX_STATES:
        raise ValueError(f"model has {M} states; the nonparametric QP takes at most {MAX_STATES}")
    floor, what = ((p, "the AR order") if mode == "optimal"
                   else (warmup_threshold(p, tau), "the warm-up threshold"))
    if lo <= floor:
        raise ValueError(f"eval_window start {lo} must exceed {what} {floor}")
    if lo > hi:
        raise ValueError(f"eval_window start {lo} is past its end {hi}")
    if mode != "optimal" and hi - tau - 1 < l:
        raise ValueError(f"l = {l} leaves fewer than two delay vectors in x_1^{hi}")


def log_emissions(x_n: float | np.ndarray, means: np.ndarray, model: SwitchingArModel,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """log f_m(x_n) for every state m, given the (M,) AR means of x_n's history.

    ``means`` comes from :meth:`SwitchingArModel.ar_means`.  With a (k,) array
    of observations and their (k, M) means the result is the (k, M) matrix,
    written into ``out`` if given (which may be ``means`` itself).
    """
    out = np.subtract(np.asarray(x_n, dtype=float)[..., None], means, out=out)
    out **= 2
    out /= 2.0 * model.b2
    return np.subtract(-0.5 * np.log(2.0 * np.pi * model.b2), out, out=out)


def _predict(posterior: np.ndarray, trans: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Predictive vector posterior @ trans, renormalized, into ``out``.

    Rows of a leading repeat axis are stacked (1, M) @ (M, M) products, which
    round like the 1-D one; a 2-D (R, M) @ (M, M) would not.
    """
    np.matmul(posterior[..., None, :], trans, out=out[..., None, :])
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _bayes_update(log_f: np.ndarray, predictive: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The update of :func:`posterior_update` from the log emission row, into ``out``.

    Rows of leading (time or repeat) axes are updated independently.  A zero u_m
    takes log 0 = -inf; callers silence that divide warning.  ``out`` may be
    ``log_f``: the sum log_f + log u reads each entry before writing it.
    """
    np.add(log_f, np.log(predictive), out=out)
    out -= np.maximum.reduce(out, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def posterior_update(predictive: np.ndarray, x_n: float, history: np.ndarray,
                     model: SwitchingArModel) -> np.ndarray:
    """Posterior from the predictive vector and the new observation.

    Implements the Bayes update posterior_m = f_m(x_n) u_m / sum_j f_j(x_n) u_j
    in log space, then renormalizes, so extreme observations cannot underflow
    the whole vector.
    """
    log_f = log_emissions(x_n, model.ar_means(history), model)
    with np.errstate(divide="ignore"):
        return _bayes_update(log_f, predictive, log_f)


def optimal_step(posterior: np.ndarray, x_n: float, history: np.ndarray,
                 model: SwitchingArModel) -> tuple[np.ndarray, np.ndarray]:
    """One recursion of the optimal filter (transition matrix known).

    Takes the previous step's posterior; returns ``(predictive, posterior)``
    of this step.
    """
    predictive = _predict(posterior, model.transition.p, np.empty(model.M))
    return predictive, posterior_update(predictive, x_n, history, model)


def emission_mixture_problem(x: np.ndarray, n: int, means: np.ndarray, model: SwitchingArModel,
                             tau: int, l: int,
                             h: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(C, c)`` of the L2-projection objective at step n, given its (M,) AR means.

    C[i, j] is the integral of the product of the emission densities of
    states i and j (a closed-form normal evaluation); c[m] integrates the
    kernel-mixture estimate of f(. | x_{n-tau}^{n-1}) against the emission
    density of state m.  Only x_1^{n-1} enters.  ``means`` comes from
    :meth:`SwitchingArModel.ar_means`.  A leading repeat axis on ``x``, ``means``
    and ``h`` (R, 1) runs a block and gives the (R, M, M) C and the (R, M) c.
    """
    x = np.asarray(x, dtype=float, order="C")
    M = model.M
    if means.shape != x.shape[:-1] + (M,):
        raise ValueError(f"means has shape {means.shape}, x needs {x.shape[:-1] + (M,)}")
    v, pairs = model.b2.tolist(), list(combinations_with_replacement(range(M), 2))
    C = [0.0] * (means.size * M)  # every repeat's (M, M) block, in Python floats
    for o, m in zip(range(0, len(C), M * M), means.reshape(-1, M).tolist()):
        for i, j in pairs:
            C[o + i * M + j] = C[o + j * M + i] = product_integral(m[i], v[i], m[j], v[j])
    beta = conditional_weights(x, n, tau, l, h)
    heads = embedding_heads(x, n, tau, l)
    var = (h * h + model.b2)[..., None]  # kernel variance + emission variance, per state
    # (..., M, N) kernels in place along the long N axis, weighted and summed along it
    kernels = np.subtract(heads[..., None, :], means[..., None])
    kernels **= 2
    kernels /= -2.0 * var
    np.exp(kernels, out=kernels)
    kernels *= beta[..., None, :]
    c = np.add.reduce(kernels, axis=-1) / np.sqrt(2.0 * np.pi * var[..., 0])
    return np.array(C).reshape(means.shape + (M,)), c


def nonparametric_step(x: np.ndarray, n: int, model: SwitchingArModel,
                       tau: int, l: int, h: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Filter step without the transition matrix; returns ``(predictive, posterior, fallback)``.

    The predictive vector is the simplex-QP solution built from x_1^{n-1}, for every
    M >= 1 (M = 1 gives u = [1]); the posterior applies the usual Bayes update with x_n.
    ``model`` supplies only the per-state emission parameters.  n must exceed
    :func:`warmup_threshold`, as :func:`run_filters`' ``eval_start`` must.  ``fallback``
    marks a QP solved by the projected-gradient safety net.
    """
    x = np.asarray(x, dtype=float)
    p = model.ar_order
    if n <= (thresh := warmup_threshold(p, tau)):
        raise ValueError(f"step n = {n} must exceed the warm-up threshold {thresh}")
    if x.shape[0] < n:
        raise ValueError(f"series has {x.shape[0]} values, step n = {n} needs x_n")
    history = x[n - 1 - p:n - 1][::-1]
    sol = solve_kkt(*emission_mixture_problem(x, n, model.ar_means(history), model, tau, l, h))
    return sol.u, posterior_update(sol.u, x[n - 1], history, model), sol.fallback


class SeriesError(ValueError):
    """The series at ``index`` of a block that the filters cannot take; ``str()`` adds ``tail``."""

    def __init__(self, index: int, tail: str):
        super().__init__(index, tail)  # args rebuild it when unpickled
        self.index, self.tail = index, tail

    def __str__(self) -> str:
        return f"series {self.index}{self.tail}"


@dataclass(eq=False)
class FilterRun:
    """Output of :func:`run_filters`; row k of every array is step n = eval_start + k (>= 1).

    Each method has a (T, M) predictive array, rows P(S_n = . | x_1^{n-1}),
    and a posterior array, rows P(S_n = . | x_1^n); both are None for a
    method that did not run, and at least one method must have run.
    ``qp_fallback`` (T,) marks nonparametric steps whose QP fell back to
    projected gradient.  The decision of a row is its ``argmax + 1``
    (1-based; ties go to the smaller index).
    """

    eval_start: int
    qp_fallback: np.ndarray
    optimal_predictive: Optional[np.ndarray] = None
    optimal_posterior: Optional[np.ndarray] = None
    nonparametric_predictive: Optional[np.ndarray] = None
    nonparametric_posterior: Optional[np.ndarray] = None

    def __post_init__(self):
        start = self.eval_start
        if not (_is_int(start) and start >= 1):
            raise ValueError(f"eval_start must be an integer >= 1, got {start!r}")
        if self.optimal_posterior is None and self.nonparametric_posterior is None:
            raise ValueError("a FilterRun must hold the arrays of at least one method")
        shape = None  # (T, M): len(qp_fallback) rows, and the first array's M
        for name in ("optimal_predictive", "optimal_posterior",
                     "nonparametric_predictive", "nonparametric_posterior"):
            v = getattr(self, name)
            if v is None:
                continue
            if np.ndim(v) != 2:
                raise ValueError(f"{name} must be a (T, M) array, got shape {np.shape(v)}")
            if v.shape != (shape := shape or (len(self.qp_fallback), v.shape[1])):
                raise ValueError(f"{name} has shape {v.shape}, expected {shape}")
            bad = ~((v >= 0.0).all(axis=1) & (np.abs(v.sum(axis=1) - 1.0) <= _SIMPLEX_TOL))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"{name} at step n = {self.eval_start + k} "
                                 f"is not a probability vector: {v[k]!r}")


def run_filters(x, model: SwitchingArModel, tau: int = 2, l: int = 1, *, eval_start: int,
                h: Optional[float] = None, mode: str = "both") -> list[FilterRun]:
    """Run the filters ``mode`` selects (one of :data:`MODES`) on an (R, n) block of series.

    ``x`` is array-like, one row per series (R >= 1), and is never written to.  Returns one
    :class:`FilterRun` per row, recording n >= eval_start; a filter that did not run leaves its
    arrays None.  The rows run in lockstep, bit for bit as R blocks of one.  One (steps, R, M)
    buffer over steps p + 1 .. n holds in turn the AR means, read by the nonparametric
    prediction pass (one :func:`emission_mixture_problem` and R QPs per step); their
    log-emissions, made in place for the Bayes updates; and the optimal posteriors, from the
    stationary distribution at n = p + 1 on; the optimal predictives before eval_start share
    one (R, M) scratch row.  Steps eval_start .. n must pass
    :func:`check_window`.  If ``h`` is None, UCV selects it per series on the delay embedding
    (dimension tau + 1, stride l) of its whole series; a float 0 < h < inf pins it.  Each series
    in turn must stay in the filters' float range, then in UCV's if UCV runs; the first that
    does not raises a :class:`SeriesError`.  Every row is checked to be a probability vector.
    """
    if h is not None:
        _check_bandwidth(h)
    try:
        x = np.ascontiguousarray(x, dtype=float)  # C order: numpy reduces in layout order
    except ValueError as exc:  # a ragged list, for one
        raise ValueError(f"x is no (R, n) block of numbers: {exc}") from None
    if x.ndim != 2 or not x.shape[0]:
        raise ValueError(f"x must be an (R, n) block of R >= 1 series, got shape {x.shape}")
    p, (R, n_len), M = model.ar_order, x.shape, model.M
    check_window(model, tau, l, mode, eval_start, n_len)
    T, ucv = n_len + 1 - eval_start, mode != "optimal" and h is None
    # Largest |x| or |mu| the filters' arithmetic takes.  With every |x|, |mu| <= peak, reach * peak
    # bounds each difference they square (an AR mean is at most (1 + 2 ||a||_1) peak); a sum holds
    # at most n_len squares, and the emissions divide one by 2 b^2.  UCV checks its own range.
    reach = 2.0 + 4.0 * max(sum(map(abs, a)) for a in model.a.tolist())
    limit = np.sqrt(np.finfo(float).max * min(1.0 / n_len, 2.0 * model.b2.min())) / reach
    fits = []  # UCV before the block's arrays exist, so the two memory peaks do not add
    for i, row in enumerate(x):
        if not (peak := float(np.abs(np.concatenate([row, model.mu])).max())) <= limit:
            raise SeriesError(i, f" reaches {peak:.3g}, past {limit:.3g}, "
                                 "where the filters' arithmetic overflows")
        try:  # the series is finite and long enough: only no spread, or one past UCV's range, fails
            if ucv:
                fits.append([ucv_bandwidth(embed(row, d=tau + 1, l=l))])
        except ValueError as exc:
            raise SeriesError(i, f": {exc}") from None
    h = np.array(fits) if ucv else h
    opt_pred = opt_post = npar_pred = npar_post = None
    fallback = np.zeros((R, T), dtype=bool)
    # Row i of a lag view holds the history x[p + i - 1], ..., x[i] of step
    # n = p + 1 + i; ar_means gets each series' own strided view.
    buf = np.empty((n_len - p, R, M))  # time-major; the means, log_f, then posteriors
    for r, row in enumerate(x):
        buf[:, r] = model.ar_means(sliding_window_view(row[:-1], p)[:, ::-1])
    k0 = eval_start - p - 1  # row of step n = eval_start

    if mode != "optimal":
        npar_pred = np.empty((T, R, M))
        for k in range(T):
            C, c = emission_mixture_problem(x, eval_start + k, buf[k0 + k], model, tau, l, h)
            for r in range(R):
                sol = solve_kkt(C[r], c[r])
                npar_pred[k, r], fallback[r, k] = sol.u, sol.fallback
    log_f = log_emissions(x[:, p:].T, buf, model, out=buf)
    with np.errstate(divide="ignore"):
        if mode != "optimal":
            npar_post = _bayes_update(log_f[k0:], npar_pred, np.empty_like(npar_pred))
        if mode != "nonparametric":
            opt_pred, trans = np.empty((T, R, M)), model.transition.p
            posterior = np.broadcast_to(model.stationary, (R, M))
            preds = chain(repeat(np.empty((R, M)), k0), opt_pred)  # one scratch row before lo
            for log_f_n, pred_n in zip(log_f, preds):  # each posterior over its log_f row
                posterior = _bayes_update(log_f_n, _predict(posterior, trans, pred_n), log_f_n)
            opt_post = log_f[k0:]

    arrays = (opt_pred, opt_post, npar_pred, npar_post)
    return [FilterRun(eval_start, fallback[r], *(None if v is None else v[:, r] for v in arrays))
            for r in range(R)]
