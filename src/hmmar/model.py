"""Markov-switching AR(p) model: domain types and trajectory simulation.

The observable series follows, conditionally on the hidden state s,

    x[n] = mu(s) + sum_i a_i(s) * (x[n-i] - mu(s)) + b(s) * xi[n],

with xi[n] i.i.d. standard normal and s an M-state Markov chain.
States are 1-based in all public interfaces.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

_ROW_SUM_TOL = 1e-12
_STATIONARY_MAX_ITER = 10_000  # power-iteration budget of stationary_distribution
_STATIONARY_TOL = 1e-13  # its L1 step size at convergence


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic transition matrix, p[i, j] = Pr(next = j | current = i)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {p.shape}")
        if p.shape[0] < 1:
            raise ValueError("transition matrix must have at least one state")
        if not np.isfinite(p).all():
            raise ValueError("transition matrix contains non-finite entries")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_err = np.max(np.abs(p.sum(axis=1) - 1.0))
        if row_err > _ROW_SUM_TOL:
            raise ValueError(f"transition rows must sum to 1; max |row_sum - 1| = {row_err:.3e}")
        self.p = p

    @property
    def M(self) -> int:
        return self.p.shape[0]


@dataclass(eq=False)
class ArStateParams:
    """AR(p) coefficients active while the chain sits in one state."""

    mu: float
    a: np.ndarray
    b: float

    def __post_init__(self):
        self.mu = float(self.mu)
        self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
        self.b = float(self.b)
        if self.a.ndim != 1:
            raise ValueError("a must be a 1-D coefficient vector")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not np.isfinite(self.a).all():
            raise ValueError(f"a must be finite, got {self.a}")
        if not 0.0 < self.b < np.inf:
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if not 0.0 < self.b * self.b < np.inf:
            raise ValueError(f"b must have a nonzero square that is finite (b^2 is the "
                             f"emission variance), got {self.b}")

    @property
    def p(self) -> int:
        """AR order."""
        return self.a.shape[0]


@dataclass(eq=False)
class SwitchingArModel:
    """Hidden chain plus one ArStateParams per state.

    ``initial_dist`` is the distribution of the first hidden state; ``None``
    means "use the stationary distribution" (resolved at simulation time).
    """

    transition: TransitionMatrix
    states: list[ArStateParams]
    initial_dist: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.states) != self.transition.M:
            raise ValueError(
                f"got {len(self.states)} state parameter sets for "
                f"{self.transition.M} chain states"
            )
        orders = {s.p for s in self.states}
        if len(orders) != 1:
            raise ValueError(f"all states must share one AR order, got orders {sorted(orders)}")
        if self.initial_dist is not None:
            q = np.asarray(self.initial_dist, dtype=float)
            if q.shape != (self.transition.M,):
                raise ValueError(f"initial_dist must have length {self.transition.M}")
            if not (q.min() >= 0.0 and abs(q.sum() - 1.0) <= _ROW_SUM_TOL):
                raise ValueError("initial_dist must be a probability vector")
            self.initial_dist = q
        # Per-state parameters as arrays, built once for the filters' inner loops.
        self.mu = np.array([st.mu for st in self.states])
        self.a = np.stack([st.a for st in self.states])
        self.b = np.array([st.b for st in self.states])
        self.b2 = self.b ** 2
        self._a_mu = self.a.sum(axis=1) * self.mu

    @property
    def M(self) -> int:
        return self.transition.M

    @property
    def ar_order(self) -> int:
        return self.states[0].p

    @cached_property
    def stationary(self) -> np.ndarray:
        """Read-only :func:`stationary_distribution` of the chain, computed once."""
        pi = stationary_distribution(self.transition)
        pi.setflags(write=False)
        return pi

    def ar_means(self, history: np.ndarray) -> np.ndarray:
        """AR conditional mean mu + sum_i a_i (x[n-i] - mu) of every state.

        ``history`` is ordered most recent first: (x[n-1], ..., x[n-p]).  A
        (k, p) stack of histories gives a (k, M) array, row by row bit-equal
        to the (M,) result of each history alone.
        """
        if history.ndim not in (1, 2) or history.shape[-1] != self.ar_order:
            raise ValueError(f"history must hold {self.ar_order} values (most recent first)")
        # matmul over (p, 1) columns rounds like a @ history for one history;
        # einsum or lags @ a.T would not.
        return self.mu + np.matmul(self.a, history[..., None])[..., 0] - self._a_mu


@dataclass(eq=False)
class Trajectory:
    """Simulated path: hidden states s (1-based) and observations x."""

    s: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=int)
        self.x = np.asarray(self.x, dtype=float)
        if self.s.shape != self.x.shape or self.s.ndim != 1:
            raise ValueError("s and x must be 1-D arrays of equal length")

    def __len__(self) -> int:
        return self.s.shape[0]


def stationary_distribution(t: TransitionMatrix) -> np.ndarray:
    """Stationary distribution pi with pi @ P = pi.

    Power iteration on the lazy chain (P + I)/2, which shares the fixed point
    but cannot oscillate on periodic chains.  A reducible chain (no unique
    stationary distribution) is rejected up front: its boolean reachability
    matrix, squared M.bit_length() times, is not all True.

    Raises
    ------
    ValueError
        If the chain is reducible or the iteration fails to converge.
    """
    P = t.p
    reach = (P > 0.0) | np.eye(t.M, dtype=bool)
    for _ in range(t.M.bit_length()):
        reach = reach @ reach
    if not reach.all():
        raise ValueError("chain is reducible: stationary distribution is not unique")
    Q = 0.5 * (P + np.eye(t.M))
    pi = np.full(t.M, 1.0 / t.M)
    for _ in range(_STATIONARY_MAX_ITER):
        nxt = pi @ Q
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() < _STATIONARY_TOL:
            return nxt
        pi = nxt
    raise ValueError(f"power iteration did not converge in {_STATIONARY_MAX_ITER} steps")


def simulate(model: SwitchingArModel, n: int, burn_in: int = 100,
             rng_seed: int = 0) -> Trajectory:
    """Draw a trajectory of exactly ``n`` (state, observation) pairs.

    The chain and the AR innovations consume two independent sub-streams
    spawned from ``rng_seed`` (children 0 and 1 of its SeedSequence), so the
    state path is unchanged if only the noise model varies and vice versa.
    The p pre-sample observations are pinned to mu(S_1) and the first
    ``burn_in`` steps are discarded.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")

    chain_seq, noise_seq = np.random.SeedSequence(rng_seed).spawn(2)
    rng_chain = np.random.default_rng(chain_seq)
    rng_noise = np.random.default_rng(noise_seq)

    p = model.ar_order
    init = model.stationary if model.initial_dist is None else model.initial_dist

    total = burn_in + n
    cum_rows = np.cumsum(model.transition.p, axis=1)
    cum_rows[:, -1] = np.maximum(cum_rows[:, -1], 1.0)  # absorb rounding in the last bin
    cum_init = np.cumsum(init)
    cum_init[-1] = max(cum_init[-1], 1.0)
    # State j is drawn when cum[j - 1] <= u < cum[j] (bisect_right on plain floats).
    rows = cum_rows.tolist()
    u = rng_chain.random(total)
    state = bisect_right(cum_init.tolist(), u[0])
    chain = [state]
    for u_k in u[1:]:
        state = bisect_right(rows[state], u_k)
        chain.append(state)
    s = np.array(chain)

    # Not SwitchingArModel.ar_means: mu + a (lags - mu) rounds differently from
    # it, and every simulated trajectory's bytes depend on this expression.
    mu, a, b = model.mu, model.a, model.b
    xi = rng_noise.standard_normal(total)

    x = np.empty(p + total)
    x[:p] = mu[s[0]]
    for k in range(total):
        m = s[k]
        lags = x[k:p + k][::-1]  # x[n-1], ..., x[n-p]
        x[p + k] = mu[m] + a[m] @ (lags - mu[m]) + b[m] * xi[k]

    return Trajectory(s=s[burn_in:] + 1, x=x[p + burn_in:])


_MODEL_KEYS = {"transition", "states", "initial_dist"}
_STATE_KEYS = {"mu", "a", "b"}


def _is_number(value) -> bool:
    """True for a float, or a real non-bool (`true` is no coefficient) that a float holds."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return isinstance(value, float) or real and abs(value) <= np.finfo(float).max.item()


def _float_array(doc: dict, key: str) -> np.ndarray:
    if not all(map(_is_number, np.asarray(doc[key], dtype=object).ravel())):  # "0.5" is no number
        raise ValueError(f"{key} must be an array of numbers, got {doc[key]!r}")
    return np.asarray(doc[key], dtype=float)


def model_from_dict(doc: dict) -> SwitchingArModel:
    """Build a SwitchingArModel from its JSON document form.

    Expected shape::

        {"transition": [[...]],
         "states": [{"mu": ..., "a": [...], "b": ...}, ...],
         "initial_dist": [...]}          # optional

    Unknown keys are rejected.
    """
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    for key in ("transition", "states"):
        if key not in doc:
            raise ValueError(f"model document is missing '{key}'")
    if not isinstance(doc["states"], list):
        raise ValueError(f"states must be a list of objects, got {doc['states']!r}")
    states = []
    for i, sdoc in enumerate(doc["states"]):
        if not isinstance(sdoc, dict):
            raise ValueError(f"states[{i}] must be an object")
        unknown = set(sdoc) - _STATE_KEYS
        if unknown:
            raise ValueError(f"unknown keys in states[{i}]: {sorted(unknown)}")
        missing = _STATE_KEYS - set(sdoc)
        if missing:
            raise ValueError(f"states[{i}] is missing {sorted(missing)}")
        for key in ("mu", "b"):
            if not _is_number(sdoc[key]):
                raise ValueError(f"states[{i}].{key} must be a number, got {sdoc[key]!r}")
        a = sdoc["a"]
        if not (_is_number(a) or isinstance(a, list) and all(map(_is_number, a))):
            raise ValueError(f"states[{i}].a must be a list of numbers, got {a!r}")
        try:
            states.append(ArStateParams(mu=sdoc["mu"], a=sdoc["a"], b=sdoc["b"]))
        except ValueError as exc:  # its messages start with the parameter's name
            raise ValueError(f"states[{i}].{exc}") from None
    initial = doc.get("initial_dist")
    return SwitchingArModel(
        transition=TransitionMatrix(_float_array(doc, "transition")),
        states=states,
        initial_dist=None if initial is None else _float_array(doc, "initial_dist"),
    )
