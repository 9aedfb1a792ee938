"""Markov-switching AR(p) model: domain types and trajectory simulation.

The observable series follows, conditionally on the hidden state s,

    x[n] = mu(s) + sum_i a_i(s) * (x[n-i] - mu(s)) + b(s) * xi[n],

with xi[n] i.i.d. standard normal and s an M-state Markov chain.
States are 1-based in all public interfaces.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields

import numpy as np

_ROW_SUM_TOL = 1e-12


def _is_number(value) -> bool:
    """True for a finite real that a float holds, not a bool (`true` is no coefficient)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= np.finfo(float).max.item()


def _is_int(value) -> bool:
    """True for an integer that is not a bool (bool subclasses int; `true` is no count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; a ValueError naming ``name`` unless every leaf is a number."""
    if not all(map(_is_number, np.asarray(value, dtype=object).ravel())):  # "0.5" is no number
        raise ValueError(f"{name} must be an array of numbers, got {value!r}")
    return np.asarray(value, dtype=float)


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic transition matrix, p[i, j] = Pr(next = j | current = i)."""

    p: np.ndarray

    def __post_init__(self):
        p = _number_array(self.p, "transition")
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {p.shape}")
        if p.shape[0] < 1:
            raise ValueError("transition matrix must have at least one state")
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
        for name in ("mu", "b"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        self.mu, self.b = float(self.mu), float(self.b)
        self.a = np.atleast_1d(_number_array(self.a, "a"))
        if self.a.ndim != 1:
            raise ValueError("a must be a 1-D coefficient vector")
        with np.errstate(over="ignore", invalid="ignore"):  # a term of every AR mean
            if not np.isfinite(self.a.sum() * self.mu):
                raise ValueError("a.sum() * mu leaves the float range")
        if not self.b > 0.0:
            raise ValueError(f"b must be positive, got {self.b}")
        if not 0.0 < self.b * self.b < np.inf:
            raise ValueError(f"b must have a nonzero square that is finite (b^2 is the "
                             f"emission variance), got {self.b}")

    @property
    def p(self) -> int:
        """AR order."""
        return self.a.shape[0]


@dataclass(eq=False)
class SwitchingArModel:
    """Hidden chain, started from its stationary law ``stationary`` (read-only, computed when
    built; a reducible chain is refused), plus one ArStateParams per state."""

    transition: TransitionMatrix
    states: list[ArStateParams]

    def __post_init__(self):
        if len(self.states) != self.transition.M:
            raise ValueError(
                f"got {len(self.states)} state parameter sets for "
                f"{self.transition.M} chain states"
            )
        orders = {s.p for s in self.states}
        if len(orders) != 1:
            raise ValueError(f"all states must share one AR order, got orders {sorted(orders)}")
        # Per-state parameters as arrays, built once for the filters' inner loops.
        self.mu = np.array([st.mu for st in self.states])
        self.a = np.stack([st.a for st in self.states])
        self.b = np.array([st.b for st in self.states])
        self.b2 = self.b ** 2
        self._a_mu = self.a.sum(axis=1) * self.mu
        try:  # simulate and both filters start here, so every model that exists can start
            self.stationary = stationary_distribution(self.transition)
        except ValueError as exc:
            raise ValueError(f"transition: {exc}") from None
        self.stationary.setflags(write=False)

    @property
    def M(self) -> int:
        return self.transition.M

    @property
    def ar_order(self) -> int:
        return self.states[0].p

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
        s = np.asarray(self.s)  # checked, not cast: int conversion truncates a state 1.5 to 1
        if s.dtype.kind not in "iuf" or not np.all(np.isfinite(s) & (np.trunc(s) == s)):
            raise ValueError(f"s must hold whole numbers, got {self.s!r}")
        self.s = s.astype(int, copy=False)
        self.x = np.asarray(self.x, dtype=float)
        if self.s.shape != self.x.shape or self.s.ndim != 1:
            raise ValueError("s and x must be 1-D arrays of equal length")

    def __len__(self) -> int:
        return self.s.shape[0]


def stationary_distribution(t: TransitionMatrix) -> np.ndarray:
    """Stationary distribution pi with pi @ P = pi, by GTH elimination.

    Grassmann-Taksar-Heyman elimination takes each pivot as a row's off-diagonal sum, so
    no digit cancels, however sticky the chain.  Every stored entry is a probability and
    pi's largest entry stays 1 until the end, so nothing overflows.  A reducible chain
    raises a ValueError (its boolean reachability matrix, squared M.bit_length() times,
    is not all True), and so does one that rounding splits: flows below the least float.
    """
    P = t.p
    reach = (P > 0.0) | np.eye(t.M, dtype=bool)
    for _ in range(t.M.bit_length()):
        reach = reach @ reach
    if not reach.all():
        raise ValueError("chain is reducible: some state cannot reach another")
    A, exits = P.copy(), np.ones(t.M)
    for k in range(t.M - 1, 0, -1):  # censor state k: its flows pass to states 0..k-1
        exits[k] = A[k, :k].sum()
        A[k, :k] /= exits[k] or 1.0  # where k goes once it leaves (nowhere if exits underflow)
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.ones(t.M)
    for k in range(1, t.M):  # pi[k] = pi[:k] @ A[:k, k] / exits[k], all scaled to max 1
        inflow = pi[:k] @ A[:k, k]
        scale = max(exits[k], inflow)
        if scale == 0.0:
            raise ValueError(f"chain is reducible in float arithmetic at state {k + 1}")
        pi[:k] *= exits[k] / scale
        pi[k] = inflow / scale
    return pi / pi.sum()


def simulate(model: SwitchingArModel, n: int, burn_in: int = 100,
             rng_seed: int = 0) -> Trajectory:
    """Draw a trajectory of exactly ``n`` (state, observation) pairs.

    The chain and the AR innovations consume two independent sub-streams
    spawned from ``rng_seed`` (children 0 and 1 of its SeedSequence), so the
    state path is unchanged if only the noise model varies and vice versa.
    The p pre-sample observations are pinned to mu(S_1) and the first
    ``burn_in`` steps are discarded.
    """
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (_is_int(burn_in) and burn_in >= 0):
        raise ValueError(f"burn_in must be an integer >= 0, got {burn_in!r}")
    if not (_is_int(rng_seed) and rng_seed >= 0):
        raise ValueError(f"rng_seed must be an integer >= 0, got {rng_seed!r}")

    chain_seq, noise_seq = np.random.SeedSequence(rng_seed).spawn(2)
    rng_chain = np.random.default_rng(chain_seq)
    rng_noise = np.random.default_rng(noise_seq)

    p = model.ar_order
    total = burn_in + n
    # Row i < M draws the successor of state i; row M, the stationary law, draws S_1.
    cum_rows = np.cumsum(np.vstack([model.transition.p, model.stationary]), axis=1)
    cum_rows[:, -1] = np.maximum(cum_rows[:, -1], 1.0)  # absorb rounding in the last bin
    # State j is drawn when cum[j - 1] <= u < cum[j] (bisect_right on plain floats).
    rows, state, chain = cum_rows.tolist(), model.M, []
    for u_k in memoryview(rng_chain.random(total)):  # Python floats, the same bits
        state = bisect_right(rows[state], u_k)
        chain.append(state)
    s = np.array(chain)

    # Not SwitchingArModel.ar_means: mu + (a . (lags - mu)) rounds apart from it.  The step
    # sums in Python floats, lag by lag in index order, so every kernel gives the same bits.
    mu, a = model.mu.tolist(), model.a.tolist()
    noise = memoryview(model.b[s] * rng_noise.standard_normal(total))

    x = np.empty(p + total)
    x[:p] = mu[chain[0]]
    out = memoryview(x)  # reads and writes Python floats
    for k, (m, e) in enumerate(zip(chain, noise), p):
        mu_m, dot = mu[m], 0.0
        for i, a_i in enumerate(a[m], 1):  # a_i (x[n-i] - mu), i = 1, ..., p
            dot += a_i * (out[k - i] - mu_m)
        out[k] = mu_m + dot + e

    return Trajectory(s=s[burn_in:] + 1, x=x[p + burn_in:])


def check_fields(doc, name: str, cls, error: type = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``doc`` is a dict whose keys are fields of the
    dataclass ``cls``, with none missing that lacks a default."""
    if not isinstance(doc, dict):
        raise error(f"{name} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"unknown {name} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
    if missing:
        raise error(f"{name} is missing {missing[0]!r}")


def model_from_dict(doc: dict) -> SwitchingArModel:
    """Build a SwitchingArModel from its JSON document form.

    Expected shape::

        {"transition": [[...]],
         "states": [{"mu": ..., "a": [...], "b": ...}, ...]}

    Unknown keys are rejected; the types check the numbers.
    """
    check_fields(doc, "model", SwitchingArModel)
    if not isinstance(doc["states"], list):
        raise ValueError(f"states must be a list of objects, got {doc['states']!r}")
    states = []
    for i, sdoc in enumerate(doc["states"]):
        check_fields(sdoc, f"states[{i}]", ArStateParams)
        try:
            states.append(ArStateParams(**sdoc))
        except ValueError as exc:  # its messages start with the parameter's name
            raise ValueError(f"states[{i}].{exc}") from None
    return SwitchingArModel(TransitionMatrix(doc["transition"]), states)
