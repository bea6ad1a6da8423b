"""Coupled Markov model of an ion-channel ensemble.

L binary channels evolve jointly; each coordinate's transition depends only
on its own state and on the current number of open channels r = |x|_1:

* a closed channel stays closed with probability lam[r]   (r = 0..L-1),
* an open channel stays open with probability   eta[r-1]  (r = 1..L),

and, given the current vector, coordinates move independently.  Only the sum
process S_k (number of open channels) is observable; its transition matrix
has a closed form implemented here together with a brute-force enumeration
used as an independent oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np


class OutOfRange(ValueError):
    """A parameter entry lies outside [0, 1]."""

    def __init__(self, name: str, index: int, value: float):
        self.name = name
        self.index = index
        self.value = value
        super().__init__(f"{name}[{index}] = {value!r} outside [0, 1]")


class LTooLarge(ValueError):
    """Brute-force enumeration refused for L > 20."""


@dataclass(frozen=True)
class ParamVector:
    """Stay probabilities (lam[0..L-1], eta[0..L-1]) of an L-channel ensemble.

    eta[r-1] is the open->open stay probability when r channels are open, so
    the flat layout is (lam_0, ..., lam_{L-1}, eta_1, ..., eta_L).  Every
    instance is valid: construction checks L >= 1, both lengths and the box.
    """

    L: int
    lam: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", int(self.L))
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, dtype=float)))
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, dtype=float)))
        if self.L < 1:
            raise ValueError(f"L = {self.L} must be >= 1")
        if len(self.lam) != self.L or len(self.eta) != self.L:
            raise ValueError(
                f"expected {self.L} entries each, got lam: {len(self.lam)}, eta: {len(self.eta)}"
            )
        for name, arr in (("lambda", self.lam), ("eta", self.eta)):
            for i, v in enumerate(arr):
                if not (0.0 <= v <= 1.0):
                    raise OutOfRange(name, i, float(v))

    @classmethod
    def from_flat(cls, flat) -> "ParamVector":
        flat = np.asarray(flat, dtype=float)
        if len(flat) % 2:
            raise ValueError(f"flat vector of length {len(flat)} is not 2L")
        L = len(flat) // 2
        return cls(L, flat[:L], flat[L:])

    @classmethod
    def constant(cls, L: int, lam: float, eta: float) -> "ParamVector":
        return cls(L, np.full(L, float(lam)), np.full(L, float(eta)))

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate([self.lam, self.eta])


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic (L+1) x (L+1) matrix of the sum process.

    Empirical matrices carry per-row visit counts; rows with zero visits are
    masked (NaN entries) and exempt from validation.
    """

    entries: np.ndarray
    row_counts: np.ndarray | None = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("transition matrix must be square")
        if self.row_counts is not None:
            counts = np.asarray(self.row_counts)
            if counts.shape != (entries.shape[0],) or (counts < 0).any():
                raise ValueError("row_counts must be one nonnegative count per row")
            object.__setattr__(self, "row_counts", counts.astype(np.int64))
        for i, row in enumerate(entries):
            if self.row_counts is not None and self.row_counts[i] == 0:
                continue
            if np.any(row < -1e-15) or np.any(row > 1 + 1e-12):
                raise ValueError(f"row {i} has entries outside [0, 1]")
            if abs(row.sum() - 1.0) > 1e-12:
                raise ValueError(f"row {i} sums to {row.sum()!r}, not 1")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def row_mask(self) -> np.ndarray:
        """Boolean mask of defined (visited) rows."""
        if self.row_counts is None:
            return np.ones(self.dim, dtype=bool)
        return self.row_counts > 0


@dataclass(frozen=True)
class JointTrace:
    """Per-channel binary states (n x L) and their row sums."""

    states: np.ndarray
    sums: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        sums = np.asarray(self.sums)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "sums", sums)
        if states.ndim != 2:
            raise ValueError("states must be an n x L matrix")
        if not np.array_equal(states.sum(axis=1), sums):
            raise ValueError("sums must equal the row sums of states")
        if states.size and (states.min() < 0 or states.max() > 1):
            raise ValueError("states must be binary")

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def L(self) -> int:
        return self.states.shape[1]


class Verdict(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CooperativityReport:
    """Cooperativity ratios and verdict for a parameter vector.

    lambda_ratios[r-1] = lam_0 / lam_r, eta_open_ratios[r-1] = eta_L / eta_r,
    eta_close_ratios[r-1] = eta_{r+1} / eta_1 for r = 1..L-1.
    """

    theta_hat: ParamVector
    lambda_ratios: np.ndarray
    eta_open_ratios: np.ndarray
    eta_close_ratios: np.ndarray
    verdict: Verdict
    tolerance: float


def _row_params(theta: ParamVector, i: int) -> tuple[float, float]:
    """(lam_i, eta_i) entering row i; the placeholder values for the missing
    lam_L / eta_0 only ever appear with exponent zero."""
    li = float(theta.lam[i]) if i < theta.L else 0.0
    ei = float(theta.eta[i - 1]) if i >= 1 else 0.0
    return li, ei


@lru_cache(maxsize=64)
def _row_tables(L: int, i: int):
    """Coefficients and exponents of the splits of row i, shaped
    (i+1, L-i+1, 1, 1, 1) to broadcast against a block of axes: split
    (r, m), where r of the i open channels close and m of the L-i closed
    ones open, leads to entry j = i - r + m.  The eta exponents depend on r
    alone and the lam exponents on m alone, so each keeps a unit axis for
    the other."""
    r = np.arange(i + 1)[:, None]
    m = np.arange(L - i + 1)[None, :]
    coeff = np.array([[comb(i, rr) * comb(L - i, mm) for mm in range(L - i + 1)]
                      for rr in range(i + 1)], dtype=float)
    return tuple(np.ascontiguousarray(t)[:, :, None, None, None]
                 for t in (coeff, i - r, r, L - i - m, m))


def sum_leading(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by whole-array adds, in the order numpy's add.reduce
    sums a contiguous last axis: one term after another below 8 terms, eight
    running sums combined pairwise from 8 to 128 terms, halves beyond.  The
    result has the bits of ``.sum(axis=-1)`` over a C-contiguous copy with
    axis 0 moved last (up to the sign of a zero sum, which nonnegative terms
    never make), at a fraction of the cost when the summed axis is short and
    the others are not."""
    n = len(x)
    if n < 8:
        return sum(x[1:], x[0])
    if n > 128:
        half = n // 2 - n // 2 % 8
        return sum_leading(x[:half]) + sum_leading(x[half:])
    whole = n - n % 8
    acc = sum(x[8:whole].reshape(-1, 8, *x.shape[1:]), x[:8])
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    return sum(x[whole:], acc[0] + acc[1])


def _sum_splits(terms: np.ndarray, i: int, L: int) -> np.ndarray:
    """Entries 0..L of row i from its split terms (i+1, L-i+1, ...), split
    (r, m) leading to entry i - r + m: each entry's terms summed over r in
    the order of ``sum_leading`` over an (i+1, L+1, ...) layout that holds a
    zero wherever r has no split into the entry.  Adding a zero leaves every
    partial sum as it is, so each split is added into its own entries
    alone."""
    n, width = terms.shape[:2]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_splits(terms[:half], i, L) + _sum_splits(terms[half:], i - half, L)

    def added(splits, acc):
        for r in splits:
            acc[i - r:i - r + width] += terms[r]
        return acc

    shape = (L + 1, *terms.shape[2:])
    if n < 8:
        return added(range(n), np.zeros(shape))
    whole = n - n % 8
    a = [added(range(k, whole, 8), np.zeros(shape)) for k in range(8)]
    paired = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    return added(range(whole, n), paired)


def transition_rows(L: int, i: int, lam, eta) -> np.ndarray:
    """Row i of the sum-process transition matrix, which depends only on
    (lam_i, eta_i), at every pair of a lam axis (S, A) and an eta axis (S, B)
    per block: returns (L+1, S, A, B), the entry axis first.  Each split's
    term is the product of a single pair's powers in a fixed order, and the
    splits are summed by ``_sum_splits``; so a pair gets the same bits in
    any block, and each entry those of summing its (i+1) split terms, zeros
    for splits that cannot reach it, along a contiguous last axis."""
    coeff, e_eta, e_eta_c, e_lam, e_lam_c = _row_tables(L, i)
    lam = np.asarray(lam, dtype=float)[:, :, None]
    eta = np.asarray(eta, dtype=float)[:, None, :]
    eta_terms = coeff * eta ** e_eta * (1.0 - eta) ** e_eta_c
    return _sum_splits(eta_terms * lam ** e_lam * (1.0 - lam) ** e_lam_c, i, L)


def sum_transition_matrix(theta: ParamVector) -> TransitionMatrix:
    """Closed-form transition matrix of the sum process."""
    L = theta.L
    q = np.empty((L + 1, L + 1))
    for i in range(L + 1):
        li, ei = _row_params(theta, i)
        q[i] = transition_rows(L, i, [[li]], [[ei]])[:, 0, 0, 0]
    return TransitionMatrix(q)


def sum_transition_matrix_bruteforce(theta: ParamVector) -> TransitionMatrix:
    """Transition matrix by enumerating all 2^L target states.

    For each row the source is the canonical vector with the first i
    coordinates open (any representative works, by permutation invariance).
    """
    L = theta.L
    if L > 20:
        raise LTooLarge(f"2^{L} states is too many to enumerate")
    bits = (np.arange(2**L)[:, None] >> np.arange(L)) & 1
    norms = bits.sum(axis=1)
    q = np.empty((L + 1, L + 1))
    for i in range(L + 1):
        li, ei = _row_params(theta, i)
        source_open = np.arange(L) < i
        p_from_open = np.where(bits == 1, ei, 1.0 - ei)
        p_from_closed = np.where(bits == 1, 1.0 - li, li)
        per_coord = np.where(source_open, p_from_open, p_from_closed)
        q[i] = np.bincount(norms, weights=per_coord.prod(axis=1), minlength=L + 1)
    return TransitionMatrix(q)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def simulate_vnd(theta: ParamVector, n: int, seed, init="all-closed") -> JointTrace:
    """Simulate the joint chain for n steps.

    The generator is Philox (counter based) keyed by ``seed``; the uniforms
    for all transitions are drawn as one (n-1, L) block up front, so the draw
    consumed by coordinate i at step k is fixed regardless of evaluation
    order.  ``init`` is "all-closed" or an explicit binary vector.

    Coordinate i moves at step k only if its draw reaches its stay
    probability, so a step whose draws all lie below the smallest entry of
    theta moves no channel in any state.  The scalar rule runs only on
    the other steps, and the states in between are repeats of the last one:
    the same draws give the same trace as a rule applied at every step.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    L = theta.L
    if isinstance(init, str):
        if init != "all-closed":
            raise ValueError(f"unknown init spec {init!r}")
        x0 = np.zeros(L, dtype=np.int8)
    else:
        x0 = np.asarray(init).astype(np.int8)
        if x0.shape != (L,) or ((x0 != 0) & (x0 != 1)).any():
            raise ValueError("init must be a binary vector of length L")
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    u = rng.random((n - 1, L))
    steps = np.flatnonzero((u >= min(theta.lam.min(), theta.eta.min())).any(axis=1))
    lam = theta.lam.tolist()
    eta = theta.eta.tolist()
    x = [int(v) for v in x0]
    s = sum(x)
    visited = []
    for uk in u[steps].tolist():
        ls = lam[s] if s < L else 0.0
        es = eta[s - 1] if s >= 1 else 0.0
        new = 0
        for i in range(L):
            if x[i]:
                x[i] = 1 if uk[i] < es else 0
            else:
                x[i] = 0 if uk[i] < ls else 1
            new += x[i]
        s = new
        visited += x
    # row k + 1 is the state after step k, held until the next step that ran
    runs = np.diff(np.concatenate(([0], steps + 1, [n])))
    held = np.concatenate((x0, np.array(visited, dtype=np.int8))).reshape(-1, L)
    return JointTrace(states=np.repeat(held, runs, axis=0),
                      sums=np.repeat(held.sum(axis=1, dtype=np.int16), runs))


def classify_cooperativity(theta: ParamVector, tol: float = 1e-3) -> CooperativityReport:
    """Cooperativity verdict from the ratio families of the parameter vector.

    Positive needs every lam_0/lam_r and eta_L/eta_r above 1+tol, negative
    needs every lam_0/lam_r and eta_{r+1}/eta_1 below 1-tol, zero needs all
    three families inside [1-tol, 1+tol].  A single channel has no ratios and
    is reported zero; a vanishing denominator gives indeterminate.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    L = theta.L
    lam, eta = theta.lam, theta.eta
    r = np.arange(1, L)
    denominators = np.concatenate([lam[1:], eta[: L - 1]])
    with np.errstate(divide="ignore", invalid="ignore"):
        lambda_ratios = lam[0] / lam[r]
        eta_open_ratios = eta[L - 1] / eta[r - 1]
        eta_close_ratios = eta[r] / eta[0]

    if L == 1:
        verdict = Verdict.ZERO
    elif (denominators == 0).any():
        verdict = Verdict.INDETERMINATE
    else:
        positive = (lambda_ratios > 1 + tol).all() and (eta_open_ratios > 1 + tol).all()
        negative = (lambda_ratios < 1 - tol).all() and (eta_close_ratios < 1 - tol).all()
        all_ratios = np.concatenate([lambda_ratios, eta_open_ratios, eta_close_ratios])
        zero = ((1 - tol <= all_ratios) & (all_ratios <= 1 + tol)).all()
        if positive:
            verdict = Verdict.POSITIVE
        elif negative:
            verdict = Verdict.NEGATIVE
        elif zero:
            verdict = Verdict.ZERO
        else:
            verdict = Verdict.INDETERMINATE
    return CooperativityReport(
        theta_hat=theta,
        lambda_ratios=np.asarray(lambda_ratios, dtype=float),
        eta_open_ratios=np.asarray(eta_open_ratios, dtype=float),
        eta_close_ratios=np.asarray(eta_close_ratios, dtype=float),
        verdict=verdict,
        tolerance=float(tol),
    )
