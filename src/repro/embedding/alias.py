"""Vose alias method for O(1) weighted sampling.

LINE samples edges proportionally to their weights and negative vertices
from a degree^0.75 noise distribution (section 5.2); both need millions of
draws, so constant-time sampling matters. The alias table is built once in
O(n) and then any number of draws cost O(1) each (vectorized here to draw
whole batches at once).

Construction is the classic two-stack pairing (every under-full slot is
topped up by exactly one over-full donor), but run in *vectorized rounds*:
each round matches as many small/large pairs as possible with array ops
instead of one pair per Python-bytecode iteration. Every pairing a round
performs is exactly one step of the scalar algorithm, so the resulting
table encodes the input distribution exactly; only the pairing *order*
(and hence which donor each slot aliases to) differs. A bounded number of
rounds covers real weight distributions; pathological shapes (e.g. one
giant weight and millions of tiny ones) fall back to the scalar loop for
the remainder, so worst-case cost stays O(n).

The tables themselves (``probabilities`` / ``aliases``) are exposed
read-only; the LINE kernel samples from them directly.
"""

from __future__ import annotations

import numpy as np

# Rounds of vectorized pairing before handing the remainder to the scalar
# loop. Each round finalizes min(#small, #large) slots, so balanced
# distributions finish in a handful of rounds; the cap only matters for
# adversarial shapes where one side collapses to a few elements.
_MAX_VECTOR_ROUNDS = 64


def _build_tables_loop(
    scaled: np.ndarray,
    prob: np.ndarray,
    alias: np.ndarray,
    small: list[int],
    large: list[int],
) -> None:
    """Scalar reference pairing: finishes construction in place.

    ``scaled`` holds current residual mass per slot (mean 1.0), ``small``
    and ``large`` the indices still classified under/over 1.0. Used both
    as the fallback tail of the vectorized builder and as the reference
    implementation the tests compare distributions against.
    """
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] + scaled[s] - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    for remainder in (*small, *large):
        prob[remainder] = 1.0
        alias[remainder] = remainder


def build_alias_tables(
    weights: np.ndarray, *, vectorized: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Build (probabilities, aliases) for ``weights``.

    Args:
        weights: Non-negative 1-D weights with a positive sum.
        vectorized: Use the batched-rounds builder (default). ``False``
            forces the scalar reference loop — same distribution, kept
            for testing and as a behavioral baseline.

    Returns:
        ``(prob, alias)`` arrays of ``weights.size`` where slot ``i``
        yields ``i`` with probability ``prob[i]`` and ``alias[i]``
        otherwise.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")

    n = weights.size
    # Normalize before multiplying by n: computing the factor n/total
    # first overflows to inf for denormal totals (total < n/float_max),
    # and 0.0 * inf then poisons zero-weight slots with NaN.
    scaled = (weights / total) * n
    # Slots start self-aliased at probability 1; pairing only rewrites
    # the under-full ones, so leftovers need no cleanup pass.
    prob = np.ones(n)
    alias = np.arange(n, dtype=np.int64)

    if not vectorized:
        small = list(np.flatnonzero(scaled < 1.0))
        large = list(np.flatnonzero(scaled >= 1.0))
        _build_tables_loop(scaled, prob, alias, small, large)
        return prob, alias

    small = np.flatnonzero(scaled < 1.0)
    large = np.flatnonzero(scaled >= 1.0)
    rounds = 0
    while small.size and large.size and rounds < _MAX_VECTOR_ROUNDS:
        rounds += 1
        # Pair k distinct smalls with k distinct larges, 1:1, so every
        # residual update is conflict-free and exact.
        k = min(small.size, large.size)
        s, g = small[:k], large[:k]
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] += scaled[s] - 1.0
        refill = scaled[g] < 1.0
        small = np.concatenate([small[k:], g[refill]])
        large = np.concatenate([large[k:], g[~refill]])
    if small.size and large.size:  # pathological tail: finish scalar
        _build_tables_loop(scaled, prob, alias, list(small), list(large))
    return prob, alias


class AliasSampler:
    """Draws indices i with probability weights[i] / sum(weights)."""

    __slots__ = ("_prob", "_alias")

    def __init__(self, weights: np.ndarray) -> None:
        self._prob, self._alias = build_alias_tables(weights)

    @property
    def probabilities(self) -> np.ndarray:
        """The acceptance-probability table (read-only view)."""
        return self._prob

    @property
    def aliases(self) -> np.ndarray:
        """The alias-index table (read-only view)."""
        return self._alias

    @property
    def size(self) -> int:
        return self._prob.size

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` indices as an int64 array."""
        if count < 0:
            raise ValueError("count must be non-negative")
        slots = rng.integers(0, self.size, size=count)
        # np.take beats fancy indexing on contiguous 1-D tables (~2.5x
        # for typical batch sizes); outputs and RNG stream are identical.
        coin = rng.uniform(size=count) < np.take(self._prob, slots)
        return np.where(coin, slots, np.take(self._alias, slots))
