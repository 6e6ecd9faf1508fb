"""Adaptive Oversampling (AoBPR), Rendle & Freudenthaler, WSDM 2014.

AoBPR replaces BPR's uniform negative draw with a rank-aware one: pick a
latent factor ``q`` (with probability proportional to how much it
matters to the user, ``|U_uq| * std(V_q)``), pick a small rank ``r``
from a geometric law, and return the item at rank ``r`` of the item list
sorted by factor ``q`` — reversed when ``U_uq < 0``.  The ranked lists
are recomputed only periodically.  DSS (``dss.py``) generalizes this
scheme to *both* the negative and the second positive item.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import Sampler, TupleBatch
from repro.sampling.geometric import FactorRankingCache, TruncatedGeometric
from repro.utils.validation import check_in_range


class AdaptiveOversampler(Sampler):
    """Factor-ranked geometric negative sampling.

    Parameters
    ----------
    tail:
        Geometric tail parameter: expected sampled rank as a fraction of
        the list length (smaller = more head-heavy).
    refresh_interval:
        Steps between ranking-list rebuilds (default ``log(m)``).
    """

    def __init__(self, tail: float = 0.1, refresh_interval: int | None = None):
        super().__init__()
        check_in_range(tail, "tail", 0.0, 1.0, inclusive=False)
        self.tail = tail
        self.refresh_interval = refresh_interval
        self._cache: FactorRankingCache | None = None
        self._ranks: TruncatedGeometric | None = None

    def _on_bind(self) -> None:
        self._cache = FactorRankingCache(self.params, self.refresh_interval)
        self._ranks = TruncatedGeometric(self.train.n_items, self.tail)

    def _ranking_caches(self) -> dict:
        return {"ranking": self._cache}

    def _factor_choice(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw factor ``q`` per tuple, ``P(q|u) ∝ |U_uq| * std(V_q)``."""
        importance = np.abs(self.params.user_factors[users]) * self.params.item_factors.std(axis=0)
        totals = importance.sum(axis=1, keepdims=True)
        degenerate = totals.squeeze(1) <= 0
        probs = np.where(totals > 0, importance / np.maximum(totals, 1e-300), 1.0 / importance.shape[1])
        cdf = np.cumsum(probs, axis=1)
        draws = rng.random(len(users))[:, None]
        factors = (draws > cdf).sum(axis=1)
        if degenerate.any():
            factors[degenerate] = rng.integers(0, importance.shape[1], size=int(degenerate.sum()))
        return np.minimum(factors, importance.shape[1] - 1)

    def sample_negative_ranked(
        self, users: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The AoBPR negative draw, reused verbatim by DSS."""
        self._cache.maybe_refresh()
        factors = self._factor_choice(users, rng)
        reverse = self.params.user_factors[users, factors] < 0
        neg_j = self._cache.items_at(factors, self._ranks.draw(rng, len(users)), reverse)
        return self.redraw_observed(
            users,
            neg_j,
            lambda where: self._cache.items_at(
                factors[where], self._ranks.draw(rng, len(where)), reverse[where]
            ),
            rng,
        )

    def _sample(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        users, pos_i = self.sample_anchor_pairs(batch_size, rng)
        pos_k = self.sample_second_positive_uniform(users, pos_i, rng)
        neg_j = self.sample_negative_ranked(users, rng)
        return TupleBatch(users=users, pos_i=pos_i, pos_k=pos_k, neg_j=neg_j)
