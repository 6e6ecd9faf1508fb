"""ABS — Alpha-Beta Sampling (Cheng et al., ICDM 2019).

The third adaptive sampler the paper's related work cites (Section 2.1,
class (2)).  ABS restricts rank-aware draws to a *window* of the
factor-ranked item list: negatives come from the percentile band
``[alpha, beta]`` counted from the head.  The head itself (ranks below
``alpha``) is excluded because the very hardest "negatives" are the
likeliest false negatives (items the user would actually like), and the
tail is excluded because its gradients vanish — the band between is
where informative true negatives live.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import Sampler, TupleBatch
from repro.sampling.geometric import FactorRankingCache
from repro.utils.exceptions import ConfigError
from repro.utils.validation import check_in_range


class AlphaBetaSampler(Sampler):
    """Rank-window negative sampling.

    Parameters
    ----------
    alpha, beta:
        Window bounds as fractions of the item list, ``0 <= alpha <
        beta <= 1``; negatives are drawn uniformly from ranks in
        ``[alpha * m, beta * m)`` of a uniformly-chosen factor's list
        (reversed when ``sgn(U_uq) < 0``, as in AoBPR/DSS).
    refresh_interval:
        Steps between ranking-list rebuilds (default ``log(m)``).
    """

    def __init__(self, alpha: float = 0.05, beta: float = 0.4, refresh_interval: int | None = None):
        super().__init__()
        check_in_range(alpha, "alpha", 0.0, 1.0)
        check_in_range(beta, "beta", 0.0, 1.0)
        if alpha >= beta:
            raise ConfigError(f"alpha must be < beta, got alpha={alpha}, beta={beta}")
        self.alpha = alpha
        self.beta = beta
        self.refresh_interval = refresh_interval
        self._cache: FactorRankingCache | None = None

    def _on_bind(self) -> None:
        self._cache = FactorRankingCache(self.params, self.refresh_interval)

    def _ranking_caches(self) -> dict:
        return {"ranking": self._cache}

    def _window_ranks(self, size: int, rng: np.random.Generator) -> np.ndarray:
        n_items = self.train.n_items
        low = int(self.alpha * n_items)
        high = max(int(self.beta * n_items), low + 1)
        return rng.integers(low, high, size=size)

    def sample_negative_windowed(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Uniform draw of an unobserved item from the [alpha, beta) band."""
        self._cache.maybe_refresh()
        factors = rng.integers(0, self.params.n_factors, size=len(users))
        reverse = self.params.user_factors[users, factors] < 0
        neg_j = self._cache.items_at(factors, self._window_ranks(len(users), rng), reverse)
        return self.redraw_observed(
            users,
            neg_j,
            lambda where: self._cache.items_at(
                factors[where], self._window_ranks(len(where), rng), reverse[where]
            ),
            rng,
        )

    def _sample(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        users, pos_i = self.sample_anchor_pairs(batch_size, rng)
        pos_k = self.sample_second_positive_uniform(users, pos_i, rng)
        neg_j = self.sample_negative_windowed(users, rng)
        return TupleBatch(users=users, pos_i=pos_i, pos_k=pos_k, neg_j=neg_j)
