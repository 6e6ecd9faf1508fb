"""Double Sampling Strategy (DSS) — Section 5.2 of the paper.

DSS draws *both* non-anchor items by rank so each gradient step stays
informative (Section 5.1's gradient-vanishing analysis):

* Step 1-2: rank all items by a uniformly-chosen latent factor ``f_q``;
* Step 3: look at ``sgn(U_uq)`` — if negative, reverse the list;
* Step 4 (CLAPF-MAP): ``k`` is geometric-sampled from the *bottom* of
  the observed items' list (a positive the model currently under-ranks,
  making ``f_uk - f_ui`` small) and ``j`` from the *top* of the
  unobserved items (a hard negative);
* Step 4' (CLAPF-MRR): both ``k`` and ``j`` come from the *top*.

The anchor ``i`` stays uniform over the user's observed items.  Ranked
lists are rebuilt every ``log(m)`` steps, as in AoBPR/DNS, so DSS runs
in a comparable time to uniform sampling.

Each refresh rebuilds two caches, each from its own copy of the item
factors at that step: the global per-factor item lists and the per-factor
rank table of every item.  Both read the one row-wise argsort of the
``(d, m)`` factor matrix that the first rebuild of the step makes
(:class:`~repro.sampling.geometric.FactorOrders`).  The ``k`` draw then
ranks only the drawn users' positives with one integer sort per step:
about ``B * E[L^2] / E[L]`` keys for ``B`` draws over users with ``L``
positives, against ``d * nnz`` for sorting every user's lists at each
refresh (about 3,000 against 442,000 keys on ML1M at scale 5; the
:mod:`~repro.sampling.geometric` docstring has the timings).  The
geometric draws reuse constants computed at bind time: one set for the
item list, one per user for the positive lists.  The snapshots and the
steps since the last refresh are part of
:meth:`~repro.sampling.base.Sampler.state_dict`, so a checkpointed run
resumes bitwise even between two refreshes.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import Sampler, TupleBatch
from repro.sampling.geometric import (
    FactorOrders,
    FactorRankingCache,
    TruncatedGeometric,
    UserPositiveRankingCache,
)
from repro.utils.exceptions import ConfigError
from repro.utils.validation import check_in_range

_MODES = ("map", "mrr")


class DoubleSampler(Sampler):
    """The paper's DSS sampler (CLAPF+ = CLAPF with this sampler).

    Parameters
    ----------
    mode:
        ``"map"`` (k from the bottom of the observed ranking) or
        ``"mrr"`` (k from the top), matching the CLAPF instantiation.
    tail:
        Geometric tail parameter for both ranked draws.
    refresh_interval:
        Steps between ranking-list rebuilds (default ``log(m)``).
    positive_ranked / negative_ranked:
        Disable one side to obtain the paper's "Positive Sampling" /
        "Negative Sampling" ablations (Fig. 4); disabling both recovers
        uniform sampling.
    """

    def __init__(
        self,
        mode: str = "map",
        *,
        tail: float = 0.2,
        refresh_interval: int | None = None,
        positive_ranked: bool = True,
        negative_ranked: bool = True,
    ):
        super().__init__()
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        check_in_range(tail, "tail", 0.0, 1.0, inclusive=False)
        self.mode = mode
        self.tail = tail
        self.refresh_interval = refresh_interval
        self.positive_ranked = positive_ranked
        self.negative_ranked = negative_ranked
        self._cache: FactorRankingCache | None = None
        self._positive_cache: UserPositiveRankingCache | None = None
        self._negative_ranks: TruncatedGeometric | None = None
        self._positive_ranks: TruncatedGeometric | None = None
        self._observed_rebuilds = 0

    def _on_bind(self) -> None:
        orders = FactorOrders()
        self._cache = FactorRankingCache(self.params, self.refresh_interval, orders)
        self._positive_cache = UserPositiveRankingCache(
            self.train, self.params, self.refresh_interval, orders
        )
        self._negative_ranks = TruncatedGeometric(self.train.n_items, self.tail)
        # Users without positives are never anchors; a placeholder length
        # of 1 gives them a valid (unused) entry.
        self._positive_ranks = TruncatedGeometric(np.maximum(self._user_counts, 1), self.tail)
        self._observed_rebuilds = 0

    def _ranking_caches(self) -> dict:
        return {"ranking": self._cache, "positive": self._positive_cache}

    # ------------------------------------------------------------------
    def _ranked_second_positive(
        self,
        users: np.ndarray,
        factors: np.ndarray,
        reverse: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Geometric draw of ``k`` over each user's factor-sorted positives.

        For CLAPF-MAP the draw starts from the bottom of the (possibly
        reversed) list; for CLAPF-MRR from the top.  The per-user
        rankings come from :class:`UserPositiveRankingCache`, whose flat
        arrays hold each user's positives in *ascending* factor order:
        for ``sgn(U_uq) >= 0`` the list top (largest ``V_q``) is the
        segment's last element, for negative sign the first.
        """
        self._positive_cache.maybe_refresh()
        lengths = self._user_counts[users]
        ranks = self._positive_ranks.draw(rng, len(users), users)
        # Position (in ascending order) of the item `ranks` places from
        # the top of the sign-directed list.
        top_position = np.where(reverse, ranks, lengths - 1 - ranks)
        if self.mode == "map":  # bottom of the list instead
            position = lengths - 1 - top_position
        else:
            position = top_position
        return self._positive_cache.positives_at(users, factors, position)

    def _ranked_negative(
        self,
        users: np.ndarray,
        factors: np.ndarray,
        reverse: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Geometric draw of ``j`` from the top of the global list."""
        neg_j = self._cache.items_at(factors, self._negative_ranks.draw(rng, len(users)), reverse)
        return self.redraw_observed(
            users,
            neg_j,
            lambda where: self._cache.items_at(
                factors[where], self._negative_ranks.draw(rng, len(where)), reverse[where]
            ),
            rng,
        )

    # ------------------------------------------------------------------
    def _sample(self, batch_size: int, rng: np.random.Generator) -> TupleBatch:
        self._cache.maybe_refresh()
        users, pos_i = self.sample_anchor_pairs(batch_size, rng)
        # Step 2-3: one uniform factor and its user-sign per tuple; the
        # same (factor, sign) drives both the k and the j draw.
        factors = rng.integers(0, self.params.n_factors, size=batch_size)
        user_values = self.params.user_factors[users, factors]
        reverse = user_values < 0

        if self.positive_ranked:
            pos_k = self._ranked_second_positive(users, factors, reverse, rng)
        else:
            pos_k = self.sample_second_positive_uniform(users, pos_i, rng)
        if self.negative_ranked:
            neg_j = self._ranked_negative(users, factors, reverse, rng)
        else:
            neg_j = self.sample_negative_uniform(users, rng)
        rebuilds = self._cache.rebuilds_ + self._positive_cache.rebuilds_
        if rebuilds > self._observed_rebuilds:
            self.obs.counter(
                "sampler_refreshes_total", sampler=type(self).__name__
            ).inc(rebuilds - self._observed_rebuilds)
            self.obs.event("dss_refresh", sampler=type(self).__name__, step=self.step)
            self._observed_rebuilds = rebuilds
        return TupleBatch(users=users, pos_i=pos_i, pos_k=pos_k, neg_j=neg_j)


class PositiveOnlySampler(DoubleSampler):
    """Fig. 4 ablation: only ``k`` is rank-sampled, ``j`` is uniform."""

    def __init__(self, mode: str = "map", *, tail: float = 0.2, refresh_interval: int | None = None):
        super().__init__(
            mode,
            tail=tail,
            refresh_interval=refresh_interval,
            positive_ranked=True,
            negative_ranked=False,
        )


class NegativeOnlySampler(DoubleSampler):
    """Fig. 4 ablation: only ``j`` is rank-sampled, ``k`` is uniform."""

    def __init__(self, mode: str = "map", *, tail: float = 0.2, refresh_interval: int | None = None):
        super().__init__(
            mode,
            tail=tail,
            refresh_interval=refresh_interval,
            positive_ranked=False,
            negative_ranked=True,
        )
