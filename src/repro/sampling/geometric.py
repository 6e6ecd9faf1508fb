"""Geometric rank sampling and factor-ranking caches.

Both AoBPR and the paper's DSS sample items by *rank* in a list sorted
by a single latent factor, with a geometric distribution concentrating
probability at the head of the list ("most of the real-world data
follow long-tail distributions, the geometric sampler is adopted",
Section 5.1).  Sorting every step would dominate the cost, so — per the
paper — the ranking lists are rebuilt only every ``log(m)``-ish steps.

A rebuild costs one row-wise sort of the ``(d, m)`` factor matrix
(:func:`~repro.metrics.scoring.ranking_orders_both_ways`, a SIMD argsort
whose descending lists are the ascending ones reversed, with a stable
re-sort of only the rows that hold ties or NaN), shared by DSS's two
caches through :class:`FactorOrders`, plus the ``(d, m)`` rank table
that inverts the ascending orders.  DSS's per-user positive lists are
not sorted at a rebuild: each draw ranks only its user's positives,
about ``B * E[L^2] / E[L]`` keys per step of ``B`` draws over users with
``L`` positives, where sorting every user's lists takes ``d * nnz`` keys
per refresh.  On the
ML1M profile at scale 5 (3,000 users, 3,500 items, 22,100 training
pairs, d=20, ``E[L^2] / E[L]`` about 11.7) that is about 3,000 keys and
75 us per step against 442,000 keys per refresh, and a refresh of both
caches takes 2.3-3.5 ms on a 2-vCPU host, against 6.7-9.2 ms with a
per-refresh key sort of every user's lists, measured alternately.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.scoring import ranking_orders_both_ways
from repro.mf.params import FactorParams
from repro.utils.exceptions import CheckpointError, ConfigError
from repro.utils.validation import check_in_range


class TruncatedGeometric:
    """Rank draws from truncated geometric laws over lists of fixed lengths.

    ``P(r) ∝ (1 - p)^r`` on ``[0, n)`` with success probability
    ``p = 1 / (tail * n)``, so ``tail`` is (approximately) the expected
    rank as a fraction of the list length.  ``lengths`` is one list
    length or an array of them; the per-length constants ``log(1 - p)``
    and the truncated mass ``1 - (1 - p)^n`` are computed once here, so
    a draw costs one uniform per sample and the exact inverse CDF — no
    rejection or wrap-around bias.
    """

    def __init__(self, lengths: int | np.ndarray, tail: float):
        check_in_range(tail, "tail", 0.0, 1.0, inclusive=False)
        n = np.asarray(lengths, dtype=np.int64)
        if np.any(n < 1):
            raise ConfigError("all list lengths must be >= 1")
        p = np.minimum(1.0 / (tail * np.maximum(n, 2)), 0.999999)
        q = 1.0 - p
        self._log_q = np.log(q)
        self._mass = 1.0 - q ** n.astype(np.float64)
        self._last = n - 1

    def draw(
        self, rng: np.random.Generator, size: int, lists: np.ndarray | None = None
    ) -> np.ndarray:
        """``size`` ranks; ``lists[t]`` picks sample ``t``'s length from an array of them."""
        u = rng.random(size)
        log_q, mass, last = self._log_q, self._mass, self._last
        if lists is not None:
            log_q, mass, last = log_q[lists], mass[lists], last[lists]
        # floor of a non-negative quotient: only the upper end needs a bound.
        ranks = np.floor(np.log1p(-u * mass) / log_q).astype(np.int64)
        return np.minimum(ranks, last)


def truncated_geometric(
    rng: np.random.Generator,
    size: int,
    n: int | np.ndarray,
    tail: float,
) -> np.ndarray:
    """Sample ranks in ``[0, n)`` from a truncated geometric distribution.

    ``n`` may be a scalar or a per-sample array of list lengths; see
    :class:`TruncatedGeometric`, which keeps the constants of repeated
    draws over the same lengths.
    """
    return TruncatedGeometric(n, tail).draw(rng, size)


class FactorOrders:
    """Per-factor item orders, both ways, of the last factor matrix ranked.

    :meth:`of` returns the ``(d, m)`` ``(ascending, descending)`` orders
    of an ``(m, d)`` item-factor matrix.  DSS's two caches rebuild on the
    same step from equal copies of the item factors, so when they share
    one instance the second rebuild reuses the first one's sort.  Equal
    factors have equal orders: the ranking reads the keys only through
    comparisons.
    """

    def __init__(self):
        self._ranked: np.ndarray | None = None
        self._orders: tuple[np.ndarray, np.ndarray] | None = None

    def of(self, item_factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._orders is None or not np.array_equal(self._ranked, item_factors):
            self._orders = ranking_orders_both_ways(item_factors.T)
            self._ranked = item_factors
        return self._orders


class _RankingCache:
    """Refresh schedule and checkpoint state shared by the ranking caches.

    A rebuild copies the live item factors into a snapshot and derives
    the orders from that copy alone.  :meth:`state_dict` carries the
    snapshot and the steps since the rebuild, so a resumed run rebuilds
    the very same orders and refreshes on the very same steps as the
    uninterrupted one.
    """

    def __init__(
        self,
        params: FactorParams,
        refresh_interval: int | None = None,
        orders: FactorOrders | None = None,
    ):
        if refresh_interval is not None and refresh_interval < 1:
            raise ConfigError(f"refresh_interval must be >= 1, got {refresh_interval}")
        self._params = params
        self._factor_orders = orders if orders is not None else FactorOrders()
        if refresh_interval is None:
            refresh_interval = max(int(np.ceil(np.log(max(params.n_items, 2)))), 1)
        self.refresh_interval = refresh_interval
        self.rebuilds_ = 0
        self._orders = None
        self._snapshot: np.ndarray | None = None
        self._calls_since_refresh = 0

    def _build(self, item_factors: np.ndarray):
        """The cached orders for the ``(m, d)`` factor matrix given."""
        raise NotImplementedError

    def _rebuild(self) -> None:
        self._snapshot = self._params.item_factors.copy()
        self._orders = self._build(self._snapshot)
        self.rebuilds_ += 1

    def _current_orders(self):
        if self._orders is None:
            self._rebuild()
        return self._orders

    def maybe_refresh(self) -> None:
        """Count one sampler step; rebuild if the interval elapsed."""
        if self._orders is None or self._calls_since_refresh >= self.refresh_interval:
            self._rebuild()
            self._calls_since_refresh = 0
        self._calls_since_refresh += 1

    def state_dict(self) -> dict:
        """Steps since the last rebuild and the factors it ranked (empty if none)."""
        if self._snapshot is None:
            return {}
        return {"calls_since_refresh": self._calls_since_refresh, "snapshot": self._snapshot}

    def load_state_dict(self, state: dict) -> None:
        """Rebuild from a :meth:`state_dict` snapshot; no snapshot leaves the cache cold."""
        snapshot = state.get("snapshot")
        if snapshot is None:
            return
        snapshot = np.array(snapshot)
        if snapshot.shape != self._params.item_factors.shape:
            raise CheckpointError(
                f"ranking-cache snapshot shape {snapshot.shape} does not match the "
                f"item factors {self._params.item_factors.shape}"
            )
        self._snapshot = snapshot
        self._orders = self._build(snapshot)
        self._calls_since_refresh = int(state["calls_since_refresh"])


class FactorRankingCache(_RankingCache):
    """Items sorted by each latent factor, refreshed periodically.

    ``order(q)`` returns item ids sorted by ``V[:, q]`` descending.  The
    cache is rebuilt lazily once :meth:`maybe_refresh` has been called
    ``refresh_interval`` times since the last rebuild — the paper resets
    the lists every ``log(m)`` iterations so the sampler stays within a
    constant factor of uniform sampling's cost.
    """

    @property
    def n_factors(self) -> int:
        return self._params.n_factors

    def _build(self, item_factors: np.ndarray) -> np.ndarray:
        # (d, m): row q holds item ids sorted by V[:, q] descending, ties
        # broken by item id (the same contract the evaluator uses).
        return self._factor_orders.of(item_factors)[1]

    def order(self, factor: int, *, descending: bool = True) -> np.ndarray:
        """Item ids ranked by the given factor (view; do not mutate)."""
        row = self._current_orders()[factor]
        return row if descending else row[::-1]

    def items_at(
        self,
        factors: np.ndarray,
        ranks: np.ndarray,
        reverse: np.ndarray,
    ) -> np.ndarray:
        """Vectorized lookup: item at ``ranks[t]`` in factor ``factors[t]``'s list.

        ``reverse[t]`` flips to the ascending list (the paper's
        ``sgn(U_uq) < 0`` rule: "reverse the ranking list and then do
        the same thing").
        """
        orders = self._current_orders()
        n_items = self._params.n_items
        idx = np.where(reverse, n_items - 1 - ranks, ranks)
        return orders[factors, idx]

    def item_values(self, factor: int) -> np.ndarray:
        """Current factor column ``V[:, factor]`` (live view)."""
        return self._params.item_factors[:, factor]


class UserPositiveRankingCache(_RankingCache):
    """Each user's observed items ranked by each latent factor.

    Backs DSS's *positive* draw: :meth:`positives_at` returns the item at
    position ``t`` of user ``u``'s positives in ascending ``V[:, q]`` order
    (ties by item id).  Rebuilt on the same ``log(m)`` schedule as
    :class:`FactorRankingCache`.

    A rebuild keeps only the ``(d, m)`` rank table of the snapshot, the
    inverse of the shared ascending orders: ``rank[q, i]`` is item ``i``'s
    place in factor ``q``'s ascending list.  It is a total order that
    already breaks ties, signed zeros and NaN the way the list does.  A
    draw then ranks only the drawn users' positives: every positive of
    draw ``t`` gets the key ``t * m + rank``, one ``np.sort`` of those keys
    groups them by draw and orders each group by rank, and the key at
    ``positions[t]`` within draw ``t``'s group names the item through the
    ascending orders.  The keys are distinct, so the unstable sort is
    exact, and int32 while ``draws * m < 2**31``.  A step sorts about ``B * E[L^2] / E[L]`` keys for ``B`` draws
    over users with ``L`` positives, instead of ``d * nnz`` per refresh.
    """

    def __init__(
        self,
        train,
        params: FactorParams,
        refresh_interval: int | None = None,
        orders: FactorOrders | None = None,
    ):
        super().__init__(params, refresh_interval, orders)
        self._train = train

    def _build(self, item_factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ascending = self._factor_orders.of(item_factors)[0]
        ranks = np.empty(ascending.shape, dtype=np.int32)
        places = np.arange(ascending.shape[1], dtype=np.int32)
        np.put_along_axis(ranks, ascending, places[None, :], axis=1)
        return ranks, ascending

    def positives_at(
        self,
        users: np.ndarray,
        factors: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Item at ``positions[t]`` (ascending factor order) of each user."""
        ranks, ascending = self._current_orders()
        train = self._train
        n_items = train.n_items
        starts = train.indptr[users]
        lengths = train.indptr[users + 1] - starts
        # The drawn users' CSR segments laid end to end: draw t owns
        # [offsets[t], offsets[t] + lengths[t]) of the flat arrays.
        offsets = np.cumsum(lengths) - lengths
        draw = np.repeat(np.arange(len(users)), lengths)
        slots = np.arange(len(draw)) + (starts - offsets)[draw]
        dtype = np.int32 if len(users) * n_items < 2**31 else np.int64
        base = np.arange(len(users), dtype=dtype) * n_items
        keys = ranks.ravel()[(factors * n_items)[draw] + train.indices[slots]] + base[draw]
        keys.sort()
        chosen = keys[offsets + positions] - base
        return ascending[factors, chosen]
