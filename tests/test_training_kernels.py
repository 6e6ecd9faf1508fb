"""Bitwise equivalence of the training kernels with the formulations they replaced.

The SGD step scatters through :func:`~repro.mf.functional.scatter_add_rows`,
the DSS caches share one factor sort and decode only the drawn positions,
and the geometric draws reuse constants computed at bind time.  Each kernel
is compared here with the old formulation, kept as a reference in this
file, and whole fits are compared with fits made with every reference
swapped in: parameters and losses must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clapf import CLAPF, clapf_plus_map, clapf_plus_mrr
from repro.data.interactions import InteractionMatrix
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.metrics.scoring import ranking_orders, ranking_orders_both_ways
from repro.mf.functional import scatter_add_rows
from repro.mf.params import FactorParams
from repro.mf.sgd import SGDConfig
from repro.models.gbpr import GBPR
from repro.resilience.guard import GuardConfig, TrainingGuard
from repro.sampling import dss
from repro.sampling.base import Sampler
from repro.sampling.dss import NegativeOnlySampler, PositiveOnlySampler
from repro.sampling.geometric import (
    FactorRankingCache,
    TruncatedGeometric,
    UserPositiveRankingCache,
)

# -- the replaced formulations -------------------------------------------


def truncated_geometric_reference(rng, size, n, tail):
    """The per-call inverse-CDF draw that computed its constants every time."""
    n = np.asarray(n, dtype=np.int64)
    p = np.minimum(1.0 / (tail * np.maximum(n, 2)), 0.999999)
    q = 1.0 - p
    log_q = np.log(q)
    u = rng.random(size)
    total_mass = 1.0 - q ** n.astype(np.float64)
    ranks = np.floor(np.log1p(-u * total_mass) / log_q).astype(np.int64)
    return np.clip(ranks, 0, n - 1)


class GeometricReference:
    """Stands in for :class:`TruncatedGeometric`, drawing through the reference."""

    def __init__(self, lengths, tail):
        self._lengths = np.asarray(lengths, dtype=np.int64)
        self._tail = tail

    def draw(self, rng, size, lists=None):
        n = self._lengths if lists is None else self._lengths[lists]
        return truncated_geometric_reference(rng, size, n, self._tail)


def factor_build_reference(self, item_factors):
    """Descending orders from their own ``ranking_orders`` call."""
    return ranking_orders(item_factors.T)


def positive_build_reference(self, item_factors):
    """Its own ascending sort, then every ``(d, nnz)`` key decoded to an item."""
    train = self._train
    n_items = train.n_items
    d = item_factors.shape[1]
    dtype = self._key_dtype
    ascending = ranking_orders(item_factors.T, descending=False)
    ranks = np.empty(ascending.shape, dtype=dtype)
    np.put_along_axis(ranks, ascending, np.arange(n_items, dtype=dtype)[None, :], axis=1)
    keys = ranks[:, train.indices]
    keys += self._user_keys
    keys.sort(axis=1)
    keys -= self._user_keys
    keys += (np.arange(d, dtype=dtype) * n_items)[:, None]
    return np.take(ascending.ravel(), keys)


def positives_at_reference(self, users, factors, positions):
    orders = self._current_orders()
    return orders[factors, self._train.indptr[users] + positions]


def anchor_pairs_reference(self, batch_size, rng):
    train = self.train
    idx = rng.integers(0, train.n_interactions, size=batch_size)
    users = np.searchsorted(train.indptr, idx, side="right") - 1
    return users.astype(np.int64), train.indices[idx]


def positives_sweep(cache, train, n_factors):
    """``positives_at`` at every position of every user, for every factor."""
    users = np.repeat(np.arange(train.n_users), train.user_counts())
    positions = np.arange(train.n_interactions) - train.indptr[users]
    return np.stack([
        cache.positives_at(users, np.full(len(users), q), positions) for q in range(n_factors)
    ])


def tie_fixture(seed):
    """Heavy ties, signed zeros, a constant column, repeated values and NaN."""
    rng = np.random.default_rng(seed)
    n_users, n_items, d = 40, 60, 7
    # Users 0 and 1 own no positives; users 2 and 3 own exactly one.
    pairs = [(2, 5), (3, 59)] + [
        (int(u), int(i))
        for u, i in zip(rng.integers(4, n_users, 600), rng.integers(0, n_items, 600))
    ]
    train = InteractionMatrix.from_pairs(pairs, n_users=n_users, n_items=n_items)
    params = FactorParams.init(n_users, n_items, d, seed=seed)
    item_factors = params.item_factors
    item_factors[:, 0] = rng.integers(0, 3, n_items)  # heavy ties
    item_factors[:, 1] = rng.choice([-0.0, 0.0, 1.0], n_items)  # signed zeros tie
    item_factors[:, 2] = 0.5  # one constant column
    item_factors[::7, 3] = item_factors[1::7, 3][: len(item_factors[::7, 3])]
    item_factors[::5, 4] = np.nan  # NaN sorts last, ties by item id
    return train, params


# -- kernels ----------------------------------------------------------------


class TestScatterAddRows:
    @pytest.mark.parametrize("clip_norm", [None, 0.05], ids=["unclipped", "clipped"])
    def test_matches_2d_add_at_under_heavy_duplication(self, clip_norm):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(30, 9))
        rows = rng.integers(0, 5, size=4000)  # every row hit ~800 times
        rows[::3] = 29
        updates = rng.normal(size=(len(rows), 9)) * 0.1
        if clip_norm is not None:
            guard = TrainingGuard(GuardConfig(clip_norm=clip_norm))
            updates = guard.clip_rows(updates)
            assert guard.clips_ > 0
        expected = base.copy()
        np.add.at(expected, rows, updates)
        got = base.copy()
        scatter_add_rows(got, rows, updates)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_bias_vector_and_non_contiguous_matrix(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 6, size=500)
        bias = rng.normal(size=6)
        bias_updates = rng.normal(size=500)
        expected = bias.copy()
        np.add.at(expected, rows, bias_updates)
        scatter_add_rows(bias, rows, bias_updates)
        assert np.array_equal(bias, expected)
        matrix = np.asfortranarray(rng.normal(size=(6, 4)))
        updates = rng.normal(size=(500, 4))
        expected = matrix.copy()
        np.add.at(expected, rows, updates)
        scatter_add_rows(matrix, rows, updates)
        assert np.array_equal(matrix, expected)


class TestFactorOrders:
    @pytest.mark.parametrize("seed", range(5))
    def test_both_ways_match_two_ranking_calls(self, seed):
        _, params = tie_fixture(seed)
        keys = params.item_factors.T
        ascending, descending = ranking_orders_both_ways(keys)
        assert np.array_equal(ascending, ranking_orders(keys, descending=False))
        assert np.array_equal(descending, ranking_orders(keys))

    @pytest.mark.parametrize("seed", range(5))
    def test_cache_orders_match_ranking_orders(self, seed):
        _, params = tie_fixture(seed)
        cache = FactorRankingCache(params, refresh_interval=1)
        cache.maybe_refresh()
        expected = ranking_orders(params.item_factors.T)
        for q in range(params.n_factors):
            assert np.array_equal(cache.order(q), expected[q])
            assert np.array_equal(cache.order(q, descending=False), expected[q][::-1])

    def test_shared_sort_serves_both_caches(self):
        train, params = tie_fixture(0)
        sampler = dss.DoubleSampler("map", refresh_interval=1).bind(train, params)
        rng = np.random.default_rng(3)
        for _ in range(3):
            sampler.sample(16, rng)
            params.item_factors[:, 5] += 0.25  # the factors move between refreshes
        assert sampler._cache._factor_orders is sampler._positive_cache._factor_orders
        positive = sampler._positive_cache
        expected = positive_build_reference(positive, positive._snapshot)
        assert np.array_equal(positives_sweep(positive, train, 7), expected)
        descending = ranking_orders(sampler._cache._snapshot.T)
        assert all(np.array_equal(sampler._cache.order(q), descending[q]) for q in range(7))


class TestGeometricConstants:
    def test_scalar_draws_match_the_reference_stream(self):
        ranks = TruncatedGeometric(3500, 0.2)
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        for size in (512, 17, 1, 512):
            got = ranks.draw(rng, size)
            want = truncated_geometric_reference(reference_rng, size, 3500, 0.2)
            assert np.array_equal(got, want)

    def test_per_user_draws_match_the_reference_stream(self):
        data_rng = np.random.default_rng(6)
        counts = data_rng.integers(1, 400, size=3000)
        counts[:4] = [1, 2, 3, 2**20]
        ranks = TruncatedGeometric(counts, 0.2)
        rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
        for size in (512, 33, 512):
            users = data_rng.integers(0, len(counts), size=size)
            got = ranks.draw(rng, size, users)
            want = truncated_geometric_reference(reference_rng, size, counts[users], 0.2)
            assert np.array_equal(got, want)


# -- whole fits ---------------------------------------------------------------


@pytest.fixture(scope="module")
def train():
    config = SyntheticConfig(n_users=150, n_items=220, density=0.05, latent_dim=4)
    return generate_synthetic(config, seed=4).interactions


def _sgd():
    return SGDConfig(n_epochs=3, batch_size=64)


FITS = {
    "CLAPF+-MAP": lambda: clapf_plus_map(seed=3, sgd=_sgd(), refresh_interval=2),
    "CLAPF+-MRR": lambda: clapf_plus_mrr(seed=3, sgd=_sgd(), refresh_interval=2),
    "PositiveOnly": lambda: CLAPF(
        "map", sampler=PositiveOnlySampler("map", refresh_interval=2), seed=3, sgd=_sgd()
    ),
    "NegativeOnly": lambda: CLAPF(
        "map", sampler=NegativeOnlySampler("map", refresh_interval=2), seed=3, sgd=_sgd()
    ),
    "CLAPF+-MAP-clipped": lambda: clapf_plus_map(
        seed=3, sgd=_sgd(), refresh_interval=2, guard=TrainingGuard(GuardConfig(clip_norm=0.002))
    ),
    "GBPR": lambda: GBPR(seed=3, sgd=_sgd()),
    "GBPR-clipped": lambda: GBPR(
        seed=3, sgd=_sgd(), guard=TrainingGuard(GuardConfig(clip_norm=0.002))
    ),
}


@pytest.mark.parametrize("name", list(FITS))
def test_fit_is_bitwise_the_reference_fit(name, train, monkeypatch):
    with monkeypatch.context() as patch:
        for module in ("repro.models.base", "repro.models.gbpr"):
            patch.setattr(f"{module}.scatter_add_rows", np.add.at)
        patch.setattr(dss, "TruncatedGeometric", GeometricReference)
        patch.setattr(FactorRankingCache, "_build", factor_build_reference)
        patch.setattr(UserPositiveRankingCache, "_build", positive_build_reference)
        patch.setattr(UserPositiveRankingCache, "positives_at", positives_at_reference)
        patch.setattr(Sampler, "sample_anchor_pairs", anchor_pairs_reference)
        reference = FITS[name]().fit(train)
    model = FITS[name]().fit(train)
    for field in ("user_factors", "item_factors", "item_bias"):
        got = getattr(model.params_, field)
        want = getattr(reference.params_, field)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), field
    assert model.loss_history_ == reference.loss_history_
    if model.guard is not None:
        assert model.guard.clips_ > 0
