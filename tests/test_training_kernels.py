"""Bitwise equivalence of the training kernels with the formulations they replaced.

The SGD step takes its residual and loss from one ``exp`` and scatters
through :func:`~repro.mf.functional.scatter_add_rows`, the DSS caches share
one factor sort and rank only the drawn users' positives, and the geometric
draws reuse constants computed at bind time.  Each kernel is compared here
with the old formulation, kept as a reference in this file, and whole fits
are compared with fits made with every reference swapped in: parameters and
losses must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clapf import CLAPF, clapf_plus_map, clapf_plus_mrr
from repro.data.interactions import InteractionMatrix
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.metrics.scoring import ranking_orders, ranking_orders_both_ways
from repro.mf.functional import log_sigmoid, scatter_add_rows, sigmoid, sigmoid_and_log_sigmoid
from repro.mf.params import FactorParams
from repro.mf.sgd import SGDConfig
from repro.models.base import TupleSGDRecommender
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


def sigmoid_reference(x):
    """The sign-masked sigmoid: ``exp(-x)`` on ``x >= 0``, ``exp(x)`` elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def log_sigmoid_reference(x):
    """``min(x, 0) - log1p(exp(-|x|))`` with its own ``exp``."""
    x = np.asarray(x, dtype=np.float64)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def sigmoid_and_log_sigmoid_reference(x):
    return sigmoid_reference(x), log_sigmoid_reference(x)


def sgd_step_reference(self, batch):
    """The tuple-SGD step with two ``exp`` passes and fresh arrays for every term."""
    params = self.params_
    users = batch.users
    items, coefficients = self._tuple_terms(batch)
    if coefficients.ndim == 1:
        coefficients = np.broadcast_to(coefficients, items.shape)
    user_vecs = params.user_factors[users]
    item_vecs = params.item_factors[items]
    scores = np.einsum("bd,bsd->bs", user_vecs, item_vecs) + params.item_bias[items]
    margin = np.einsum("bs,bs->b", coefficients, scores)
    residual = 1.0 - sigmoid_reference(margin)
    lr = self.learning_rate_ if self.learning_rate_ is not None else self.sgd.learning_rate
    guard = self._active_guard
    user_grad = np.einsum("bs,bsd->bd", coefficients, item_vecs)
    user_update = lr * (residual[:, None] * user_grad - self.reg.alpha_u * user_vecs)
    weight = residual[:, None] * coefficients
    flat_items = items.ravel()
    item_grad = weight[:, :, None] * user_vecs[:, None, :]
    item_update = lr * (
        item_grad.reshape(-1, params.n_factors)
        - self.reg.alpha_v * item_vecs.reshape(-1, params.n_factors)
    )
    bias_update = lr * (weight.ravel() - self.reg.beta_v * params.item_bias[flat_items])
    if guard is not None:
        user_update = guard.clip_rows(user_update)
        item_update = guard.clip_rows(item_update)
        bias_update = guard.clip_rows(bias_update)
    np.add.at(params.user_factors, users, user_update)
    np.add.at(params.item_factors, flat_items, item_update)
    np.add.at(params.item_bias, flat_items, bias_update)
    return float(np.mean(-log_sigmoid_reference(margin)))


def factor_build_reference(self, item_factors):
    """Descending orders from their own ``ranking_orders`` call."""
    return ranking_orders(item_factors.T)


def positive_keys_reference(train, item_factors):
    """Its own ascending sort, then every ``(d, nnz)`` pair keyed ``user * m + rank``.

    A row-wise sort of the keys groups each row's pairs by user and orders
    each group by rank.  Keys are int32 while ``max(n_users, d) * m``
    fits.
    """
    n_items = train.n_items
    fits = max(train.n_users, item_factors.shape[1]) * n_items < 2**31
    dtype = np.int32 if fits else np.int64
    ascending = ranking_orders(item_factors.T, descending=False)
    ranks = np.empty(ascending.shape, dtype=dtype)
    np.put_along_axis(ranks, ascending, np.arange(n_items, dtype=dtype)[None, :], axis=1)
    keys = ranks[:, train.indices]
    keys += np.repeat(np.arange(train.n_users, dtype=dtype) * n_items, train.user_counts())
    keys.sort(axis=1)
    return keys, ascending


def positive_build_reference(self, item_factors):
    """The per-refresh ``(d, nnz)`` key sort of every user's positives."""
    return positive_keys_reference(self._train, item_factors)


def positives_at_reference(self, users, factors, positions):
    """Decode the drawn slots of the sorted keys: ``key - user * m`` is the rank."""
    keys, ascending = self._current_orders()
    slots = self._train.indptr[users] + positions
    ranks = keys[factors, slots] - users * self._train.n_items
    return ascending[factors, ranks]


def positives_lexsort_reference(train, item_factors, users, factors, positions):
    """Per draw, ``np.lexsort`` of the user's positives by value, then item id."""
    items = []
    for user, factor, position in zip(users, factors, positions):
        own = train.positives(user)
        items.append(own[np.lexsort((own, item_factors[own, factor]))][position])
    return np.array(items, dtype=np.int64)


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
        keys, ascending = positive_keys_reference(train, positive._snapshot)
        users = np.repeat(np.arange(train.n_users), train.user_counts())
        expected = np.take_along_axis(ascending, keys - users * train.n_items, axis=1)
        assert np.array_equal(positives_sweep(positive, train, 7), expected)
        descending = ranking_orders(sampler._cache._snapshot.T)
        assert all(np.array_equal(sampler._cache.order(q), descending[q]) for q in range(7))


class TestPositivesPerDraw:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_mixed_call_matches_per_user_lexsort(self, seed):
        train, params = tie_fixture(seed)
        cache = UserPositiveRankingCache(train, params, refresh_interval=1)
        cache.maybe_refresh()
        rng = np.random.default_rng(seed)
        counts = train.user_counts()
        owners = np.flatnonzero(counts)
        # Every position of every user, users 2 and 3 (one positive each)
        # many times over, and random repeats, in one shuffled call.
        users = np.concatenate([
            np.repeat(owners, counts[owners]),
            np.full(25, 2),
            np.full(25, 3),
            rng.choice(owners, 200),
        ])
        positions = np.concatenate([
            np.arange(train.n_interactions) - train.indptr[np.repeat(owners, counts[owners])],
            np.zeros(50, dtype=np.int64),
            rng.integers(0, counts[users[-200:]]),
        ])
        order = rng.permutation(len(users))
        users, positions = users[order], positions[order]
        factors = rng.integers(0, params.n_factors, len(users))
        got = cache.positives_at(users, factors, positions)
        want = positives_lexsort_reference(train, params.item_factors, users, factors, positions)
        assert np.array_equal(got, want)


    def test_int64_keys_when_draws_times_items_overflow_int32(self):
        n_users, n_items = 8, 1 << 16
        rng = np.random.default_rng(2)
        pairs = np.column_stack([rng.integers(0, n_users, 60), rng.integers(0, n_items, 60)])
        pairs[:2] = [[0, n_items - 1], [0, 0]]
        train = InteractionMatrix.from_pairs(pairs, n_users=n_users, n_items=n_items)
        params = FactorParams.init(n_users, n_items, 2, seed=2)
        params.item_factors[:, 1] = rng.integers(0, 4, n_items)  # heavy ties
        cache = UserPositiveRankingCache(train, params, refresh_interval=1)
        cache.maybe_refresh()
        counts = train.user_counts()
        draws = (1 << 15) + 5  # draws * n_items > 2**31
        users = rng.choice(np.flatnonzero(counts), draws)
        positions = rng.integers(0, counts[users])
        factors = rng.integers(0, 2, draws)
        got = cache.positives_at(users, factors, positions)
        keys, ascending = positive_keys_reference(train, params.item_factors)
        slots = train.indptr[users] + positions
        want = ascending[factors, keys[factors, slots] - users * n_items]
        assert np.array_equal(got, want)

class TestLogistic:
    EDGES = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 5e-324, -5e-324,
        1.0, -1.0, 36.7, -36.7, 700.5, -700.5, 709.9, -709.9, 745.2, -745.2, 1e308, -1e308,
    ]

    def _inputs(self):
        # Every length up to a few SIMD widths, so no vector tail is skipped.
        base = np.array(self.EDGES)
        rng = np.random.default_rng(0)
        return [base[:n] for n in range(1, len(base) + 1)] + [
            np.concatenate([base, rng.normal(scale=400.0, size=301)])
        ]

    @staticmethod
    def _bits(x):
        return np.asarray(x, dtype=np.float64).view(np.uint64)

    def test_bit_equal_to_the_masked_formulas(self):
        for x in self._inputs():
            sig, log_sig = sigmoid_and_log_sigmoid(x)
            assert np.array_equal(self._bits(sig), self._bits(sigmoid_reference(x)))
            assert np.array_equal(self._bits(log_sig), self._bits(log_sigmoid_reference(x)))
            assert np.array_equal(self._bits(sigmoid(x)), self._bits(sigmoid_reference(x)))
            assert np.array_equal(self._bits(log_sigmoid(x)), self._bits(log_sigmoid_reference(x)))

    def test_scalars_stay_floats(self):
        for value in self.EDGES:
            got = sigmoid(value), log_sigmoid(value)
            assert all(isinstance(out, float) for out in got)
            assert self._bits(got[0]) == self._bits(sigmoid_reference(value))
            assert self._bits(got[1]) == self._bits(log_sigmoid_reference(value))


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
        patch.setattr(TupleSGDRecommender, "_sgd_step", sgd_step_reference)
        patch.setattr("repro.models.gbpr.scatter_add_rows", np.add.at)
        patch.setattr(
            "repro.models.gbpr.sigmoid_and_log_sigmoid", sigmoid_and_log_sigmoid_reference
        )
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
