"""Tests of the tuple samplers: domains, adaptivity, and DSS semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.interactions import InteractionMatrix
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.mf.params import FactorParams
from repro.sampling.abs import AlphaBetaSampler
from repro.sampling.aobpr import AdaptiveOversampler
from repro.sampling.base import TupleBatch
from repro.sampling.dns import DynamicNegativeSampler
from repro.sampling.dss import DoubleSampler, NegativeOnlySampler, PositiveOnlySampler
from repro.sampling.geometric import (
    FactorRankingCache,
    UserPositiveRankingCache,
    truncated_geometric,
)
from repro.sampling.uniform import UniformSampler
from repro.utils.exceptions import CheckpointError, ConfigError, DataError, NotFittedError


@pytest.fixture
def train():
    config = SyntheticConfig(n_users=50, n_items=80, density=0.1, latent_dim=3)
    return generate_synthetic(config, seed=2).interactions


@pytest.fixture
def params(train):
    return FactorParams.init(train.n_users, train.n_items, 6, seed=0, scale=0.5)


def assert_batch_valid(batch: TupleBatch, train: InteractionMatrix):
    """Domain invariants every sampler must satisfy."""
    for user, i, k, j in zip(batch.users, batch.pos_i, batch.pos_k, batch.neg_j):
        assert train.contains(int(user), int(i)), "i must be observed"
        assert train.contains(int(user), int(k)), "k must be observed"
        assert not train.contains(int(user), int(j)), "j must be unobserved"


ALL_SAMPLERS = [
    UniformSampler,
    DynamicNegativeSampler,
    AdaptiveOversampler,
    lambda: DoubleSampler("map"),
    lambda: DoubleSampler("mrr"),
    PositiveOnlySampler,
    NegativeOnlySampler,
]


class TestDomains:
    @pytest.mark.parametrize("factory", ALL_SAMPLERS)
    def test_sampled_tuples_respect_domains(self, factory, train, params, rng):
        sampler = factory()
        sampler.bind(train, params)
        for _ in range(5):
            batch = sampler.sample(200, rng)
            assert len(batch) == 200
            assert_batch_valid(batch, train)

    def test_unbound_sampler_raises(self, rng):
        with pytest.raises(NotFittedError):
            UniformSampler().sample(10, rng)

    def test_bind_rejects_empty_matrix(self):
        with pytest.raises(DataError):
            UniformSampler().bind(InteractionMatrix.empty(3, 4))

    def test_bind_rejects_full_matrix(self):
        full = InteractionMatrix.from_dense(np.ones((2, 2)))
        with pytest.raises(DataError):
            UniformSampler().bind(full)

    def test_k_distinct_from_i_when_possible(self, train, params, rng):
        sampler = UniformSampler().bind(train, params)
        batch = sampler.sample(500, rng)
        counts = train.user_counts()[batch.users]
        multi = counts > 1
        assert np.all(batch.pos_k[multi] != batch.pos_i[multi])

    def test_step_counter(self, train, params, rng):
        sampler = UniformSampler().bind(train, params)
        sampler.sample(10, rng)
        sampler.sample(10, rng)
        assert sampler.step == 2


class TestContainsPairs:
    def test_matches_scalar_contains(self, train, rng):
        sampler = UniformSampler().bind(train)
        users = rng.integers(0, train.n_users, 300)
        items = rng.integers(0, train.n_items, 300)
        expected = np.array([train.contains(int(u), int(i)) for u, i in zip(users, items)])
        assert np.array_equal(sampler.contains_pairs(users, items), expected)

    def test_anchor_pairs_frequency_proportional_to_profile(self, train, rng):
        """Users are drawn proportionally to their positive count."""
        sampler = UniformSampler().bind(train)
        users, _ = sampler.sample_anchor_pairs(30_000, rng)
        frequencies = np.bincount(users, minlength=train.n_users) / 30_000
        expected = train.user_counts() / train.n_interactions
        assert np.abs(frequencies - expected).max() < 0.02


class TestTruncatedGeometric:
    def test_range(self, rng):
        ranks = truncated_geometric(rng, 1000, 10, tail=0.3)
        assert ranks.min() >= 0 and ranks.max() <= 9

    def test_single_item_list(self, rng):
        assert np.all(truncated_geometric(rng, 50, 1, tail=0.3) == 0)

    def test_head_heavier_than_tail(self, rng):
        ranks = truncated_geometric(rng, 20_000, 100, tail=0.1)
        head = np.mean(ranks < 10)
        tail_mass = np.mean(ranks >= 90)
        assert head > 0.5
        assert tail_mass < 0.02

    def test_smaller_tail_concentrates_more(self, rng):
        sharp = truncated_geometric(rng, 10_000, 100, tail=0.05).mean()
        flat = truncated_geometric(rng, 10_000, 100, tail=0.5).mean()
        assert sharp < flat

    def test_array_lengths(self, rng):
        lengths = np.array([1, 5, 50, 500])
        ranks = truncated_geometric(rng, 4, lengths, tail=0.2)
        assert np.all(ranks < lengths)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ConfigError):
            truncated_geometric(rng, 10, 0, tail=0.2)
        with pytest.raises(ConfigError):
            truncated_geometric(rng, 10, 5, tail=0.0)

    @given(tail=st.floats(min_value=0.01, max_value=0.99), n=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_always_in_range(self, tail, n):
        rng = np.random.default_rng(0)
        ranks = truncated_geometric(rng, 200, n, tail)
        assert ranks.min() >= 0 and ranks.max() < n


class TestFactorRankingCache:
    def test_order_sorted_by_factor(self, params):
        cache = FactorRankingCache(params, refresh_interval=3)
        order = cache.order(2)
        values = params.item_factors[order, 2]
        assert np.all(np.diff(values) <= 1e-12)

    def test_reverse_order(self, params):
        cache = FactorRankingCache(params, refresh_interval=3)
        assert cache.order(0, descending=False).tolist() == cache.order(0)[::-1].tolist()

    def test_items_at_matches_order(self, params):
        cache = FactorRankingCache(params, refresh_interval=3)
        factors = np.array([0, 1, 2])
        ranks = np.array([0, 1, 2])
        reverse = np.array([False, False, True])
        items = cache.items_at(factors, ranks, reverse)
        assert items[0] == cache.order(0)[0]
        assert items[1] == cache.order(1)[1]
        assert items[2] == cache.order(2, descending=False)[2]

    def test_refresh_tracks_parameter_updates(self, params):
        cache = FactorRankingCache(params, refresh_interval=1)
        cache.maybe_refresh()
        before = cache.order(0).copy()
        params.item_factors[:, 0] = -params.item_factors[:, 0]
        cache.maybe_refresh()
        cache.maybe_refresh()  # interval elapsed -> rebuild
        after = cache.order(0)
        assert after.tolist() == before[::-1].tolist()

    def test_invalid_interval(self, params):
        with pytest.raises(ConfigError):
            FactorRankingCache(params, refresh_interval=0)


class TestUserPositiveRankingCache:
    def test_positions_sorted_ascending_per_user(self, train, params):
        cache = UserPositiveRankingCache(train, params, refresh_interval=5)
        cache.maybe_refresh()
        for user in range(min(train.n_users, 10)):
            count = train.n_positives(user)
            if count < 2:
                continue
            positions = np.arange(count)
            users = np.full(count, user)
            factors = np.zeros(count, dtype=int)
            items = cache.positives_at(users, factors, positions)
            values = params.item_factors[items, 0]
            assert np.all(np.diff(values) >= -1e-12)
            assert sorted(items.tolist()) == train.positives(user).tolist()


    @staticmethod
    def _lexsort_reference(train, item_factors):
        """Per-factor ``np.lexsort`` over (user, factor value) — the old kernel."""
        users = np.repeat(np.arange(train.n_users), train.user_counts())
        rows = [
            train.indices[np.lexsort((item_factors[train.indices, q], users))]
            for q in range(item_factors.shape[1])
        ]
        return np.stack(rows)

    @staticmethod
    def _sweep(cache, train, n_factors):
        """``positives_at`` at every position of every user, for every factor."""
        users = np.repeat(np.arange(train.n_users), train.user_counts())
        positions = np.arange(train.n_interactions) - train.indptr[users]
        return np.stack([
            cache.positives_at(users, np.full(len(users), q), positions)
            for q in range(n_factors)
        ])

    @pytest.mark.parametrize("seed", range(5))
    def test_orders_match_per_user_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        n_users, n_items, d = 40, 60, 7
        # Users 0 and 1 own no positives; users 2 and 3 own exactly one.
        pairs = [(2, 5), (3, 59)] + [
            (int(u), int(i))
            for u, i in zip(rng.integers(4, n_users, 600), rng.integers(0, n_items, 600))
        ]
        train = InteractionMatrix.from_pairs(pairs, n_users=n_users, n_items=n_items)
        assert train.n_positives(0) == train.n_positives(1) == 0
        assert train.n_positives(2) == train.n_positives(3) == 1
        params = FactorParams.init(n_users, n_items, d, seed=seed)
        item_factors = params.item_factors
        item_factors[:, 0] = rng.integers(0, 3, n_items)  # heavy ties
        item_factors[:, 1] = rng.choice([-0.0, 0.0, 1.0], n_items)  # signed zeros tie
        item_factors[:, 2] = 0.5  # one constant column
        item_factors[::7, 3] = item_factors[1::7, 3][: len(item_factors[::7, 3])]
        item_factors[::5, 4] = np.nan  # NaN sorts last, ties by item id
        cache = UserPositiveRankingCache(train, params, refresh_interval=1)
        cache.maybe_refresh()
        assert np.array_equal(
            self._sweep(cache, train, d), self._lexsort_reference(train, item_factors)
        )

    def test_int64_keys_when_user_item_product_overflows_int32(self):
        n_users = n_items = 1 << 16  # n_users * n_items == 2**32
        rng = np.random.default_rng(0)
        pairs = np.column_stack([rng.integers(0, n_users, 300), rng.integers(0, n_items, 300)])
        pairs[:3] = [[n_users - 1, n_items - 1], [n_users - 1, 0], [n_users - 1, 7]]
        train = InteractionMatrix.from_pairs(pairs, n_users=n_users, n_items=n_items)
        params = FactorParams.init(n_users, n_items, 2, seed=1)
        params.item_factors[:, 1] = rng.integers(0, 4, n_items)
        cache = UserPositiveRankingCache(train, params, refresh_interval=1)
        cache.maybe_refresh()
        assert np.array_equal(
            self._sweep(cache, train, 2), self._lexsort_reference(train, params.item_factors)
        )


class TestRankingCacheState:
    """A restored cache ranks the snapshot it was saved with, on the same phase."""

    @pytest.mark.parametrize("factory", [
        lambda: DoubleSampler("map", refresh_interval=3),
        lambda: AdaptiveOversampler(refresh_interval=3),
        lambda: AlphaBetaSampler(refresh_interval=3),
    ], ids=["DSS", "AoBPR", "ABS"])
    def test_restored_sampler_draws_like_the_original(self, factory, train, params):
        original = factory().bind(train, params)
        rng = np.random.default_rng(7)
        for _ in range(4):  # one step past the refresh at step 4
            original.sample(32, rng)
        state = original.state_dict()
        assert state["ranking.calls_since_refresh"] == 1
        rng_state = rng.bit_generator.state
        # SGD moves the factors; the caches keep ranking the old snapshot.
        params.item_factors[:] = -params.item_factors
        expected = [original.sample(32, rng) for _ in range(4)]

        restored = factory().bind(train, params)
        restored.load_state_dict(state)
        assert restored.step == 4
        rng.bit_generator.state = rng_state
        for want in expected:
            got = restored.sample(32, rng)
            for field in ("users", "pos_i", "pos_k", "neg_j"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_missing_snapshot_leaves_cache_cold(self, params):
        cache = FactorRankingCache(params, refresh_interval=3)
        cache.load_state_dict({})
        assert cache.state_dict() == {}
        cache.maybe_refresh()
        assert cache.rebuilds_ == 1

    def test_snapshot_shape_mismatch_rejected(self, params):
        cache = FactorRankingCache(params, refresh_interval=3)
        with pytest.raises(CheckpointError, match="snapshot shape"):
            cache.load_state_dict({"snapshot": np.zeros((2, 2)), "calls_since_refresh": 1})


class TestAdaptiveSamplers:
    def test_dns_negatives_are_harder_than_uniform(self, train, params, rng):
        dns = DynamicNegativeSampler(n_candidates=8).bind(train, params)
        uniform = UniformSampler().bind(train, params)
        dns_batch = dns.sample(2000, rng)
        uni_batch = uniform.sample(2000, rng)
        dns_scores = params.predict_pairs(dns_batch.users, dns_batch.neg_j).mean()
        uni_scores = params.predict_pairs(uni_batch.users, uni_batch.neg_j).mean()
        assert dns_scores > uni_scores + 0.05

    def test_dns_invalid_candidates(self):
        with pytest.raises(ConfigError):
            DynamicNegativeSampler(n_candidates=0)

    def test_aobpr_negatives_are_harder_than_uniform(self, train, params, rng):
        aobpr = AdaptiveOversampler(tail=0.1).bind(train, params)
        uniform = UniformSampler().bind(train, params)
        ao_batch = aobpr.sample(2000, rng)
        uni_batch = uniform.sample(2000, rng)
        ao_scores = params.predict_pairs(ao_batch.users, ao_batch.neg_j).mean()
        uni_scores = params.predict_pairs(uni_batch.users, uni_batch.neg_j).mean()
        assert ao_scores > uni_scores

    def test_samplers_need_params(self, train, rng):
        """Adaptive samplers fail fast (at bind or first sample) without params."""
        for sampler in (DynamicNegativeSampler(), AdaptiveOversampler(), DoubleSampler("map")):
            with pytest.raises(NotFittedError):
                sampler.bind(train)  # params omitted
                sampler.sample(10, rng)


class TestDoubleSampler:
    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            DoubleSampler("ndcg")

    @staticmethod
    def _mean_factor_dot(params, batch, items):
        """Mean U_u . V_item — the part the factor-ranked draw controls.

        The item bias is *not* part of the factor ranking, so on small
        item sets its sampling noise can mask the effect; excluding it
        isolates what DSS actually biases.
        """
        dots = np.einsum(
            "td,td->t", params.user_factors[batch.users], params.item_factors[items]
        )
        return dots.mean()

    def test_map_mode_draws_low_scoring_positives(self, train, params, rng):
        """CLAPF-MAP's k should score *below* the user's average positive."""
        dss = DoubleSampler("map", tail=0.1).bind(train, params)
        uniform = UniformSampler().bind(train, params)
        dss_k = dss.sample(5000, rng)
        uni_k = uniform.sample(5000, rng)
        dss_score = self._mean_factor_dot(params, dss_k, dss_k.pos_k)
        uni_score = self._mean_factor_dot(params, uni_k, uni_k.pos_k)
        assert dss_score < uni_score

    def test_mrr_mode_draws_high_scoring_positives(self, train, params, rng):
        dss = DoubleSampler("mrr", tail=0.1).bind(train, params)
        uniform = UniformSampler().bind(train, params)
        dss_k = dss.sample(5000, rng)
        uni_k = uniform.sample(5000, rng)
        dss_score = self._mean_factor_dot(params, dss_k, dss_k.pos_k)
        uni_score = self._mean_factor_dot(params, uni_k, uni_k.pos_k)
        assert dss_score > uni_score

    def test_negative_draw_is_hard(self, train, params, rng):
        dss = DoubleSampler("map", tail=0.1).bind(train, params)
        uniform = UniformSampler().bind(train, params)
        dss_batch = dss.sample(3000, rng)
        uni_batch = uniform.sample(3000, rng)
        dss_j = params.predict_pairs(dss_batch.users, dss_batch.neg_j).mean()
        uni_j = params.predict_pairs(uni_batch.users, uni_batch.neg_j).mean()
        assert dss_j > uni_j

    def test_ablations_disable_one_side(self, train, params, rng):
        positive_only = PositiveOnlySampler("map").bind(train, params)
        negative_only = NegativeOnlySampler("map").bind(train, params)
        assert positive_only.positive_ranked and not positive_only.negative_ranked
        assert negative_only.negative_ranked and not negative_only.positive_ranked
        assert_batch_valid(positive_only.sample(300, rng), train)
        assert_batch_valid(negative_only.sample(300, rng), train)


class TestTupleBatch:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            TupleBatch(
                users=np.zeros(3, dtype=int),
                pos_i=np.zeros(3, dtype=int),
                pos_k=np.zeros(2, dtype=int),
                neg_j=np.zeros(3, dtype=int),
            )

    def test_len(self):
        batch = TupleBatch(*(np.zeros(4, dtype=int),) * 4)
        assert len(batch) == 4
