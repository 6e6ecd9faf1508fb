"""Tests of the serving layer: deadlines, tiers, and the cascade.

Deterministic paths (deadline arithmetic, cascade ordering, provenance)
run on :class:`FakeClock` + :class:`InlineExecutor`; one test cuts a
synchronous ``recommend`` off at its deadline on the real
:class:`ThreadedExecutor`, against a tier wedged far past it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_profile_dataset, train_test_split
from repro.data.interactions import InteractionMatrix
from repro.mf.params import FactorParams
from repro.mf.sgd import SGDConfig
from repro.models import BPR, ItemKNN, PopRank
from repro.serving import (
    STATIC_POPULARITY,
    BreakerConfig,
    Deadline,
    FakeClock,
    FoldInTier,
    InlineExecutor,
    ItemKNNTier,
    PersonalizedTier,
    PopularityTier,
    RecommendationRequest,
    RecommendationService,
    ServedResponse,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.store import ShardedFactorStore, StoreBackedModel, write_factor_store
from repro.utils.clock import Timer
from repro.utils.exceptions import ConfigError, DeadlineExceeded, TierError


def warm_users(train):
    return np.flatnonzero(train.user_counts() > 0)


@pytest.fixture(scope="module")
def split():
    dataset = make_profile_dataset("ML100K", scale=0.25, seed=5)
    return train_test_split(dataset, seed=5)


@pytest.fixture(scope="module")
def bpr(split):
    return BPR(n_factors=8, sgd=SGDConfig(n_epochs=2), seed=0).fit(
        split.train, split.validation
    )


def sharded_world(seed=0, n_users=32, n_items=24, n_cold=6):
    """A factor world whose last ``n_cold`` users have no training history."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_items, size=(n_users - n_cold, 4))
    pairs = sorted({(u, int(i)) for u in range(n_users - n_cold) for i in rows[u]})
    train = InteractionMatrix.from_pairs(pairs, n_users=n_users, n_items=n_items)
    params = FactorParams(
        user_factors=rng.normal(size=(n_users, 4)),
        item_factors=rng.normal(size=(n_items, 4)),
        item_bias=rng.normal(size=n_items),
    )
    return train, params


def mixed_requests(train, seed, n=40):
    """Warm, cold in-range and out-of-range users, with and without
    history, under mixed ``k`` and ``exclude_observed``."""
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(n):
        history = None
        if rng.random() < 0.5:
            history = tuple(int(i) for i in rng.choice(train.n_items, size=3, replace=False))
        requests.append(RecommendationRequest(
            user=int(rng.integers(0, train.n_users + 8)),
            k=int(rng.integers(1, 8)),
            history=history,
            exclude_observed=bool(rng.random() < 0.7),
        ))
    return requests


def make_service(model, train, *, deadline_ms=50.0, breaker=None, chaos=None, **kwargs):
    clock = FakeClock()
    service = RecommendationService.build(
        model,
        train,
        config=ServiceConfig(
            default_deadline_ms=deadline_ms,
            breaker=breaker or BreakerConfig(min_calls=3, cooldown_seconds=5.0),
        ),
        executor=InlineExecutor(clock=clock),
        clock=clock,
        chaos=chaos,
        **kwargs,
    )
    return service, clock


class TestDeadline:
    def test_countdown(self):
        clock = FakeClock()
        deadline = Deadline(50.0, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(50.0)
        clock.advance(0.030)
        assert deadline.remaining_ms() == pytest.approx(20.0)
        assert not deadline.expired()
        clock.advance(0.025)
        assert deadline.expired()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            Deadline(0.0, clock=FakeClock())


class TestInlineExecutor:
    def test_within_budget_returns_result_and_latency(self):
        clock = FakeClock()
        executor = InlineExecutor(clock=clock)

        def fn():
            clock.advance(0.010)
            return "ok"

        result, latency_ms = executor.call(fn, 50.0)
        assert result == "ok"
        assert latency_ms == pytest.approx(10.0)
        assert executor.overruns_ == 0

    def test_overrun_raises_and_counts(self):
        clock = FakeClock()
        executor = InlineExecutor(clock=clock)

        def slow():
            clock.advance(0.120)
            return "late"

        with pytest.raises(DeadlineExceeded) as excinfo:
            executor.call(slow, 50.0)
        assert excinfo.value.budget_ms == pytest.approx(50.0)
        assert executor.overruns_ == 1
        assert executor.overrun_ms_ == pytest.approx(70.0)

    def test_fn_exceptions_propagate(self):
        executor = InlineExecutor(clock=FakeClock())
        with pytest.raises(ValueError):
            executor.call(lambda: (_ for _ in ()).throw(ValueError("boom")), 50.0)


class TestThreadedExecutor:
    def test_fast_call_passes_through(self):
        executor = ThreadedExecutor(max_workers=2)
        try:
            result, latency_ms = executor.call(lambda: 42, 1000.0)
            assert result == 42
            assert latency_ms < 1000.0
        finally:
            executor.shutdown()

    def test_slow_call_cut_off_at_budget(self, split, bpr):
        """A synchronous ``recommend`` returns at its deadline, not when the tier does."""
        import threading

        from tests.test_serving_handoff import Wedge

        deadline_ms = 30.0
        wedge = Wedge("personalized")
        service = RecommendationService.build(
            bpr,
            split.train,
            config=ServiceConfig(
                default_deadline_ms=deadline_ms, breaker=BreakerConfig(min_calls=10_000)
            ),
            executor=ThreadedExecutor(max_workers=2),
            chaos=wedge,
        )
        user = int(warm_users(split.train)[0])
        before = set(threading.enumerate())
        try:
            with Timer() as timer:
                response = service.recommend(RecommendationRequest(user=user, k=5))
            wedged = set(threading.enumerate()) - before
        finally:
            wedge.released.set()
        service.close()
        for thread in wedged:
            thread.join(10.0)
            assert not thread.is_alive()
        assert timer.elapsed * 1000.0 < deadline_ms + 500.0  # the wedge holds the tier 10 s
        assert response.served_by == STATIC_POPULARITY
        assert response.tier_errors["personalized"].startswith(
            "deadline exceeded (tier call cut off after"
        )
        assert service.stats["personalized"].timeouts == 1
        assert service.executor.overruns_ == 1


class TestRequestValidation:
    def test_history_coerced_to_int_tuple(self):
        request = RecommendationRequest(user=0, history=[np.int64(3), 1.0])
        assert request.history == (3, 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            RecommendationRequest(user=0, k=0)


class TestTiers:
    def test_personalized_matches_model_recommend(self, split, bpr):
        tier = PersonalizedTier(bpr, split.train)
        user = int(warm_users(split.train)[0])
        served = tier.serve(RecommendationRequest(user=user, k=5))
        expected = bpr.recommend(user, k=5)
        np.testing.assert_array_equal(served, expected)

    def test_personalized_rejects_cold_user(self, split, bpr):
        tier = PersonalizedTier(bpr, split.train)
        with pytest.raises(TierError, match="outside the trained range"):
            tier.serve(RecommendationRequest(user=split.train.n_users + 7))

    def test_fold_in_serves_unseen_user_from_history(self, split, bpr):
        tier = FoldInTier(bpr, split.train)
        request = RecommendationRequest(
            user=split.train.n_users + 1, k=5, history=(0, 1, 2)
        )
        items = tier.serve(request)
        assert len(items) == 5
        assert not set(items.tolist()) & {0, 1, 2}  # history excluded

    def test_fold_in_needs_history(self, split, bpr):
        tier = FoldInTier(bpr, split.train)
        with pytest.raises(TierError, match="no history"):
            tier.serve(RecommendationRequest(user=split.train.n_users + 1))

    def test_itemknn_requires_fitted_model(self, split):
        with pytest.raises(ConfigError):
            ItemKNNTier(ItemKNN(), split.train)

    def test_itemknn_serves_from_history(self, split):
        knn = ItemKNN().fit(split.train)
        tier = ItemKNNTier(knn, split.train)
        user = int(warm_users(split.train)[0])
        items = tier.serve(RecommendationRequest(user=user, k=5))
        assert len(items) == 5

    def test_popularity_serves_anyone(self, split):
        tier = PopularityTier(split.train)
        items = tier.serve(RecommendationRequest(user=10**9, k=5))
        expected = PopRank().fit(split.train).recommend(10**9, k=5)
        np.testing.assert_array_equal(items, expected)


class TestCascade:
    def test_healthy_service_serves_personalized(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        user = int(warm_users(split.train)[0])
        response = service.recommend(RecommendationRequest(user=user, k=5))
        assert response.served_by == "personalized"
        assert not response.degraded
        assert response.model_version == "initial"
        assert len(response.items) == 5
        assert response.deadline_ms_left <= 50.0

    def test_int_request_shorthand(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        user = int(warm_users(split.train)[0])
        response = service.recommend(user, k=3)
        assert len(response.items) == 3

    def test_unseen_user_with_history_degrades_to_fold_in(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        response = service.recommend(
            RecommendationRequest(user=split.train.n_users + 1, k=5, history=(0, 1))
        )
        assert response.served_by == "fold-in"
        assert response.degraded
        assert "personalized" in response.tier_errors

    def test_unseen_user_without_history_gets_popularity(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        response = service.recommend(
            RecommendationRequest(user=split.train.n_users + 1, k=5)
        )
        assert response.served_by == "popularity"
        assert response.degraded

    def test_deadline_exhaustion_falls_to_static_popularity(self, split, bpr):
        service, clock = make_service(bpr, split.train, deadline_ms=10.0)
        clock.advance(1.0)  # the request arrives, then time passes...
        deadline_probe = RecommendationRequest(user=0, k=5, deadline_ms=10.0)
        # Exhaust the budget before any tier can be attempted by making
        # the first tier's call itself advance past the deadline.
        original = service.tiers[0].serve_batch

        def slow_serve_batch(requests):
            clock.advance(1.0)  # 1000 ms >> 10 ms budget
            return original(requests)

        service.tiers[0].serve_batch = slow_serve_batch
        response = service.recommend(deadline_probe)
        assert response.served_by == STATIC_POPULARITY
        assert response.degraded
        assert len(response.items) == 5
        # The budget overran, but the reported remainder is clamped:
        # deadline_ms_left == 0.0 marks exhaustion, never a negative.
        assert response.deadline_ms_left == 0.0

    def test_deadline_ms_left_never_negative(self, split, bpr):
        # Invariant: every response reports deadline_ms_left >= 0, even
        # when construction is handed a negative remainder directly.
        clamped = ServedResponse(
            user=0, items=np.array([1]), served_by=STATIC_POPULARITY,
            degraded=True, deadline_ms_left=-123.4, latency_ms=173.4,
        )
        assert clamped.deadline_ms_left == 0.0
        service, clock = make_service(bpr, split.train, deadline_ms=10.0)
        original = service.tiers[0].serve_batch

        def slow_serve_batch(requests):
            clock.advance(5.0)
            return original(requests)

        service.tiers[0].serve_batch = slow_serve_batch
        for user in range(4):
            response = service.recommend(RecommendationRequest(user=user, k=3))
            assert response.deadline_ms_left >= 0.0

    def test_emergency_response_matches_popularity_order(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        expected = PopRank().fit(split.train).recommend(10**9, k=5)
        request = RecommendationRequest(user=0, k=5, deadline_ms=5.0)
        deadline_burner = service.clock
        deadline_burner.advance(0.0)
        # Force every tier to fail so only the emergency path remains.
        for tier in service.tiers:
            tier.serve_batch = lambda requests: (_ for _ in ()).throw(TierError("down"))
        response = service.recommend(request)
        assert response.served_by == STATIC_POPULARITY
        np.testing.assert_array_equal(response.items, expected)

    def test_breaker_opens_after_repeated_failures(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        service.tiers[0].serve_batch = lambda requests: (_ for _ in ()).throw(
            TierError("personalized scorer down")
        )
        user = int(warm_users(split.train)[0])
        for _ in range(3):
            response = service.recommend(RecommendationRequest(user=user))
            assert response.served_by != "personalized"
        assert service.breakers["personalized"].state == "open"
        response = service.recommend(RecommendationRequest(user=user))
        assert response.tier_errors["personalized"] == "breaker open"
        assert service.stats["personalized"].skipped_open >= 1

    def test_stats_and_snapshot(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        user = int(warm_users(split.train)[0])
        for _ in range(4):
            service.recommend(RecommendationRequest(user=user))
        snap = service.snapshot()
        assert snap["requests_served"] == 4
        assert snap["tiers"]["personalized"]["served"] == 4
        assert snap["breakers"]["personalized"]["state"] == "closed"
        assert service.fallback_rate() == 0.0

    def test_context_manager_closes_executor(self, split, bpr):
        with make_service(bpr, split.train)[0] as service:
            user = int(warm_users(split.train)[0])
            service.recommend(RecommendationRequest(user=user))

    def test_empty_cascade_rejected(self, split):
        with pytest.raises(ConfigError):
            RecommendationService([], split.train)

    def test_invalid_tier_output_is_a_failure_not_a_crash(self, split, bpr):
        service, _ = make_service(bpr, split.train)
        service.tiers[0].serve_batch = lambda requests: [
            np.zeros(0, dtype=np.int64) for _ in requests
        ]
        user = int(warm_users(split.train)[0])
        response = service.recommend(RecommendationRequest(user=user))
        assert response.served_by != "personalized"
        assert "invalid ranking" in response.tier_errors["personalized"]


class TestColdUsersInModels:
    """Satellite: zero-interaction users get the popularity ordering."""

    def test_recommend_cold_user_matches_poprank(self, tiny_matrix):
        pop = PopRank().fit(tiny_matrix)
        bpr = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(tiny_matrix)
        np.testing.assert_array_equal(
            bpr.recommend(3, k=4), pop._popularity_topk(tiny_matrix, 4)
        )

    def test_recommend_batch_cold_rows_match_recommend(self, tiny_matrix):
        bpr = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(tiny_matrix)
        batch = bpr.recommend_batch(np.arange(4), k=4)
        for user in range(4):
            np.testing.assert_array_equal(batch[user], bpr.recommend(user, k=4))

    def test_cold_user_ordering_is_popularity(self, tiny_matrix):
        # item 2 appears twice in tiny_matrix; every other item once or
        # zero times, so it must lead any cold-user ranking.
        bpr = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(tiny_matrix)
        assert bpr.recommend(3, k=6)[0] == 2
        assert bpr.recommend_batch(np.asarray([3]), k=6)[0, 0] == 2

    def test_service_serves_cold_user_degraded_not_error(self, tiny_matrix):
        # Regression for the HTTP edge contract: a valid-but-cold user
        # is an expected case the cascade absorbs — the popularity tier
        # answers with degraded provenance, never an error/404.
        bpr = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(tiny_matrix)
        service, _ = make_service(bpr, tiny_matrix)
        response = service.recommend(RecommendationRequest(user=3, k=4))
        assert response.served_by == "popularity"
        assert response.degraded is True
        assert response.items[0] == 2
        assert "no training history" in response.tier_errors["personalized"]

    def test_service_batch_cold_rows_match_singles(self, tiny_matrix, tmp_path):
        # recommend_batch must inherit the cold-user behavior bitwise:
        # cold rows skip the personalized tier and fall through.
        bpr = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(tiny_matrix)
        service, _ = make_service(bpr, tiny_matrix)
        requests = [RecommendationRequest(user=user, k=4) for user in range(4)]
        batched = service.recommend_batch(requests)
        for request, response in zip(requests, batched):
            single = service.recommend(request)
            np.testing.assert_array_equal(response.items, single.items)
            assert response.served_by == single.served_by
        assert batched[3].served_by == "popularity"
        assert batched[3].degraded is True

        # recommend_batch(rs) == [recommend(r) for r in rs], response by
        # response and in every tier's final stats, on a sharded store
        # with one shard breaker held open.
        train, params = sharded_world()
        write_factor_store(tmp_path, params, dtype="float64", shard_size=8)
        model = StoreBackedModel(ShardedFactorStore.open(tmp_path), train, version="v1")
        seen_tiers, seen_errors = set(), set()
        for seed in range(4):
            sides = [make_service(model, train)[0] for _ in range(2)]
            for side in sides:
                for _ in range(3):
                    side.shard_breakers[1].record_failure()
                assert side.shard_breakers[1].state == "open"
            requests = mixed_requests(train, seed)
            batched = sides[0].recommend_batch(requests)
            singles = [sides[1].recommend(request) for request in requests]
            for response, single in zip(batched, singles):
                np.testing.assert_array_equal(response.items, single.items)
                assert response.items.dtype == single.items.dtype
                assert response.served_by == single.served_by
                assert response.degraded == single.degraded
                assert response.tier_errors == single.tier_errors
                seen_tiers.add(response.served_by)
                seen_errors.update(response.tier_errors.values())
            for name, stats in sides[0].stats.items():
                assert stats.to_dict() == sides[1].stats[name].to_dict()
        assert {"personalized", "fold-in", "popularity"} <= seen_tiers
        assert "personalized-shard-1 open" in seen_errors
        assert any("outside the trained range" in e for e in seen_errors)
        assert any("no training history" in e for e in seen_errors)

    def test_cold_heavy_stream_leaves_the_personalized_breaker_closed(self, tiny_matrix):
        # Cold users skip the personalized tier; they are not its
        # failures, so a 90 % cold stream cannot trip its breaker.
        bpr = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(tiny_matrix)
        service, clock = make_service(
            bpr, tiny_matrix, breaker=BreakerConfig(min_calls=4)
        )
        warm = []
        for t in range(100):
            if t % 10 == 9:
                request = RecommendationRequest(user=t % 3, k=3)
            elif t % 2:  # in range, no training history
                request = RecommendationRequest(user=3, k=3)
            else:  # outside the trained range, with session history
                request = RecommendationRequest(user=4 + t, k=3, history=(1, 2, 3))
            response = service.recommend(request)
            if t % 10 == 9:
                warm.append(response)
            else:
                assert response.degraded
                assert (
                    "has no training history" if t % 2 else "outside the trained range"
                ) in response.tier_errors["personalized"]
            clock.advance(0.01)
        assert service.breakers["personalized"].state == "closed"
        assert service.stats["personalized"].failures == 0
        assert len(warm) == 10
        assert all(response.served_by == "personalized" for response in warm)
