"""Per-shard circuit breakers and retrieval provenance in the cascade.

The scale-ladder serving story: a million-user store is split into
shards, and one rotted/slow shard must degrade *only the users that
shard owns* — the personalized tier keeps serving everyone else, the
tier-level breaker stays closed, and only the sick shard's breaker
opens.  Every tier ranks the full catalog, so the ``/v1`` wire field
``retrieval`` is always ``"exact"``, and payloads without it still
parse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.metrics import scoring
from repro.mf.params import FactorParams
from repro.serving.breaker import BreakerConfig
from repro.serving.schema import ServedResponse
from repro.serving.service import RecommendationService, ServiceConfig
from repro.serving.tiers import RecommendationRequest
from repro.store import ShardedFactorStore, StoreBackedModel, write_factor_store
from repro.store.shards import shard_file_name
from repro.utils.clock import FakeClock

N_USERS, N_ITEMS, D = 64, 40, 8
SHARD_SIZE = 16  # -> 4 shards: users [0,16), [16,32), [32,48), [48,64)


def make_world(seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, N_ITEMS, size=(N_USERS, 6))
    pairs = sorted({(u, int(i)) for u in range(N_USERS) for i in rows[u]})
    train = InteractionMatrix.from_pairs(pairs, n_users=N_USERS, n_items=N_ITEMS)
    params = FactorParams(
        user_factors=rng.normal(size=(N_USERS, D)),
        item_factors=rng.normal(size=(N_ITEMS, D)),
        item_bias=rng.normal(size=N_ITEMS),
    )
    return train, params


def corrupt(path):
    data = bytearray(path.read_bytes())
    data[-5] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture
def world(tmp_path):
    train, params = make_world()
    write_factor_store(tmp_path, params, dtype="float64", shard_size=SHARD_SIZE)
    store = ShardedFactorStore.open(tmp_path)
    model = StoreBackedModel(store, train, version="v1")
    service = RecommendationService.build(
        model,
        train,
        fit_knn=False,
        version="v1",
        config=ServiceConfig(
            default_deadline_ms=5000.0,
            breaker=BreakerConfig(min_calls=2, failure_rate_threshold=0.5),
        ),
    )
    yield service, store, train, params, tmp_path
    service.close()


class TestShardBreakers:
    def test_one_breaker_per_shard_created_eagerly(self, world):
        service, *_ = world
        assert sorted(service.shard_breakers) == [0, 1, 2, 3]
        assert service.shard_breakers[2].name == "personalized-shard-2"

    def test_store_served_requests_match_dense(self, world):
        service, _, train, params, _ = world
        response = service.recommend(RecommendationRequest(user=3, k=5))
        assert response.served_by == "personalized"
        assert response.to_json_dict()["retrieval"] == "exact"
        scores = scoring.linear_scores(
            params.user_factors[[3]], params.item_factors, params.item_bias
        )[0].copy()
        scores[train.positives(3)] = -np.inf
        expected = scoring.topk_from_matrix(scores[None, :], 5)[0]
        assert np.array_equal(response.items, expected)

    def test_corrupt_shard_degrades_only_its_users(self, world):
        service, store, _, _, tmp_path = world
        corrupt(tmp_path / shard_file_name(2))
        store.verify_shards()
        bad = service.recommend(RecommendationRequest(user=35, k=5))  # shard 2
        good = service.recommend(RecommendationRequest(user=3, k=5))  # shard 0
        assert bad.degraded and bad.served_by != "personalized"
        assert "quarantined" in bad.tier_errors["personalized"]
        assert not good.degraded and good.served_by == "personalized"

    def test_only_the_sick_shards_breaker_opens(self, world):
        service, store, _, _, tmp_path = world
        corrupt(tmp_path / shard_file_name(2))
        store.verify_shards()
        for user in (33, 34, 35, 36):
            service.recommend(RecommendationRequest(user=user, k=5))
        snapshot = service.snapshot()
        assert snapshot["shard_breakers"]["2"]["state"] == "open"
        assert snapshot["breakers"]["personalized"]["state"] == "closed"
        for healthy in ("0", "1", "3"):
            assert snapshot["shard_breakers"][healthy]["state"] == "closed"
        # Once open, the sick shard's users skip the tier outright.
        skipped = service.recommend(RecommendationRequest(user=40, k=5))
        assert "personalized-shard-2 open" in skipped.tier_errors["personalized"]
        # ...while a healthy shard's user still gets the primary tier.
        assert service.recommend(
            RecommendationRequest(user=5, k=5)
        ).served_by == "personalized"

    def test_batch_isolates_the_bad_shard(self, world):
        service, store, _, _, tmp_path = world
        corrupt(tmp_path / shard_file_name(2))
        store.verify_shards()
        responses = service.recommend_batch(
            [RecommendationRequest(user=user, k=5) for user in (1, 17, 35, 50)]
        )
        assert [r.served_by == "personalized" for r in responses] == [
            True, True, False, True,
        ]
        assert all(len(r.items) > 0 for r in responses)

    def test_batch_matches_single_request_rankings(self, world):
        service, *_ = world
        users = (1, 9, 17, 33, 50)
        batch = service.recommend_batch(
            [RecommendationRequest(user=user, k=5) for user in users]
        )
        singles = [
            service.recommend(RecommendationRequest(user=user, k=5)) for user in users
        ]
        for batched, single in zip(batch, singles):
            assert np.array_equal(batched.items, single.items)

    def test_snapshot_reports_shard_breakers(self, world):
        service, *_ = world
        snapshot = service.snapshot()
        assert set(snapshot["shard_breakers"]) == {"0", "1", "2", "3"}

    def test_half_open_tier_keeps_its_probe_when_a_shard_refuses(self, tmp_path):
        """A probe the tier admits but an open shard refuses is given back."""
        train, params = make_world()
        write_factor_store(tmp_path, params, dtype="float64", shard_size=SHARD_SIZE)
        clock = FakeClock()
        service = RecommendationService.build(
            StoreBackedModel(ShardedFactorStore.open(tmp_path), train, version="v1"),
            train,
            fit_knn=False,
            version="v1",
            clock=clock,
            config=ServiceConfig(
                default_deadline_ms=5000.0,
                breaker=BreakerConfig(
                    min_calls=1, cooldown_seconds=10.0,
                    half_open_max_probes=1, half_open_successes=2,
                ),
            ),
        )
        try:
            tier = service.breakers["personalized"]
            tier.record_failure()
            clock.advance(5.0)
            service.shard_breakers[2].record_failure()
            clock.advance(6.0)  # the tier is half-open, shard 2 still open
            assert tier.state == "half-open"
            assert service.shard_breakers[2].state == "open"
            refused = service.recommend(RecommendationRequest(user=35, k=5))
            assert "personalized-shard-2 open" in refused.tier_errors["personalized"]
            # The one probe slot is free again: two healthy-shard probes
            # are admitted, served, and close the tier.
            for user in (3, 50):
                response = service.recommend(RecommendationRequest(user=user, k=5))
                assert response.served_by == "personalized"
            assert tier.state == "closed"
        finally:
            service.close()


class TestRetrievalProvenance:
    def make_service(self):
        train, params = make_world()

        class FactorModel:
            params_ = params

            def predict_batch(self, users):
                return scoring.linear_scores(
                    params.user_factors[np.asarray(users, dtype=np.int64)],
                    params.item_factors,
                    params.item_bias,
                )

            def predict_user(self, user):
                return self.predict_batch([user])[0]

        return RecommendationService.build(
            FactorModel(),
            train,
            fit_knn=False,
            config=ServiceConfig(default_deadline_ms=5000.0),
        )

    def test_degraded_tiers_report_exact(self):
        with self.make_service() as service:
            cold = service.recommend(RecommendationRequest(user=10_000, k=5))
            assert cold.degraded
            assert cold.to_json_dict()["retrieval"] == "exact"

    def test_wire_round_trip_and_legacy_default(self):
        with self.make_service() as service:
            response = service.recommend(RecommendationRequest(user=3, k=5))
        wire = response.to_json_dict()
        assert wire["retrieval"] == "exact"
        assert ServedResponse.from_json_dict(wire).to_json_dict() == wire
        legacy = dict(wire)
        del legacy["retrieval"]
        assert ServedResponse.from_json_dict(legacy).to_json_dict() == wire
