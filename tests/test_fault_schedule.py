"""The armed-site schedule behind every counted injector, and the one
chaos hook each serving tier ranks through."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import make_profile_dataset, train_test_split
from repro.mf.sgd import SGDConfig
from repro.models import BPR, ItemKNN
from repro.resilience.chaos import FaultSchedule, KillSwitch, ServiceFaultInjector, SimulatedKill
from repro.serving import (
    STATIC_POPULARITY,
    FakeClock,
    FoldInTier,
    InlineExecutor,
    ItemKNNTier,
    PersonalizedTier,
    PopularityTier,
    RecommendationRequest,
    RecommendationService,
)

# (name, ops, ticks of "s" that fire).  An op is ("arm", at_tick, times),
# ("tick", n) for n passes, ("clear",) or ("reset",).
SCHEDULE_CASES = [
    ("default arms the next pass", [("arm", None, 1), ("tick", 3)], [1]),
    ("default after passes", [("tick", 2), ("arm", None, 1), ("tick", 3)], [3]),
    ("at_tick", [("arm", 3, 1), ("tick", 5)], [3]),
    ("times", [("arm", 2, 3), ("tick", 6)], [2, 3, 4]),
    ("re-arm adds charges", [("arm", 2, 1), ("arm", 5, 2), ("tick", 6)], [2, 3, 4]),
    ("re-arm a spent site", [("arm", None, 1), ("tick", 2), ("arm", None, 1), ("tick", 2)], [1, 3]),
    ("clear disarms", [("arm", 2, 2), ("tick", 2), ("clear",), ("tick", 3)], [2]),
    ("disarmed passes count", [("tick", 4), ("arm", 3, 1), ("tick", 2)], [5]),
    ("reset restores charges", [("arm", 2, 1), ("tick", 3), ("reset",), ("tick", 3)], [2, 2]),
]


@pytest.mark.parametrize("ops, expected", [case[1:] for case in SCHEDULE_CASES],
                         ids=[case[0] for case in SCHEDULE_CASES])
def test_schedule_fires_each_charge_once(ops, expected):
    schedule = FaultSchedule()
    fired_at = []
    for op, *args in ops:
        if op == "arm":
            at_tick, times = args
            assert schedule.arm("s", at_tick, times=times) is schedule
        elif op == "tick":
            for _ in range(args[0]):
                if schedule.fire("s"):
                    fired_at.append(schedule.ticks_["s"])
        else:
            getattr(schedule, op)()
    assert fired_at == expected
    fired_since_reset = expected[-1:] if ("reset",) in ops else expected
    assert schedule.fired_ == ["s"] * len(fired_since_reset)
    assert schedule.fire("other") is False and schedule.ticks_["other"] == 1


@pytest.mark.parametrize("bad", [{"times": 0}, {"at_tick": 0}])
def test_schedule_rejects_bad_arming(bad):
    with pytest.raises(ValueError):
        FaultSchedule().arm("s", **bad)


def test_kill_switch_kills_at_the_armed_site_only():
    switch = KillSwitch().arm("a", at_tick=2).kill("b", times=2)
    switch.tick("a")
    with pytest.raises(SimulatedKill, match="'a' tick 2"):
        switch.tick("a")
    for _ in range(2):
        with pytest.raises(SimulatedKill):
            switch.tick("b")
    switch.tick("a")
    switch.tick("b")
    assert switch.fired_ == ["a", "b", "b"]
    assert switch.ticks_ == {"a": 3, "b": 3}


def test_kills_armed_while_heartbeats_tick_lose_no_update():
    """The supervisor arms kills from its thread while components tick."""
    switch = KillSwitch()
    kills = []

    def heartbeats():
        for _ in range(2000):
            try:
                switch.tick("worker")
            except SimulatedKill:
                kills.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=heartbeats) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(200):
            switch.kill("worker")
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    extra = 0
    while len(kills) < 200 and extra < 200:  # charges armed after the last beat
        extra += 1
        with pytest.raises(SimulatedKill):
            switch.tick("worker")
        kills.append(1)
    switch.tick("worker")  # every charge spent: a harmless beat
    assert len(kills) == len(switch.fired_) == 200
    assert switch.ticks_["worker"] == 4 * 2000 + extra + 1


@pytest.fixture(scope="module")
def split():
    return train_test_split(make_profile_dataset("ML100K", scale=0.25, seed=9), seed=9)


@pytest.fixture(scope="module")
def bpr(split):
    return BPR(n_factors=8, sgd=SGDConfig(n_epochs=2), seed=0).fit(split.train)


@pytest.mark.parametrize("index", range(4))
def test_hand_built_cascade_faults_each_tier_by_name(split, bpr, index):
    """Tiers built without ``chaos`` take the service's hook: each is
    NaN-poisoned and latency-faulted by its name."""
    train = split.train
    clock = FakeClock()
    chaos = ServiceFaultInjector(clock)
    tiers = [
        PersonalizedTier(bpr, train),
        FoldInTier(bpr, train),
        ItemKNNTier(ItemKNN().fit(train), train),
        PopularityTier(train),
    ]
    service = RecommendationService(
        tiers, train, executor=InlineExecutor(clock=clock), clock=clock, chaos=chaos
    )
    assert all(tier.chaos is chaos for tier in tiers)
    name = tiers[index].name
    for ahead in tiers[:index]:
        chaos.inject(ahead.name, exception=True)
    chaos.inject(name, latency_ms=5.0, nan_scores=True)

    user = int(np.flatnonzero(train.user_counts() > 0)[0])
    response = service.recommend(RecommendationRequest(user=user, k=5))

    assert clock.now == pytest.approx(0.005)
    expected_counts = {f"{ahead.name}:exception": 1 for ahead in tiers[:index]}
    expected_counts.update({f"{name}:latency": 1, f"{name}:nan": 1})
    assert chaos.fired_counts_ == expected_counts
    assert "non-finite" in str(response.tier_errors[name])
    following = tiers[index + 1].name if index + 1 < len(tiers) else STATIC_POPULARITY
    assert response.served_by == following
    assert response.degraded
