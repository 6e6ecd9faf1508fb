"""The lean batch hand-off and its event-loop deadline.

A coalesced batch runs the whole cascade on one serving thread of the
service's executor; whoever handed it off holds its
:class:`~repro.serving.service.BatchFlight` and cuts it off at the
deadline.  These tests pin what that must never break:

* timer and completion race, and each request's breakers and stats
  still move exactly once (scripted interleavings plus a seeded stress
  run through a real :class:`MicroBatcher`);
* a tier that wedges forever opens its breaker after ``min_calls``
  cut-offs, later requests are served by the next tier, and no more
  than ``max_workers`` serving threads are ever alive;
* answers an earlier tier produced survive a later tier's cut-off;
* a wedged thread that finishes after the edge's loop has closed
  raises nothing;
* a synchronous ``recommend_batch``, ``POST /v1/recommend/batch`` and
  the :class:`MicroBatcher` are cut off alike;
* after ``close()`` every entry point still answers, and none raises.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import re
import threading
import time

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.edge import CoalesceConfig, EdgeConfig, EdgeServer, EdgeServerThread, MicroBatcher
from repro.mf.sgd import SGDConfig
from repro.models import BPR
from repro.serving import (
    OPEN,
    STATIC_POPULARITY,
    BreakerConfig,
    FakeClock,
    RecommendationRequest,
    RecommendationService,
    ServiceConfig,
    ThreadedExecutor,
)
from repro.utils.clock import Timer

TIMEOUT_S = 10.0
SERVING_THREAD = "repro-serving-batch"

#: Users 0-2 are warm; user 3 is cold (no training positives).
TINY_PAIRS = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 5)]


@pytest.fixture(scope="module")
def fitted():
    matrix = InteractionMatrix.from_pairs(TINY_PAIRS, n_users=4, n_items=6)
    model = BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(matrix)
    return matrix, model


class Wedge:
    """Chaos hook that parks every call of one tier until released."""

    def __init__(self, tier: str):
        self.tier = tier
        self.entered = threading.Semaphore(0)
        self.released = threading.Event()

    def before_call(self, tier: str) -> None:
        if tier == self.tier:
            self.entered.release()
            self.released.wait(TIMEOUT_S)

    def poison_scores(self, tier: str, scores: np.ndarray) -> np.ndarray:
        return scores

    def wait_entered(self) -> None:
        assert self.entered.acquire(timeout=TIMEOUT_S), f"{self.tier} never called"


class Done:
    """The ``done`` callback of a hand-off, awaitable from the test thread."""

    def __init__(self):
        self.event = threading.Event()
        self.result = None

    def __call__(self, result) -> None:
        self.result = result
        self.event.set()

    def wait(self):
        assert self.event.wait(TIMEOUT_S), "the serving thread never finished"
        return self.result


class PausingExecutor(ThreadedExecutor):
    """Holds the serving thread between a tier call's return and its settlement."""

    def __init__(self, clock):
        super().__init__(max_workers=2, clock=clock)
        self.returned = threading.Event()
        self.resume = threading.Event()

    def call(self, fn, budget_ms):
        try:
            return super().call(fn, budget_ms)
        finally:
            self.returned.set()
            self.resume.wait(TIMEOUT_S)


def build(fitted, chaos, *, deadline_ms=50.0, breaker=None, executor=None, clock=None):
    matrix, model = fitted
    return RecommendationService.build(
        model,
        matrix,
        config=ServiceConfig(
            default_deadline_ms=deadline_ms,
            breaker=breaker or BreakerConfig(min_calls=10_000),
        ),
        executor=executor or ThreadedExecutor(max_workers=2),
        clock=clock,
        chaos=chaos,
    )


@pytest.fixture
def serving_threads():
    """Serving threads started during the test (others may idle on)."""
    before = {thread for thread in threading.enumerate() if thread.name == SERVING_THREAD}
    return lambda: [
        thread
        for thread in threading.enumerate()
        if thread.name == SERVING_THREAD and thread not in before
    ]


def close_and_join(service, threads) -> None:
    service.close()
    for thread in threads:
        thread.join(TIMEOUT_S)
        assert not thread.is_alive()


def attempts(service, tier: str) -> int:
    stats = service.stats[tier]
    return stats.served + stats.failures + stats.timeouts


class TestCutOffSettlesOnce:
    def test_cut_off_during_the_call_settles_it_once(self, fitted, serving_threads):
        wedge = Wedge("personalized")
        service = build(fitted, wedge)
        threads = []
        try:
            requests = [RecommendationRequest(user=0, k=3), RecommendationRequest(user=1, k=3)]
            done = Done()
            flight = service.hand_off(requests, done)
            wedge.wait_entered()
            threads = serving_threads()
            responses = flight.cut_off()
            assert flight.cut_off() is None  # a second timer finds nothing to cut
        finally:
            wedge.released.set()
        assert [r.served_by for r in responses] == [STATIC_POPULARITY] * 2
        for response in responses:
            assert set(response.tier_errors) == {"personalized", "fold-in"}
            assert response.tier_errors["personalized"].startswith(
                "deadline exceeded (tier call cut off after"
            )
            assert response.tier_errors["fold-in"] == "deadline exhausted"
        late = done.wait()
        assert [id(r) for r in late] == [id(r) for r in responses]
        close_and_join(service, threads)
        stats = service.stats["personalized"]
        assert (stats.served, stats.timeouts, stats.failures) == (0, 2, 0)
        assert service.breakers["personalized"].snapshot()["window_calls"] == 2
        assert service.executor.overruns_ == 1

    def test_post_hoc_overrun_then_cut_off_charges_once(self, fitted, serving_threads):
        clock = FakeClock()

        class SlowTier(Wedge):
            def before_call(self, tier):
                if tier == self.tier:
                    clock.advance(0.2)

        executor = PausingExecutor(clock)
        service = build(fitted, SlowTier("personalized"), executor=executor, clock=clock)
        done = Done()
        flight = service.hand_off([RecommendationRequest(user=0, k=3)], done)
        assert executor.returned.wait(TIMEOUT_S)
        threads = serving_threads()
        assert executor.overruns_ == 1  # judged after the fact, on the serving thread
        (response,) = flight.cut_off()
        executor.resume.set()
        done.wait()
        close_and_join(service, threads)
        assert response.served_by == STATIC_POPULARITY
        assert response.tier_errors["personalized"].startswith(
            "deadline exceeded (tier call cut off after 200.0ms (budget 50.0ms)"
        )
        assert executor.overruns_ == 1
        assert service.stats["personalized"].timeouts == 1
        assert attempts(service, "personalized") == 1

    def test_cut_off_after_the_batch_finished_moves_nothing(self, fitted, serving_threads):
        service = build(fitted, None)
        done = Done()
        flight = service.hand_off([RecommendationRequest(user=0, k=3)], done)
        (response,) = done.wait()
        assert flight.cut_off() is None
        close_and_join(service, serving_threads())
        assert response.served_by == "personalized"
        assert service.stats["personalized"].served == 1
        assert service.stats[STATIC_POPULARITY].served == 0
        assert service.executor.overruns_ == 0

    def test_timer_and_completion_race_through_the_batcher(self, fitted, serving_threads):
        """A tier that takes about its deadline: whichever side wins, once."""
        deadline_ms = 4.0
        rng = random.Random(0)

        class Jitter(Wedge):
            def before_call(self, tier):
                if tier == self.tier:
                    time.sleep(rng.uniform(0.5, 1.5) * deadline_ms / 1000.0)

        service = build(
            fitted, Jitter("personalized"), deadline_ms=deadline_ms,
            executor=ThreadedExecutor(max_workers=4),
        )
        rounds = 80

        async def scenario():
            batcher = MicroBatcher(service, CoalesceConfig(max_batch=8))
            served = []
            for index in range(rounds):
                served.append(await batcher.submit(RecommendationRequest(user=index % 3, k=3)))
                assert len(serving_threads()) <= 4
            await batcher.close()
            return served

        responses = asyncio.run(asyncio.wait_for(scenario(), 60.0))
        close_and_join(service, serving_threads())
        personalized = service.stats["personalized"]
        timed_out = [
            r for r in responses
            if r.tier_errors.get("personalized", "").startswith("deadline exceeded")
        ]
        assert len(responses) == rounds
        assert sum(stats.served for stats in service.stats.values()) == rounds
        assert personalized.served == sum(r.served_by == "personalized" for r in responses)
        assert personalized.timeouts == len(timed_out)
        assert personalized.failures == 0
        # A request cut off before its batch reached the tier never tried it.
        unstarted = [
            r for r in responses if r.tier_errors.get("personalized") == "deadline exhausted"
        ]
        assert attempts(service, "personalized") == rounds - len(unstarted)
        window = service.breakers["personalized"].snapshot()["window_calls"]
        assert window == attempts(service, "personalized")
        assert service.executor.overruns_ == personalized.timeouts  # one request per batch


class TestWedgedTier:
    def test_breaker_opens_after_min_calls_cut_offs_within_max_workers(
        self, fitted, serving_threads
    ):
        wedge = Wedge("personalized")
        service = build(
            fitted,
            wedge,
            deadline_ms=30.0,
            breaker=BreakerConfig(min_calls=2, failure_rate_threshold=0.5, cooldown_seconds=600.0),
            executor=ThreadedExecutor(max_workers=3),
        )
        alive = []

        async def scenario():
            batcher = MicroBatcher(service, CoalesceConfig(max_batch=8))
            served = []
            for index in range(8):
                served.append(await batcher.submit(RecommendationRequest(user=index % 3, k=3)))
                alive.append(len(serving_threads()))
            await batcher.close()
            return served

        try:
            responses = asyncio.run(asyncio.wait_for(scenario(), 60.0))
            threads = serving_threads()
        finally:
            wedge.released.set()
        close_and_join(service, threads)
        assert [r.served_by for r in responses[:2]] == [STATIC_POPULARITY] * 2
        assert [r.served_by for r in responses[2:]] == ["fold-in"] * 6
        assert all(r.tier_errors["personalized"] == "breaker open" for r in responses[2:])
        assert service.breakers["personalized"].state == OPEN
        assert service.stats["personalized"].timeouts == 2
        assert max(alive) <= 3

    def test_earlier_answers_survive_a_later_tiers_cut_off(self, fitted, serving_threads):
        wedge = Wedge("fold-in")
        service = build(fitted, wedge)
        requests = [
            RecommendationRequest(user=0, k=3),
            RecommendationRequest(user=3, k=3, history=(0,)),
        ]
        try:
            done = Done()
            flight = service.hand_off(requests, done)
            wedge.wait_entered()
            threads = serving_threads()
            warm, cold = flight.cut_off()
        finally:
            wedge.released.set()
        done.wait()
        close_and_join(service, threads)
        assert warm.served_by == "personalized"
        assert warm.tier_errors == {}
        assert cold.served_by == STATIC_POPULARITY
        assert cold.tier_errors["personalized"] == "personalized: user 3 has no training history"
        assert cold.tier_errors["fold-in"].startswith("deadline exceeded (tier call cut off after")
        assert cold.tier_errors["itemknn"] == "deadline exhausted"
        assert service.stats["personalized"].served == 1
        assert service.stats["fold-in"].timeouts == 1


def test_wedged_thread_finishing_after_the_edge_exits_raises_nothing(
    fitted, serving_threads, monkeypatch
):
    raised = []
    monkeypatch.setattr(threading, "excepthook", lambda args: raised.append(args.exc_value))
    wedge = Wedge("personalized")
    service = build(fitted, wedge, deadline_ms=30.0)
    server = EdgeServer(service, config=EdgeConfig(workers=1))
    try:
        with EdgeServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
            connection.request("GET", "/v1/recommend?user=0&k=3")
            status = connection.getresponse().status
            connection.close()
        threads = serving_threads()
    finally:
        wedge.released.set()  # the loop is closed: the late answer has nowhere to go
    close_and_join(service, threads)
    assert status == 200
    assert service.stats["personalized"].timeouts == 1
    assert raised == []


class TestEveryCallerIsCutOffAlike:
    """One wedged-tier batch through each entry point that hands it off."""

    DEADLINE_MS = 50.0
    MARGIN_MS = 500.0  # the wedge would hold the tier for TIMEOUT_S
    REQUESTS = [
        {"user": 0, "k": 3},
        {"user": 1, "k": 3},
        {"user": 3, "k": 3, "history": [0]},
    ]

    def requests(self):
        return [
            RecommendationRequest(user=r["user"], k=r["k"], history=r.get("history"))
            for r in self.REQUESTS
        ]

    def serve(self, fitted, serving_threads, entry):
        """Run ``entry(service)`` against a wedged personalized tier.

        Returns what the three entry points must agree on: each response's
        ``served_by`` and ``tier_errors`` (message text up to its first
        digit), tier timeouts, breaker windows and executor overruns.
        """
        wedge = Wedge("personalized")
        service = build(fitted, wedge, deadline_ms=self.DEADLINE_MS)
        try:
            with Timer() as timer:
                served = entry(service)
            threads = serving_threads()
        finally:
            wedge.released.set()
        assert len(threads) <= service.executor.max_workers
        close_and_join(service, threads)
        assert timer.elapsed * 1000.0 < self.DEADLINE_MS + self.MARGIN_MS
        return {
            "served_by": [served_by for served_by, _ in served],
            "tier_errors": [
                {tier: re.split(r"\d", message, maxsplit=1)[0] for tier, message in errors.items()}
                for _, errors in served
            ],
            "timeouts": {name: stats.timeouts for name, stats in service.stats.items()},
            "window_calls": {
                name: breaker.snapshot()["window_calls"]
                for name, breaker in service.breakers.items()
            },
            "overruns": service.executor.overruns_,
        }

    def synchronous(self, service):
        return [(r.served_by, r.tier_errors) for r in service.recommend_batch(self.requests())]

    def batch_route(self, service):
        server = EdgeServer(service, config=EdgeConfig(workers=1))
        with EdgeServerThread(server) as (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
            try:
                connection.request(
                    "POST", "/v1/recommend/batch", json.dumps({"requests": self.REQUESTS}),
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                status, body = response.status, json.loads(response.read())
            finally:
                connection.close()
        assert status == 200
        return [(r["served_by"], r["tier_errors"]) for r in body["responses"]]

    def batcher(self, service):
        async def scenario():
            batcher = MicroBatcher(service, CoalesceConfig(max_batch=8))
            served = await asyncio.gather(*(batcher.submit(r) for r in self.requests()))
            assert batcher.batches_dispatched_ == 1
            return served

        return [(r.served_by, r.tier_errors) for r in asyncio.run(scenario())]

    def test_three_entry_points_agree(self, fitted, serving_threads):
        synchronous = self.serve(fitted, serving_threads, self.synchronous)
        assert synchronous["served_by"] == [STATIC_POPULARITY] * 3
        assert synchronous["tier_errors"] == [
            {"personalized": "deadline exceeded (tier call cut off after ",
             "fold-in": "deadline exhausted"},
        ] * 2 + [
            {"personalized": "personalized: user ", "fold-in": "deadline exhausted"},
        ]
        assert synchronous["timeouts"]["personalized"] == 2
        assert synchronous["window_calls"]["personalized"] == 2
        assert synchronous["overruns"] == 1
        assert self.serve(fitted, serving_threads, self.batch_route) == synchronous
        assert self.serve(fitted, serving_threads, self.batcher) == synchronous


def test_every_entry_point_answers_after_close(fitted):
    service = build(fitted, None)
    service.close()
    tiers = {tier.name for tier in service.tiers}

    async def coalesced():
        return await MicroBatcher(service).submit(RecommendationRequest(user=1, k=3))

    done = Done()
    service.hand_off([RecommendationRequest(user=2, k=3)], done)
    responses = [
        service.recommend(0, k=3),
        *service.recommend_batch([0, 1], k=3),
        *done.wait(),
        asyncio.run(coalesced()),
    ]
    for response in responses:
        assert response.served_by == STATIC_POPULARITY
        assert set(response.tier_errors) == tiers
        assert len(response.items) == 3
