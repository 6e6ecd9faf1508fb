"""Coalescing-policy and workload-generator tests.

:class:`MicroBatcher` keeps one batch in flight and has no timer.  Its
tests hold batch 1 in a runner blocked on a :class:`threading.Event`,
so the requests queued behind it, and the batches they form, are
known exactly.  They pin dispatch without a timer (a loop that refuses
timers), the split at ``max_batch`` in arrival order, one batch in
flight under load, caller cancellation, draining on ``close()``, and
exception fan-out.
The loadgen tests pin schedule determinism (same seed → identical
arrivals), trace round-trips, and the shed/failed/ok classification.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.edge.coalesce import CoalesceConfig, MicroBatcher
from repro.edge.loadgen import (
    ChaosEvent,
    LoadReport,
    RequestOutcome,
    WorkloadConfig,
    generate_schedule,
    load_trace,
    save_trace,
    zipf_user_probabilities,
)
from repro.resilience.chaos import ServiceFaultInjector
from repro.utils.exceptions import ConfigError
from repro.utils.rng import as_generator


#: Upper bound on any wait in these tests: a batcher that strands a
#: future fails the test instead of hanging it.
TIMEOUT_S = 10.0


class NoTimerLoop(asyncio.SelectorEventLoop):
    """An event loop on which scheduling any timer is an error."""

    def call_later(self, delay, callback, *args, context=None):
        raise AssertionError(f"timer scheduled: call_later({delay}, ...)")

    def call_at(self, when, callback, *args, context=None):
        raise AssertionError(f"timer scheduled: call_at({when}, ...)")


def echo(requests):
    return [f"served:{request}" for request in requests]


class HeldRunner:
    """Echo runner whose first batch blocks until :meth:`release`.

    Holding batch 1 in flight lets a test queue requests behind it at
    known positions; every batch is recorded in dispatch order.
    """

    def __init__(self):
        self.batches: list[list] = []
        self.entered = threading.Event()
        self.released = threading.Event()

    def __call__(self, requests):
        self.batches.append(list(requests))
        if len(self.batches) == 1:
            self.entered.set()
            assert self.released.wait(TIMEOUT_S), "held batch never released"
        return echo(requests)

    async def wait_in_flight(self):
        assert await asyncio.to_thread(self.entered.wait, TIMEOUT_S)

    def release(self):
        self.released.set()


async def queue_behind(batcher, requests):
    """Submit ``requests`` as tasks and let each one reach the queue."""
    tasks = [asyncio.ensure_future(batcher.submit(request)) for request in requests]
    await asyncio.sleep(0)
    return tasks


class TestMicroBatcher:
    def test_lone_submit_dispatches_without_a_timer(self):
        served = []

        def runner(requests):
            served.append(list(requests))
            return echo(requests)

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=64))
            result = await batcher.submit("lonely")
            await batcher.close()
            return result, batcher.batches_dispatched_

        loop = NoTimerLoop()
        # A timer-based batcher strands the future; this thread (not a
        # loop timer) stops the loop so the test fails instead of hanging.
        watchdog = threading.Timer(TIMEOUT_S, loop.call_soon_threadsafe, args=(loop.stop,))
        watchdog.start()
        try:
            assert loop.run_until_complete(scenario()) == ("served:lonely", 1)
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            watchdog.cancel()
            loop.close()
        assert served == [["lonely"]]

    def test_busy_batcher_splits_its_queue_at_max_batch(self):
        runner = HeldRunner()

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=4))
            first = asyncio.ensure_future(batcher.submit("r0"))
            await runner.wait_in_flight()
            queued = await queue_behind(batcher, [f"r{i}" for i in range(1, 7)])
            runner.release()
            results = await asyncio.wait_for(asyncio.gather(first, *queued), TIMEOUT_S)
            await batcher.close()
            return results, batcher.batches_dispatched_

        results, dispatched = asyncio.run(scenario())
        assert [len(batch) for batch in runner.batches] == [1, 4, 2]
        assert runner.batches == [["r0"], ["r1", "r2", "r3", "r4"], ["r5", "r6"]]
        assert results == [f"served:r{i}" for i in range(7)]
        assert dispatched == 3

    def test_concurrent_submits_coalesce_and_map_back_in_order(self):
        batch_sizes = []

        def runner(requests):
            batch_sizes.append(len(requests))
            return echo(requests)

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=4))
            results = await asyncio.gather(*(batcher.submit(f"r{i}") for i in range(4)))
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert results == ["served:r0", "served:r1", "served:r2", "served:r3"]
        assert batch_sizes == [4]

    def test_at_most_one_batch_in_flight_under_load(self):
        lock = threading.Lock()
        state = {"in_flight": 0, "most": 0}
        sizes = []

        def runner(requests):
            with lock:
                state["in_flight"] += 1
                state["most"] = max(state["most"], state["in_flight"])
                sizes.append(len(requests))
            time.sleep(0.001)
            with lock:
                state["in_flight"] -= 1
            return echo(requests)

        async def caller(batcher, index):
            await asyncio.sleep(0.0005 * (index % 7))
            return await batcher.submit(f"r{index}")

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=5))
            results = await asyncio.wait_for(
                asyncio.gather(*(caller(batcher, i) for i in range(200))), TIMEOUT_S
            )
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert results == [f"served:r{i}" for i in range(200)]
        assert state["most"] == 1
        assert sum(sizes) == 200 and max(sizes) <= 5
        assert len(sizes) < 200  # requests that queued behind a flight were batched

    def test_cancelled_caller_does_not_cancel_its_batchmates(self):
        runner = HeldRunner()

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=8))
            in_flight = asyncio.ensure_future(batcher.submit("r0"))
            await runner.wait_in_flight()
            a, b, c = await queue_behind(batcher, ["a", "b", "c"])
            # One caller drops while its batch is in flight, one while queued.
            in_flight.cancel()
            b.cancel()
            runner.release()
            results = await asyncio.wait_for(
                asyncio.gather(in_flight, a, b, c, return_exceptions=True), TIMEOUT_S
            )
            await batcher.close()
            return results

        r0, a, b, c = asyncio.run(scenario())
        assert isinstance(r0, asyncio.CancelledError)
        assert isinstance(b, asyncio.CancelledError)
        assert (a, c) == ("served:a", "served:c")
        assert runner.batches == [["r0"], ["a", "b", "c"]]

    def test_runner_failure_fans_out_to_every_caller(self):
        calls = []

        def runner(requests):
            calls.append(list(requests))
            if len(calls) == 1:
                raise RuntimeError("scoring backend down")
            return echo(requests)

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=2))
            results = await asyncio.gather(
                batcher.submit("a"), batcher.submit("b"), return_exceptions=True
            )
            # The drain task survives the failure: the next request is served.
            after = await batcher.submit("c")
            await batcher.close()
            return results, after

        results, after = asyncio.run(scenario())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)
        assert calls[0] == ["a", "b"]
        assert after == "served:c"

    def test_close_flushes_stragglers(self):
        served = []

        def runner(requests):
            served.extend(requests)
            return [None] * len(requests)

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=64))
            task = asyncio.ensure_future(batcher.submit("parked"))
            await asyncio.sleep(0)  # let submit reach the queue
            await batcher.close()
            assert task.done()
            await task

        asyncio.run(scenario())
        assert served == ["parked"]

    def test_close_waits_for_the_flight_and_drains_the_queue(self):
        runner = HeldRunner()

        async def scenario():
            batcher = MicroBatcher(runner, CoalesceConfig(max_batch=8))
            first = asyncio.ensure_future(batcher.submit("r0"))
            await runner.wait_in_flight()
            queued = await queue_behind(batcher, ["r1", "r2"])
            closing = asyncio.ensure_future(batcher.close())
            await asyncio.sleep(0.01)
            assert not closing.done()  # batch 1 is still held
            runner.release()
            await asyncio.wait_for(closing, TIMEOUT_S)
            assert first.done() and all(task.done() for task in queued)
            return [first.result()] + [task.result() for task in queued]

        assert asyncio.run(scenario()) == ["served:r0", "served:r1", "served:r2"]
        assert runner.batches == [["r0"], ["r1", "r2"]]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CoalesceConfig(max_batch=0)
        with pytest.raises(TypeError):
            CoalesceConfig(max_wait_ms=2.0)  # no timer knob: dispatch is work-conserving


class TestZipfWorkload:
    def test_probabilities_are_a_distribution(self):
        probabilities = zipf_user_probabilities(50, 1.1, as_generator(0))
        assert probabilities.shape == (50,)
        assert probabilities.sum() == pytest.approx(1.0)
        assert (probabilities > 0).all()

    def test_probabilities_are_skewed_and_seeded(self):
        first = zipf_user_probabilities(50, 1.1, as_generator(0))
        again = zipf_user_probabilities(50, 1.1, as_generator(0))
        other = zipf_user_probabilities(50, 1.1, as_generator(1))
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, other)  # rank permutation is seeded
        assert first.max() / first.min() > 10.0  # heavy head, long tail

    def test_schedule_is_deterministic_per_seed(self):
        config = WorkloadConfig(n_users=30, requests=40, rate_rps=500.0, seed=3)
        first = generate_schedule(config)
        again = generate_schedule(config)
        assert first == again
        assert len(first) == 40
        ats = [request.at_s for request in first]
        assert ats == sorted(ats)
        assert all(0 <= request.user < 30 for request in first)

    def test_different_seeds_differ(self):
        base = WorkloadConfig(n_users=30, requests=40, seed=3)
        other = WorkloadConfig(n_users=30, requests=40, seed=4)
        assert generate_schedule(base) != generate_schedule(other)

    def test_burst_mode_compresses_arrivals_inside_the_window(self):
        calm = WorkloadConfig(n_users=10, requests=200, rate_rps=50.0, mode="zipf", seed=0)
        burst = WorkloadConfig(
            n_users=10, requests=200, rate_rps=50.0, mode="burst", seed=0,
            burst_every_s=1.0, burst_duration_s=0.5, burst_multiplier=10.0,
        )
        assert generate_schedule(burst)[-1].at_s < generate_schedule(calm)[-1].at_s

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(n_users=0)
        with pytest.raises(ConfigError):
            WorkloadConfig(n_users=5, mode="tsunami")
        with pytest.raises(ConfigError):
            WorkloadConfig(n_users=5, requests=0)

    def test_trace_round_trip(self, tmp_path):
        schedule = generate_schedule(WorkloadConfig(n_users=12, requests=25, seed=9))
        path = tmp_path / "trace.json"
        save_trace(path, schedule)
        replayed = load_trace(path)
        assert len(replayed) == len(schedule)
        for loaded, original in zip(replayed, schedule):
            # at_s is rounded to microseconds on disk; everything else exact.
            assert loaded.at_s == pytest.approx(original.at_s, abs=1e-6)
            assert (loaded.user, loaded.k, loaded.deadline_ms) == (
                original.user, original.k, original.deadline_ms,
            )

    def test_chaos_event_drives_injector(self):
        chaos = ServiceFaultInjector()
        ChaosEvent(at_s=0.0, action="exception", tier="personalized").apply(chaos)
        with pytest.raises(Exception):
            chaos.before_call("personalized")
        ChaosEvent(at_s=1.0, action="clear").apply(chaos)
        chaos.before_call("personalized")  # cleared: no longer raises


class TestLoadReport:
    def make_report(self):
        outcomes = [
            RequestOutcome(status=200, latency_ms=2.0, served_by="personalized", degraded=False),
            RequestOutcome(status=200, latency_ms=4.0, served_by="popularity", degraded=True),
            RequestOutcome(status=429, latency_ms=0.5),
            RequestOutcome(status=503, latency_ms=0.5),
            RequestOutcome(status=0, latency_ms=10.0, transport_error=True),
        ]
        return LoadReport(outcomes=outcomes, duration_s=1.0)

    def test_shed_is_not_failed(self):
        report = self.make_report()
        assert report.total == 5
        assert report.ok == 2
        assert report.shed == 2
        assert report.failed == 1
        assert report.shed_rate() == pytest.approx(0.4)

    def test_fallback_rate_counts_non_personalized_200s(self):
        report = self.make_report()
        assert report.fallback_rate() == pytest.approx(0.5)
        assert report.degraded == 1

    def test_json_dict_is_complete(self):
        summary = self.make_report().to_json_dict()
        for key in ("total", "ok", "shed", "failed", "p50_ms", "p99_ms",
                    "fallback_rate", "shed_rate", "throughput_rps", "tier_mix"):
            assert key in summary
        assert summary["failed"] == 1
        assert summary["tier_mix"] == {"personalized": 1, "popularity": 1}
