"""End-to-end drill of the self-healing runtime stack.

One :class:`RuntimeStack` (real HTTP edge on an ephemeral port, real
WAL, real scrubber) lives through the whole failure menu in a single
lifecycle test: component kills with supervised restarts, bit rot with
mirrored repair, ordered drain, and a snapshot → wipe → restore
round-trip that must land on bitwise-identical factors.  A second,
smaller stack exercises the quarantine → degraded-service path.
"""

from __future__ import annotations

import http.client
import json
import shutil

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.edge import EdgeConfig
from repro.mf.sgd import SGDConfig
from repro.models import BPR
from repro.resilience.chaos import KillSwitch as ProcessFaultInjector, flip_bits
from repro.runtime import (
    QUARANTINED,
    RUNNING,
    RuntimeStack,
    StackConfig,
    SupervisorConfig,
)
from repro.serving import RecommendationService, ServiceConfig, ThreadedExecutor
from repro.streaming import StreamIngestor, WriteAheadLog
from repro.streaming.ingest import IngestConfig, synthesize_records

#: 30x40 synthetic matrix: sparse enough that synthesized feedback still
#: finds unseen items (the 4x6 tiny matrix is too dense for that).
N_USERS, N_ITEMS = 30, 40
RNG = np.random.default_rng(7)
PAIRS = sorted(
    {
        (int(u), int(i))
        for u, i in zip(RNG.integers(0, N_USERS, 120), RNG.integers(0, N_ITEMS, 120))
    }
)


def http_json(host, port, method, path, payload=None, *, timeout=10.0):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def fresh_model():
    matrix = InteractionMatrix.from_pairs(PAIRS, n_users=N_USERS, n_items=N_ITEMS)
    return matrix, BPR(n_factors=4, sgd=SGDConfig(n_epochs=1), seed=0).fit(matrix)


def build_stack(data_dir, faults, **supervisor_overrides):
    matrix, model = fresh_model()
    _, serve_model = fresh_model()
    service = RecommendationService.build(
        serve_model,
        matrix,
        config=ServiceConfig(default_deadline_ms=250.0),
        executor=ThreadedExecutor(max_workers=2),
    )
    settings = dict(backoff_base_s=0.05, backoff_max_s=0.2)
    settings.update(supervisor_overrides)
    return RuntimeStack(
        service,
        model,
        matrix,
        None,
        data_dir,
        edge_config=EdgeConfig(),
        ingest_config=IngestConfig(batch_records=8),
        supervisor_config=SupervisorConfig(**settings),
        stack_config=StackConfig(),
        faults=faults,
    )


def post_feedback(host, port, records):
    for record in records:
        status, body = http_json(
            host,
            port,
            "POST",
            "/v1/feedback",
            {
                "user": record.user,
                "items": list(record.items),
                "key": record.key,
                "ts": record.ts,
            },
        )
        assert status == 200, (status, body)


def test_self_healing_lifecycle(tmp_path):
    faults = ProcessFaultInjector()
    data_dir = tmp_path / "data"
    stack = build_stack(data_dir, faults)
    host, port = stack.start()
    try:
        status, body = http_json(host, port, "GET", "/v1/ready")
        assert status == 200 and body["status"] == "ready"

        # Feedback flows edge -> WAL -> ingest batches.
        records = synthesize_records(20, n_users=N_USERS, n_items=N_ITEMS, seed=1)
        post_feedback(host, port, records[:10])
        assert stack.wait_until(
            lambda: stack.batches_total() > 0, 15.0, "first batch"
        ), stack.status()

        # SIGKILL-equivalent on the ingestor: supervised restart.
        faults.kill("ingest")
        assert stack.wait_until(
            lambda: (
                stack.supervisor.component("ingest").restarts > 0
                and stack.supervisor.states()["ingest"] == RUNNING
            ),
            15.0,
            "ingest restart",
        ), stack.status()

        # Kill the edge: a fresh incarnation rebinds the SAME port.
        faults.kill("edge")
        assert stack.wait_until(
            lambda: (
                stack.supervisor.component("edge").restarts > 0
                and stack.supervisor.states()["edge"] == RUNNING
            ),
            15.0,
            "edge restart",
        ), stack.status()

        replies = []

        def answered() -> bool:
            try:
                replies.append(http_json(host, port, "GET", "/v1/health"))
            except OSError:
                return False
            return True

        assert stack.wait_until(answered, 10.0, "edge health"), "edge never came back"
        assert replies[0][0] == 200, replies[0]

        # Bit rot in a checkpoint blob: the scrubber repairs from the
        # mirror (wait for a baseline pass before maiming it).
        assert stack.wait_until(
            lambda: (data_dir / "mirror" / "state").is_dir()
            and any((data_dir / "mirror" / "state").glob("*.npz")),
            15.0,
            "scrub baseline",
        ), stack.status()
        blobs = sorted((data_dir / "state").glob("*.npz"))
        mirrored = [
            blob
            for blob in blobs
            if (data_dir / "mirror" / "state" / blob.name).exists()
        ]
        assert mirrored, f"no mirrored checkpoint yet among {blobs}"
        assert flip_bits(mirrored[0], [100]) == 1
        assert stack.wait_until(
            lambda: stack.scrub_totals().repaired_primary > 0, 15.0, "scrub repair"
        ), stack.status()

        # More traffic, then let the ingestor catch up fully.
        post_feedback(host, port, records[10:])
        assert stack.wait_until(stack.caught_up, 15.0, "ingest catch-up"), stack.status()
    finally:
        report = stack.drain()
    assert report["stragglers"] == []
    assert not stack._monitor.is_alive()
    # Drain walks reverse start order, edge last: in-flight work settles
    # before the listener goes away.
    assert report["order"] == ["scrub", "reload", "retrain", "ingest", "edge"]

    checksum = stack.factors_checksum()

    # Snapshot, wipe the live directories, restore, replay: the rebuilt
    # serving state must be bitwise identical.
    manifest = stack.snapshot(tag="drill")
    assert manifest.snapshot_id == "drill-000000"
    shutil.rmtree(data_dir / "wal")
    shutil.rmtree(data_dir / "state")
    restore = stack.restore(manifest.snapshot_id, wipe=True)
    assert restore.ok, restore.problems

    _, replay_model = fresh_model()
    with WriteAheadLog(data_dir / "wal") as wal:
        ingestor = StreamIngestor.resume(
            wal, replay_model, data_dir / "state", config=IngestConfig(batch_records=8)
        )
        ingestor.run()
        assert ingestor.factors_checksum() == checksum
    stack.close()


def test_crash_loop_quarantines_and_degrades_the_service(tmp_path):
    faults = ProcessFaultInjector()
    stack = build_stack(
        tmp_path / "data", faults, max_restarts=1, crash_window_s=30.0
    )
    host, port = stack.start()
    try:
        assert not stack.service.degraded_mode()
        faults.kill("retrain", times=10)  # every incarnation dies
        assert stack.wait_until(
            lambda: stack.supervisor.states()["retrain"] == QUARANTINED,
            15.0,
            "retrain quarantine",
        ), stack.status()
        # Quarantine of a fallback-path component degrades the serving
        # tier instead of killing the process...
        assert stack.service.degraded_mode()
        # ...and the stack stays alive and routable: retrain is not a
        # critical component, so readiness holds while degraded.
        status, body = http_json(host, port, "GET", "/v1/ready")
        assert status == 200
        assert body["components"]["retrain"] == QUARANTINED
        status, _ = http_json(host, port, "GET", "/v1/health")
        assert status == 200
    finally:
        stack.drain()
        stack.close()
    assert stack.supervisor.states()["retrain"] == QUARANTINED
