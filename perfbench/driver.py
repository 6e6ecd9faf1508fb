"""Single-process asyncio load driver with its own HTTP/1.1 client.

At most ``nproc`` keep-alive connections.  A closed loop sends each
connection's next request when its previous reply arrives; an open loop
sends on the seeded Poisson schedule and times every request from when
it was *due*, so a stall is charged to the requests queued behind it.
The driver's own lateness against that schedule is recorded as well.
Sheds (429/503), other non-200 statuses, transport errors and bodies
that do not parse into the expected shape all count as failed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field

from perfbench.schedule import COLD, FEEDBACK, Schedule

REQUEST_TIMEOUT_S = 10.0


@dataclass
class Outcome:
    rid: int
    phase: str
    kind: int
    user: int
    index: int
    due: float | None
    sent: float
    received: float
    status: int
    ok: bool
    served_by: str | None = None
    items: list | None = None
    error: str = ""


@dataclass
class FeedbackSent:
    key: str
    user: int
    items: tuple
    ts: float


class Connection:
    """One keep-alive HTTP/1.1 connection (reopened after any error)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, path: str, body: bytes, rid: int) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"X-Bench-Id: {rid}\r\n\r\n"
        ).encode("ascii")
        self.writer.write(head + body)
        await self.writer.drain()
        lines = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        data = await self.reader.readexactly(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, data

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


@dataclass
class LoadDriver:
    host: str
    port: int
    seed: int
    k: int
    connections: int
    outcomes: list = field(default_factory=list)
    feedback: dict = field(default_factory=dict)
    lag_s: list = field(default_factory=list)
    _rids: itertools.count = field(default_factory=itertools.count)

    def _body(self, schedule: Schedule, index: int, rid: int) -> tuple[str, bytes]:
        kind = int(schedule.kind[index])
        user = int(schedule.user[index])
        if kind == FEEDBACK:
            items = tuple(int(i) for i in schedule.items[index][: schedule.n_items[index]])
            sent = FeedbackSent(f"pb-{self.seed}-{rid}", user, items, float(rid))
            self.feedback[rid] = sent
            payload = {"user": user, "items": list(items), "key": sent.key, "ts": sent.ts}
            return "/v1/feedback", json.dumps(payload).encode("utf-8")
        payload = {"user": user, "k": self.k}
        if kind == COLD:
            payload["history"] = [int(i) for i in schedule.items[index]]
        return "/v1/recommend", json.dumps(payload).encode("utf-8")

    async def _send(self, conn: Connection, schedule: Schedule, index: int,
                    phase: str, due: float | None) -> None:
        rid = next(self._rids)
        kind = int(schedule.kind[index])
        path, body = self._body(schedule, index, rid)
        sent = time.perf_counter()
        status, data, error = 0, b"", ""
        try:
            status, data = await asyncio.wait_for(
                conn.request(path, body, rid), REQUEST_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError, IndexError) as exc:
            error = f"transport: {type(exc).__name__}: {exc}"
            await conn.close()
        received = time.perf_counter()
        outcome = Outcome(rid, phase, kind, int(schedule.user[index]), index, due,
                          sent, received, status, False, error=error)
        if not error:
            self._judge(outcome, data)
        self.outcomes.append(outcome)

    def _judge(self, outcome: Outcome, data: bytes) -> None:
        if outcome.status != 200:
            outcome.error = f"status {outcome.status}"
            return
        try:
            body = json.loads(data)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            outcome.error = f"unparseable body: {exc}"
            return
        if outcome.kind == FEEDBACK:
            outcome.ok = body.get("status") == "acknowledged" and body.get("duplicate") is False
        else:
            items = body.get("items")
            outcome.ok = (
                isinstance(items, list) and len(items) == self.k
                and all(isinstance(i, int) for i in items)
                and isinstance(body.get("served_by"), str)
            )
            if outcome.ok:
                outcome.items = items
                outcome.served_by = body["served_by"]
        if not outcome.ok:
            outcome.error = f"bad body: {data[:200]!r}"

    async def _with_connections(self, run) -> None:
        conns = [Connection(self.host, self.port) for _ in range(self.connections)]
        try:
            await run(conns)
        finally:
            for conn in conns:
                await conn.close()

    async def closed_loop(self, schedule: Schedule, duration_s: float, phase: str,
                          windows: int = 1, between=None) -> list[tuple[float, float]]:
        """Each connection sends its next request when the last one returns.

        The phase is cut into ``windows`` equal windows on the same
        connections; after each one, once no request is in flight,
        ``between()`` runs.  Returns each window's (start, end).
        """
        indices = itertools.count()
        bounds = []

        async def worker(conn: Connection, end: float) -> None:
            while time.perf_counter() < end:
                await self._send(conn, schedule, next(indices) % len(schedule), phase, None)

        async def run(conns) -> None:
            for _ in range(windows):
                start = time.perf_counter()
                end = start + duration_s / windows
                await asyncio.gather(*(worker(c, end) for c in conns))
                bounds.append((start, end))
                if between is not None:
                    between()

        await self._with_connections(run)
        return bounds

    async def open_loop(self, schedule: Schedule, duration_s: float, phase: str) -> tuple[float, float]:
        """Send on the schedule's Poisson arrivals; time from each due time."""
        queue: asyncio.Queue = asyncio.Queue()
        start = time.perf_counter() + 0.01
        due_count = int((schedule.arrival_s < duration_s).sum())

        async def dispatcher(n_workers: int) -> None:
            for index in range(due_count):
                due = start + float(schedule.arrival_s[index])
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.lag_s.append(time.perf_counter() - due)
                queue.put_nowait((index, due))
            for _ in range(n_workers):
                queue.put_nowait(None)

        async def worker(conn: Connection) -> None:
            while (item := await queue.get()) is not None:
                await self._send(conn, schedule, item[0], phase, item[1])

        await self._with_connections(
            lambda conns: asyncio.gather(dispatcher(len(conns)), *(worker(c) for c in conns))
        )
        return start, start + duration_s
