"""``RemoteShard``: a shard server behind the engine surface.

:class:`~repro.shard.group.EngineGroup` drives its shards through the
methods of :class:`~repro.server.engine.DatabaseEngine`.  A
``RemoteShard`` offers those same methods for a shard that runs as its
own ``repro serve`` process, so :meth:`EngineGroup.connect` fronts N
shard servers with the very routing, merging and 2PC code that
:meth:`EngineGroup.open` runs over in-process engines (``repro route``).

Each method builds the typed :class:`~repro.requests.UpdateRequest` for
its wire op, sends it through one
:class:`~repro.server.resilient.ResilientClient` (reconnect, jittered
backoff, deadline budgets) behind a per-shard lock, and decodes the reply
with the result type's ``from_dict``.  Transport failures surface as the
retryable :class:`UnavailableError`; a shard's own typed errors are
relayed unchanged (see ``protocol.error_type_of``).

Standing queries need a streaming connection, which the request/response
client cannot carry: each subscription gets a :class:`_FeedTap`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.datalog.errors import (
    DatalogError,
    SubscriptionError,
    UnavailableError,
)
from repro.events.events import Transaction
from repro.interpretations.downward import DownwardResult
from repro.interpretations.upward import UpwardResult
from repro.problems import ICCheckResult
from repro.problems.condition_monitoring import ConditionChanges
from repro.problems.repair import RepairResult
from repro.requests import (
    CheckpointRequest,
    CheckRequest,
    CommitRequest,
    DecideRequest,
    DownwardRequest,
    HealthRequest,
    MonitorRequest,
    PrepareRequest,
    QueryRequest,
    RepairRequest,
    StatsRequest,
    UpdateRequest,
    UpwardRequest,
)
from repro.server.client import ConnectionLostError, DatabaseClient, ServerError
from repro.server.engine import CommitOutcome
from repro.server.feed import resync_frame
from repro.server.resilient import (
    DeadlineExceeded,
    ResilientClient,
    RetriesExhausted,
)


class _FeedTap:
    """One dedicated streaming connection to a shard server's feed.

    A tap holds its own :class:`DatabaseClient` (the shard's pooled
    client is strictly request/response) plus a daemon reader thread
    pumping pushed frames into *callback*.  Backend ``seq`` numbers are
    checked: a gap, a ``closed`` frame or a lost connection all surface as
    a ``resync`` frame -- the subscriber re-pulls, which is always safe.
    """

    def __init__(self, host: str, port: int, goals,
                 callback: Callable[[dict], None], *, emit_empty: bool,
                 timeout: float = 30.0):
        self._callback = callback
        self._stopped = False
        self._client = DatabaseClient(host, port, timeout=timeout)
        try:
            self.info = self._client.subscribe(goals, emit_empty=emit_empty)
        except BaseException:
            self._client.close()
            raise
        self._sub_id = self.info["subscription_id"]
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"feed-tap-{port}-{self._sub_id}")
        self._thread.start()

    def _run(self) -> None:
        expected = 1
        while not self._stopped:
            try:
                pushed = self._client.next_frame()
            except DatalogError:
                if not self._stopped:
                    self._callback(resync_frame(0, "tap-lost"))
                return
            if pushed.get("feed") != self._sub_id:
                continue
            if pushed.get("seq") != expected:
                self._callback(resync_frame(0, "gap"))
            seq = pushed.get("seq")
            expected = (seq if isinstance(seq, int) else expected) + 1
            frame = pushed.get("frame") or {}
            if frame.get("kind") == "closed":
                self._callback(resync_frame(0, "tap-closed"))
                return
            self._callback(frame)

    def close(self) -> None:
        self._stopped = True
        try:
            self._client.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


class RemoteShard:
    """The engine methods an :class:`EngineGroup` calls, over the wire.

    *client_options* are :class:`ResilientClient` keyword arguments
    (``timeout``, ``max_attempts``, ``deadline``, ``seed`` ...).
    """

    def __init__(self, index: int, host: str, port: int, **client_options):
        self._index = index
        self._host = host
        self._port = port
        self._timeout = float(client_options.get("timeout", 30.0))
        self._client = ResilientClient(host, port, **client_options)
        # A ResilientClient owns one socket: serialise access to it.
        self._lock = threading.Lock()
        self._taps_lock = threading.Lock()
        self._taps: dict[str, _FeedTap] = {}

    def _unavailable(self, op: str, error: BaseException) -> UnavailableError:
        return UnavailableError(
            f"shard {self._index} ({self._host}:{self._port}) is "
            f"unavailable for {op}: {error}")

    def _send(self, request: UpdateRequest) -> dict:
        """One backend call; transport failures raise ``UnavailableError``."""
        try:
            with self._lock:
                return self._client.send(request)
        except RetriesExhausted as error:
            if isinstance(error.last, ServerError):
                # The shard answered every attempt with a retryable typed
                # error (e.g. txn-conflict): relay its verdict.
                raise error.last from error
            raise self._unavailable(request.op, error) from error
        except (ConnectionLostError, DeadlineExceeded, OSError) as error:
            raise self._unavailable(request.op, error) from error

    # -- reads -----------------------------------------------------------------

    def query(self, goal: str) -> list[tuple]:
        answers = self._send(QueryRequest(goal))["answers"]
        return [tuple(row) for row in answers]

    def upward(self, transaction: Transaction,
               predicates: Iterable[str] | None = None) -> UpwardResult:
        return UpwardResult.from_dict(self._send(UpwardRequest(
            transaction,
            tuple(predicates) if predicates is not None else None)))

    def check(self, transaction: Transaction) -> ICCheckResult:
        return ICCheckResult.from_dict(self._send(CheckRequest(transaction)))

    def monitor(self, transaction: Transaction,
                conditions: Iterable[str] | None = None) -> ConditionChanges:
        return ConditionChanges.from_dict(self._send(
            MonitorRequest(transaction, tuple(conditions or ()))))

    def downward(self, requests) -> DownwardResult:
        return DownwardResult.from_dict(
            self._send(DownwardRequest(requests)))

    def repair(self, verify: bool = False) -> RepairResult:
        return RepairResult.from_dict(self._send(RepairRequest(verify)))

    @property
    def in_doubt(self) -> tuple[str, ...]:
        return tuple(self.health()["in_doubt"])

    def stats(self) -> dict:
        return self._send(StatsRequest())

    def health(self) -> dict:
        return self._send(HealthRequest())

    # -- writes ----------------------------------------------------------------

    def commit(self, transaction: Transaction,
               on_violation: str | None = None,
               timeout: float | None = None,
               txn_id: str | None = None) -> CommitOutcome:
        return CommitOutcome.from_dict(self._send(CommitRequest(
            transaction, on_violation=on_violation, timeout=timeout,
            txn_id=txn_id)))

    def prepare(self, transaction: Transaction, txn_id: str) -> dict:
        return self._send(PrepareRequest(transaction, txn_id))

    def decide(self, txn_id: str, decision: str) -> dict:
        return self._send(DecideRequest(txn_id, decision))

    def checkpoint(self) -> None:
        self._send(CheckpointRequest())

    # -- change-feed subscriptions ---------------------------------------------

    def feed_subscribe(self, goals, callback: Callable[[dict], None], *,
                       emit_empty: bool = False) -> dict:
        try:
            tap = _FeedTap(self._host, self._port, goals, callback,
                           emit_empty=emit_empty, timeout=self._timeout)
        except (ConnectionLostError, OSError) as error:
            raise self._unavailable("subscribe", error) from error
        with self._taps_lock:
            self._taps[tap.info["subscription_id"]] = tap
        return tap.info

    def feed_unsubscribe(self, subscription_id: str) -> dict:
        with self._taps_lock:
            tap = self._taps.pop(subscription_id, None)
        if tap is None:
            raise SubscriptionError(
                f"unknown subscription_id: {subscription_id!r}")
        tap.close()
        return {"unsubscribed": subscription_id}

    def close(self, checkpoint: bool = True) -> None:
        """Close this front's connections (never the shard server itself)."""
        del checkpoint  # the shard server owns its own checkpoints
        with self._taps_lock:
            taps, self._taps = list(self._taps.values()), {}
        for tap in taps:
            tap.close()
        self._client.close()
