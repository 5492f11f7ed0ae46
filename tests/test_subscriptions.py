"""Standing-query subscriptions: the differential oracle and fault matrix.

The centrepiece is :class:`tests.faultkit.SubscriptionOracle`: a shadow
subscriber that applies delta frames (and re-pulls on ``resync``) and
asserts, after every commit, that the feed reconstructed exactly the
materialised state -- across both maintainers (the invalidate oracle
forced through ``faultkit.force_maintainer``) and both evaluation engines,
for the recursive SYN6 transitive closure as served (counting), over the
engine API, the wire protocol and the shard group.

The fault slice covers the feed-specific failpoints: a crash between the
fsync and the publish must never produce phantom or duplicate frames, a
dropped wire frame must surface as a seq gap the resilient client resyncs
over, and a subscriber that stops reading must never delay a commit ack
(it overflows its bounded queue and is dropped with a typed close).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import faults
from repro.datalog.compile_plan import ENV_ENGINE
from repro.events.events import Transaction, insert, parse_transaction
from repro.server import DatabaseEngine, ServerThread
from repro.server import server as server_mod
from repro.server.client import DatabaseClient, ServerError
from repro.server.engine import FP_FEED_PUBLISH
from repro.server.resilient import ResilientClient
from repro.server.server import FP_FEED_FRAME
from repro.workloads.generators import (
    employment_database,
    random_transaction,
)

from tests import faultkit

EVAL_ENGINES = ("compiled", "interpreted")


def fresh_engine(tmp_path, **kwargs) -> DatabaseEngine:
    directory = tmp_path / "db"
    initial = employment_database(n_people=15, seed=11)
    for index in range(15):  # benefits for all: most commits apply
        initial.add_fact("U_benefit", f"P{index}")
    return DatabaseEngine.open(directory, initial=initial, **kwargs)


def grow(person: str) -> Transaction:
    """A safe insertion: makes *person* unemployed without violating Ic1."""
    return Transaction([insert("La", person), insert("U_benefit", person)])


# ---------------------------------------------------------------------------
# the differential oracle, engine level


class TestDifferentialOracle:
    @pytest.mark.parametrize("eval_engine", EVAL_ENGINES)
    @pytest.mark.parametrize("maintainer", faultkit.MAINTAINERS)
    def test_random_workload(self, tmp_path, monkeypatch, maintainer,
                             eval_engine):
        """Frames == before/after diff, for every commit of a workload."""
        faultkit.force_maintainer(monkeypatch, maintainer)
        monkeypatch.setenv(ENV_ENGINE, eval_engine)
        engine = fresh_engine(tmp_path)
        try:
            oracle = faultkit.SubscriptionOracle(engine)
            applied = 0
            for step in range(25):
                txn = random_transaction(engine.db, n_events=3,
                                         seed=9000 + step)
                if engine.commit(txn).applied:
                    applied += 1
                oracle.check()  # after *every* commit, not just at the end
            assert applied >= 5, "workload never commits; oracle untested"
            assert oracle.deltas + oracle.resyncs > 0, "feed stayed silent"
            stats = engine.stats()["engine"]
            assert stats["maintainer"] == maintainer
            assert stats["eval_engine"] == eval_engine
            if maintainer == "counting":
                assert stats["feed_sourcing"] == "delta"
                assert oracle.deltas > 0
            else:
                assert stats["feed_sourcing"] == "diff"
        finally:
            engine.close()

    @pytest.mark.parametrize("eval_engine", EVAL_ENGINES)
    def test_random_workload_counting_recursive(self, tmp_path, monkeypatch,
                                                eval_engine):
        """The oracle over the SYN6 transitive closure, as served: counting
        recomputes the recursive component and counts what lies above."""
        monkeypatch.setenv(ENV_ENGINE, eval_engine)
        engine = DatabaseEngine.open(
            tmp_path / "db",
            initial=faultkit.transitive_closure_database(seed=5))
        try:
            assert engine.stats()["engine"]["maintainer"] == "counting"
            oracle = faultkit.SubscriptionOracle(engine)
            applied = rejected = 0
            for step in range(25):
                txn = random_transaction(engine.db, n_events=2,
                                         seed=7000 + step)
                if engine.commit(txn).applied:
                    applied += 1
                else:
                    rejected += 1
                oracle.check()
            assert applied >= 5 and rejected >= 1, (applied, rejected)
            assert oracle.deltas > 0 and oracle.resyncs == 0
        finally:
            engine.close()

    @pytest.mark.parametrize("maintainer", faultkit.MAINTAINERS)
    def test_resync_paths(self, tmp_path, monkeypatch, maintainer):
        """A serial-path commit publishes its own delta frame -- a resync
        only when the maintainer has no delta and resets (the invalidate
        oracle) -- and a checkpoint publishes nothing."""
        faultkit.force_maintainer(monkeypatch, maintainer)
        engine = fresh_engine(tmp_path)
        try:
            oracle = faultkit.SubscriptionOracle(engine)
            # A non-reject policy always takes the serial commit path.
            assert engine.commit(grow("Zed"),
                                 on_violation="maintain").applied
            oracle.drain()
            if maintainer == "invalidate":
                assert oracle.resyncs == 1
            else:
                assert (oracle.deltas, oracle.resyncs) == (1, 0)
            oracle.check()
            engine.checkpoint()  # only the files change: no frame at all
            assert not oracle.frames
            assert engine.commit(grow("Ann")).applied
            oracle.drain()
            if maintainer == "counting":
                assert (oracle.deltas, oracle.resyncs) == (2, 0)
                assert engine.metrics.counter("ivm.bootstrap") == 1
            oracle.check()
        finally:
            engine.close()

    def test_bound_goal_filters(self, tmp_path):
        """A constant-bound goal only sees its own rows."""
        engine = fresh_engine(tmp_path)
        try:
            frames: list[dict] = []
            engine.feed_subscribe(["Unemp(Zed)"], frames.append)
            assert engine.commit(grow("Zed")).applied
            assert engine.commit(grow("Ann")).applied
            deltas = [f for f in frames if f["kind"] == "delta"]
            assert deltas, "bound subscription never got its row"
            seen = {tuple(row) for f in deltas
                    for row in f["inserted"].get("Unemp", ())}
            assert seen == {("Zed",)}, f"filter leaked rows: {seen}"
        finally:
            engine.close()

    def test_typed_goal_errors(self, tmp_path):
        from repro.datalog.errors import SubscriptionError

        engine = fresh_engine(tmp_path)
        try:
            for bad in ("La", "Nope", "Unemp(", "Unemp(x, y)", "", 7):
                with pytest.raises(SubscriptionError):
                    engine.feed_subscribe([bad], lambda frame: None)
            with pytest.raises(SubscriptionError):
                engine.feed_unsubscribe("sub-999")
            info = engine.feed_subscribe(["Unemp"], lambda frame: None)
            engine.feed_unsubscribe(info["subscription_id"])
            with pytest.raises(SubscriptionError):  # double unsubscribe
                engine.feed_unsubscribe(info["subscription_id"])
        finally:
            engine.close()

    def test_broken_callback_is_dropped_not_propagated(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            def explode(frame):
                raise RuntimeError("subscriber bug")

            engine.feed_subscribe(["Unemp"], explode)
            assert engine.commit(grow("Zed")).applied  # commit unharmed
            assert engine.feed.active == 0
            assert engine.metrics.counter("feed.callback_errors") == 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# feed failpoints: crash mid-publish, dropped wire frames


class TestFeedFaults:
    def test_crash_mid_publish_no_phantom_no_duplicate(self, tmp_path):
        """A crash between fsync and publish loses the frame, not the txn.

        The commit is durable (publish runs strictly after the fsync), so
        recovery must show its effects -- while the subscriber, which never
        got a frame, must see no phantom before the crash and no duplicate
        when the stamped commit is replayed (dedup hit, no re-publish).
        """
        engine = fresh_engine(tmp_path)
        oracle = faultkit.SubscriptionOracle(engine)
        txn = grow("Zed")
        faults.arm(FP_FEED_PUBLISH, "crash", times=1)
        with pytest.raises(faults.SimulatedCrash):
            engine.commit(txn, txn_id="crash-1")
        assert not oracle.frames, "phantom frame published before a crash"
        faults.reset()

        recovered = faultkit.recover(tmp_path / "db")
        try:
            assert recovered.query("Unemp(Zed)"), "durable commit lost"
            oracle2 = faultkit.SubscriptionOracle(recovered)
            replay = recovered.commit(txn, txn_id="crash-1")
            assert replay.applied  # the recorded outcome, via dedup
            oracle2.drain()
            assert oracle2.deltas == 0, "dedup replay re-published a frame"
            oracle2.check()
            faultkit.check_derived_oracle(recovered)
        finally:
            recovered.close()

    def test_dropped_frame_gap_resync(self, tmp_path):
        """FP drop loses one pushed frame; the client resyncs over the gap."""
        engine = fresh_engine(tmp_path)
        with ServerThread(engine) as port:
            received: list[dict] = []
            done = threading.Event()
            client = ResilientClient(port=port, seed=3)

            def consume():
                for frame in client.subscribe("Unemp", frame_timeout=10):
                    received.append(frame)
                    if len(received) >= 3:
                        break
                done.set()

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            with DatabaseClient(port=port) as writer:
                deadline = time.monotonic() + 10
                while not engine.feed.active:  # wait for the subscribe
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                writer.commit("insert La(Zed), insert U_benefit(Zed)")
                while not received:  # first frame through, seq=1
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                faults.arm(FP_FEED_FRAME, "drop", times=1)
                writer.commit("insert La(Ann), insert U_benefit(Ann)")
                writer.commit("insert La(Bob), insert U_benefit(Bob)")
                assert done.wait(timeout=10), f"stream stalled: {received}"
            client.close()
            assert received[0]["kind"] == "delta"
            assert [f["kind"] for f in received[1:3]] == ["resync", "delta"]
            assert received[1]["reason"] == "gap"
            assert client.counters.get("feed.gaps") == 1

    def test_torn_frame_reconnect_resubscribe(self, tmp_path):
        """A torn frame kills the stream; the resilient client re-subscribes."""
        engine = fresh_engine(tmp_path)
        with ServerThread(engine) as port:
            received: list[dict] = []
            done = threading.Event()
            client = ResilientClient(port=port, seed=5, timeout=10.0)

            def consume():
                seen_resync = False
                for frame in client.subscribe("Unemp", frame_timeout=10):
                    received.append(frame)
                    seen_resync = seen_resync or frame["kind"] == "resync"
                    if seen_resync and frame["kind"] == "delta":
                        break
                done.set()

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            with DatabaseClient(port=port) as writer:
                deadline = time.monotonic() + 10
                while not engine.feed.active:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                faults.arm(FP_FEED_FRAME, "torn", times=1)
                writer.commit("insert La(Ann), insert U_benefit(Ann)")
                # The subscriber's connection died mid-frame (its frame is
                # lost); it must come back on a fresh connection with a new
                # engine-side subscription before we publish again.
                while engine.metrics.counter("feed.subscribed") < 2:
                    assert time.monotonic() < deadline, "never re-subscribed"
                    time.sleep(0.02)
                writer.commit("insert La(Bob), insert U_benefit(Bob)")
                assert done.wait(timeout=15), f"stream stalled: {received}"
            client.close()
            kinds = [f["kind"] for f in received]
            assert "resync" in kinds, f"no resync after a torn frame: {kinds}"
            last = [f for f in received if f["kind"] == "delta"][-1]
            assert last["inserted"] == {"Unemp": [["Bob"]]}


# ---------------------------------------------------------------------------
# wire semantics: push, ordering, isolation, overflow


class TestWireFeed:
    def test_oracle_over_the_wire(self, tmp_path):
        """The socket stream satisfies the same differential oracle."""
        engine = fresh_engine(tmp_path)
        with ServerThread(engine) as port:
            with DatabaseClient(port=port) as sub, \
                    DatabaseClient(port=port) as writer:
                oracle = faultkit.SubscriptionOracle(
                    engine, {"Unemp": 1}, subscribe=False)
                info = sub.subscribe("Unemp")
                seqs = []
                for person in ("Ann", "Bob", "Cal"):
                    writer.commit(f"insert La({person}), "
                                  f"insert U_benefit({person})")
                    pushed = sub.next_frame(timeout=10)
                    assert pushed["feed"] == info["subscription_id"]
                    seqs.append(pushed["seq"])
                    oracle.observe(pushed["frame"])
                    oracle.check()
                assert seqs == [1, 2, 3], "per-subscription seq not monotone"

    def test_unsubscribe_stops_frames_and_session_survives(self, tmp_path):
        engine = fresh_engine(tmp_path)
        with ServerThread(engine) as port:
            with DatabaseClient(port=port) as sub, \
                    DatabaseClient(port=port) as writer:
                info = sub.subscribe("Unemp")
                writer.commit("insert La(Ann), insert U_benefit(Ann)")
                assert sub.next_frame(timeout=10)["seq"] == 1
                sub.unsubscribe(info["subscription_id"])
                writer.commit("insert La(Bob), insert U_benefit(Bob)")
                assert sub.ping()  # request path still fine, no stray push
                assert sub.pending_frames == 0
                assert engine.feed.active == 0

    def test_session_close_cleans_up_subscriptions(self, tmp_path):
        engine = fresh_engine(tmp_path)
        with ServerThread(engine) as port:
            client = DatabaseClient(port=port)
            client.subscribe("Unemp")
            assert engine.feed.active == 1
            client.close()
            deadline = time.monotonic() + 10
            while engine.feed.active and time.monotonic() < deadline:
                time.sleep(0.02)
            assert engine.feed.active == 0

    def test_stalled_subscriber_never_delays_acks(self, tmp_path):
        """Commits ack at full speed while a subscriber reads nothing."""
        engine = fresh_engine(tmp_path)
        with ServerThread(engine, max_inflight=8) as port:
            stalled = DatabaseClient(port=port)
            stalled.subscribe("Unemp")
            with DatabaseClient(port=port) as writer:
                start = time.monotonic()
                for step in range(40):  # far beyond the queue budget
                    outcome = writer.commit(
                        f"insert La(Q{step}), insert U_benefit(Q{step})")
                    assert outcome["applied"]
                elapsed = time.monotonic() - start
            # Bound generously: the point is no per-frame stall, not speed.
            assert elapsed < 20, "commits throttled by a dead subscriber"
            stalled.close()

    def test_subscribe_validates_before_streaming(self, tmp_path):
        engine = fresh_engine(tmp_path)
        with ServerThread(engine) as port:
            with DatabaseClient(port=port) as client:
                for bad in ("La", "Nope", "Unemp(x, y)"):
                    with pytest.raises(ServerError) as err:
                        client.subscribe(bad)
                    assert err.value.type == "subscription"
                with pytest.raises(ServerError) as err:
                    client.unsubscribe("sub-404")
                assert err.value.type == "subscription"
                assert client.ping()  # session survives every rejection


class TestOverflow:
    def test_overflow_drops_subscriber_with_typed_close(self, tmp_path):
        """Queue past capacity: typed close, engine-side cleanup, reusable
        channel -- and the enqueue path never blocks the committer."""
        engine = fresh_engine(tmp_path)
        server = server_mod.DatabaseServer(engine, max_inflight=3)

        class StallWriter:
            def __init__(self):
                self.lines: list[bytes] = []
                self.gate = asyncio.Event()

            def write(self, data: bytes) -> None:
                self.lines.append(data)

            async def drain(self) -> None:
                await self.gate.wait()

            def close(self) -> None:
                pass

        async def scenario():
            import json

            writer = StallWriter()
            channel = server_mod._FeedChannel(server, writer)
            channel.subscribe(["Unemp"])
            assert channel.capacity == 3
            # Frame 1 is popped by the drain task and stalls in drain();
            # frames 2..4 fill the queue; frame 5 trips the overflow.
            for step in range(5):
                await asyncio.to_thread(
                    engine.commit,
                    parse_transaction(f"insert La(O{step}), "
                                      f"insert U_benefit(O{step})"))
                await asyncio.sleep(0.05)  # let the drain task run
            assert channel.queue_depth() == 0  # cleared on overflow
            writer.gate.set()  # un-stall the socket
            deadline = time.monotonic() + 10
            while channel.subs and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            assert not channel.subs, "overflowed subscriber not dropped"
            assert engine.feed.active == 0
            final = json.loads(writer.lines[-1])
            assert final["frame"]["kind"] == "closed"
            assert final["frame"]["error_type"] == "feed_overflow"
            # The channel is reusable: the same session may re-subscribe.
            channel.subscribe(["Unemp"])
            assert engine.feed.active == 1
            channel.close()
            assert engine.feed.active == 0

        try:
            asyncio.run(scenario())
            assert engine.metrics.counter("feed.overflow") >= 1
            assert engine.metrics.counter("feed.dropped_subscribers") == 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# shard group: merged frames across a 2PC commit


class TestGroupFeed:
    @staticmethod
    def cross_shard_pairs(group):
        """Two fresh names per shard: ((a0, a1), (b0, b1)) by shard index."""
        routing = group._routing
        byshard: dict[int, list[str]] = {}
        for index in range(1000):
            name = f"X{index}"
            shard = routing.shard_of("La", (name,))
            byshard.setdefault(shard, []).append(name)
            if all(len(byshard.get(s, ())) >= 2
                   for s in range(routing.n_shards)):
                return tuple(byshard[s][0] for s in range(2)), \
                    tuple(byshard[s][1] for s in range(2))
        raise AssertionError("hash never covered both shards")

    def test_two_shard_commit_one_merged_frame(self, tmp_path):
        from repro.shard.group import EngineGroup

        initial = employment_database(n_people=4, seed=2)
        group = EngineGroup.open(tmp_path / "grp", initial=initial, shards=2)
        try:
            oracle = faultkit.SubscriptionOracle(group, {"Unemp": 1})
            (a, b), (c, d) = self.cross_shard_pairs(group)
            outcome = group.commit(parse_transaction(
                f"insert La({a}), insert U_benefit({a}), "
                f"insert La({b}), insert U_benefit({b})"))
            assert outcome.applied
            oracle.drain()
            assert oracle.deltas == 1, (
                "a 2PC commit must yield exactly one merged frame")
            oracle.check()
            assert {(a,), (b,)} <= oracle.shadow["Unemp"]

            # An atomically vetoed cross-shard commit yields no frame:
            # unemployment without benefit violates Ic1 on both shards.
            vetoed = group.commit(parse_transaction(
                f"insert La({c}), insert La({d})"))
            assert not vetoed.applied
            oracle.drain()
            assert oracle.deltas == 1, "an aborted 2PC commit leaked a frame"
            oracle.check()
            group.feed_unsubscribe(oracle.info["subscription_id"])
        finally:
            group.close()
