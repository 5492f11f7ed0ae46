"""Tests for the asyncio TCP server and the blocking client.

Most tests host the server on a background thread inside this process; the
end-to-end test at the bottom drives the real ``repro serve`` command in a
subprocess and checks the full lifecycle the acceptance criteria describe:
serve, commit, check, monitor, stats, graceful shutdown, recovery.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.core.durable import DurableDatabase
from repro.server import DatabaseClient, DatabaseEngine, ServerError, ServerThread
from repro.server.server import FP_PRE_DISPATCH, FP_SEND_FRAME
from repro.workloads import employment_database

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def connect_with_deadline(port: int, deadline: float = 10.0,
                          **client_kwargs) -> DatabaseClient:
    """Connect, retrying refusals and capacity errors until *deadline*.

    Slow CI boxes free connection slots (and bind listening sockets) on
    their own schedule; retrying against a deadline instead of sleeping a
    fixed amount is what keeps these tests honest there.  Waiting runs on
    the fault clock, so tests can virtualise it.
    """
    end = faults.clock.monotonic() + deadline
    last: Exception | None = None
    while True:
        try:
            return DatabaseClient(port=port, **client_kwargs)
        except ServerError as error:
            if error.type != "overloaded":
                raise
            last = error
        except (ConnectionError, socket.timeout) as error:
            last = error
        if faults.clock.monotonic() >= end:
            raise AssertionError(
                f"could not connect to port {port} within {deadline}s"
            ) from last
        faults.clock.sleep(0.02)


@pytest.fixture
def engine(tmp_path, employment_db):
    return DatabaseEngine.open(tmp_path / "d", initial=employment_db)


@pytest.fixture
def server(engine):
    thread = ServerThread(engine)
    port = thread.start()
    yield port
    thread.stop()


class TestClientServer:
    def test_handshake_and_ping(self, server):
        with DatabaseClient(port=server) as client:
            assert client.server_info["version"] == 1
            assert client.ping()

    def test_commit_query_roundtrip(self, server):
        with DatabaseClient(port=server) as client:
            result = client.commit("insert Works(Maria), insert La(Maria)")
            assert result["applied"]
            assert client.query("Works(x)") == [["Maria"]]

    def test_transaction_object_accepted(self, server):
        from repro.events.events import Transaction, insert

        with DatabaseClient(port=server) as client:
            result = client.commit(Transaction([insert("Works", "Zoe")]))
            assert result["applied"]

    def test_check_monitor_translate(self, server):
        with DatabaseClient(port=server) as client:
            assert not client.check("delete U_benefit(Dolors)")["ok"]
            changes = client.monitor("insert Works(Dolors)", ["Unemp"])
            assert changes["deactivated"]["Unemp"] == [["Dolors"]]
            result = client.translate("del Unemp(Dolors)")
            assert result["satisfiable"]

    def test_server_error_carries_wire_type(self, server):
        with DatabaseClient(port=server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("commit", transaction="insert ((")
            assert excinfo.value.type == "parse"

    def test_session_survives_bad_requests(self, server):
        with DatabaseClient(port=server) as client:
            with pytest.raises(ServerError):
                client.call("no-such-op")
            assert client.ping()  # connection still usable

    def test_stats_count_requests(self, server):
        with DatabaseClient(port=server) as client:
            client.commit("insert Works(Maria)")
            client.query("Works(x)")
            stats = client.stats()
            assert stats["requests"]["commit"]["count"] >= 1
            assert stats["requests"]["query"]["count"] >= 1
            assert stats["counters"]["server.connections"] >= 1
            # Cache lifecycle state rides the same payload.
            assert stats["engine"]["maintainer"] == "counting"
            assert isinstance(stats["engine"]["cache_epoch"], int)

    def test_two_clients_interleave(self, server):
        with DatabaseClient(port=server) as one, \
                DatabaseClient(port=server) as two:
            one.commit("insert Works(A1)")
            two.commit("insert Works(A2)")
            assert one.query("Works(x)") == [["A1"], ["A2"]]
            assert two.query("Works(x)") == [["A1"], ["A2"]]

    def test_concurrent_clients_no_lost_updates(self, tmp_path):
        import threading

        engine = DatabaseEngine.open(
            tmp_path / "many", initial=employment_database(10, seed=2))
        errors: list[BaseException] = []
        with ServerThread(engine) as port:
            def worker(index: int) -> None:
                try:
                    with DatabaseClient(port=port) as client:
                        for j in range(5):
                            client.commit(f"insert Works(C{index}_{j})")
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            with DatabaseClient(port=port) as client:
                assert client.stats()["engine"]["log_length"] == 30


class TestBackpressureAndTimeouts:
    def test_capacity_refusal(self, tmp_path, employment_db):
        engine = DatabaseEngine.open(tmp_path / "cap", initial=employment_db)
        with ServerThread(engine, max_connections=1) as port:
            with DatabaseClient(port=port) as first:
                assert first.ping()
                with pytest.raises(ServerError) as excinfo:
                    DatabaseClient(port=port)
                assert excinfo.value.type == "overloaded"
                assert excinfo.value.retry_after is not None
                assert excinfo.value.retry_after > 0
                assert engine.metrics.counter("server.shed") >= 1
            # Slot freed: a new connection succeeds (the server releases
            # it asynchronously, so retry against a deadline).
            with connect_with_deadline(port) as again:
                assert again.ping()

    def test_request_timeout(self, tmp_path, employment_db):
        # A one-shot sleep on the dispatch failpoint makes the first
        # request deterministically slower than the server timeout -- no
        # monkeypatching, and the delay is bounded instead of flaky.
        faults.arm(FP_PRE_DISPATCH, "sleep", param=0.5, times=1)
        engine = DatabaseEngine.open(tmp_path / "slow", initial=employment_db)
        with ServerThread(engine, request_timeout=0.05) as port:
            with DatabaseClient(port=port, handshake=False) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query("Unemp(x)")
                assert excinfo.value.type == "timeout"


class TestSlowOpLog:
    def test_slow_ops_logged_and_counted(self, engine, caplog):
        import logging

        with ServerThread(engine, slow_op_threshold=0.0) as port:
            with caplog.at_level(logging.WARNING, logger="repro.server"):
                with DatabaseClient(port=port) as client:
                    client.query("Unemp(x)")
        assert engine.metrics.counter("server.slow_ops") >= 1
        messages = [r.getMessage() for r in caplog.records]
        assert any("slow op" in m and "query" in m for m in messages)

    def test_slow_op_log_includes_trace_when_enabled(self, engine, caplog):
        import logging

        from repro.obs import tracer as obs

        with obs.use():
            with ServerThread(engine, slow_op_threshold=0.0) as port:
                with caplog.at_level(logging.WARNING, logger="repro.server"):
                    with DatabaseClient(port=port, handshake=False) as client:
                        client.query("Unemp(x)")
        messages = [r.getMessage() for r in caplog.records]
        assert any("request.query" in m and "eval.materialize" in m
                   for m in messages)

    def test_fast_ops_not_logged_without_threshold(self, engine, caplog):
        import logging

        with ServerThread(engine) as port:
            with caplog.at_level(logging.WARNING, logger="repro.server"):
                with DatabaseClient(port=port) as client:
                    client.ping()
        assert engine.metrics.counter("server.slow_ops") == 0
        assert not [r for r in caplog.records if "slow op" in r.getMessage()]


class TestProtocolFaults:
    """The two protocol-layer failpoints: lost and torn response frames."""

    def test_dropped_ack_commit_still_durable(self, tmp_path, employment_db):
        """The classic crash-recovery trap: the commit is durable but the
        ack never reached the client.  Recovery must keep it."""
        directory = tmp_path / "d"
        engine = DatabaseEngine.open(directory, initial=employment_db)
        thread = ServerThread(engine, checkpoint_on_shutdown=False)
        port = thread.start()
        try:
            faults.arm(FP_SEND_FRAME, "drop", times=1)
            with DatabaseClient(port=port, handshake=False,
                                timeout=0.5) as client:
                with pytest.raises((TimeoutError, ConnectionError)):
                    client.commit("insert Works(Maria)")
        finally:
            thread.stop()
        recovered = DurableDatabase.open(directory)
        assert recovered.db.has_fact("Works", "Maria")

    def test_torn_frame_fails_the_client_not_the_server(self, tmp_path,
                                                        employment_db):
        from repro.server import protocol

        engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
        with ServerThread(engine) as port:
            faults.arm(FP_SEND_FRAME, "torn", param=0.5, times=1)
            with DatabaseClient(port=port, handshake=False,
                                timeout=5.0) as client:
                with pytest.raises((protocol.ProtocolError, ConnectionError,
                                    ValueError)):
                    client.ping()
            # The server keeps serving fresh connections.
            with connect_with_deadline(port) as again:
                assert again.ping()


class TestShutdown:
    def test_shutdown_request_checkpoints_and_recovers(self, tmp_path,
                                                       employment_db):
        directory = tmp_path / "d"
        engine = DatabaseEngine.open(directory, initial=employment_db)
        thread = ServerThread(engine)
        port = thread.start()
        with DatabaseClient(port=port) as client:
            client.commit("insert Works(Maria)")
            assert client.shutdown()["shutting_down"]
        thread.stop()
        # Engine was closed with a checkpoint: the WAL is folded in.
        recovered = DurableDatabase.open(directory)
        assert recovered.db.has_fact("Works", "Maria")
        assert recovered.log_length() == 0


@pytest.mark.slow
class TestServeCommandEndToEnd:
    """The scripted acceptance run: real process, real sockets."""

    @pytest.mark.parametrize("source, maintainer", [
        ("""
            La(Dolors). U_benefit(Dolors). Works(Pere). La(Pere).
            Unemp(x) <- La(x) & not Works(x).
            Ic1 <- Unemp(x) & not U_benefit(x).
         """, "counting"),
        ("""
            Edge(A, B). Edge(B, C).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
         """, "counting"),
    ], ids=["employment-counting", "transitive-closure-counting"])
    def test_serve_runs_counting_for_every_program(self, tmp_path, source,
                                                   maintainer):
        db_file = tmp_path / "db.dl"
        db_file.write_text(source)
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(tmp_path / "data"),
             "--init", str(db_file), "--port", "0",
             "--port-file", str(port_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 30
            while not (port_file.exists() and port_file.read_text().strip()):
                assert process.poll() is None, (
                    f"server died early:\n"
                    f"{process.stdout.read().decode(errors='replace')}")
                assert time.monotonic() < deadline, "no port file"
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            with connect_with_deadline(port, deadline=30.0) as client:
                assert client.stats()["engine"]["maintainer"] == maintainer
                assert client.health()["cache"]["maintainer"] == maintainer
                client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()

    def test_serve_commit_monitor_stats_shutdown_recover(self, tmp_path):
        db_file = tmp_path / "db.dl"
        db_file.write_text("""
            La(Dolors). U_benefit(Dolors). Works(Pere). La(Pere).
            Unemp(x) <- La(x) & not Works(x).
            Ic1 <- Unemp(x) & not U_benefit(x).
        """)
        data_dir = tmp_path / "data"
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(data_dir),
             "--init", str(db_file), "--port", "0",
             "--port-file", str(port_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                assert process.poll() is None, (
                    f"server died early:\n"
                    f"{process.stdout.read().decode(errors='replace')}")
                time.sleep(0.05)
            port = int(port_file.read_text().strip())

            # The port file appears when the socket is bound, but a slow
            # box may still be a beat away from accepting: retry.
            with connect_with_deadline(port, deadline=30.0) as client:
                assert client.commit(
                    "insert Works(Maria), insert La(Maria)")["applied"]
                assert client.check("delete U_benefit(Dolors)")["ok"] is False
                monitored = client.monitor("delete Works(Pere)", ["Unemp"])
                assert monitored["activated"]["Unemp"] == [["Pere"]]
                stats = client.stats()
                assert stats["requests"]["commit"]["count"] > 0
                assert stats["requests"]["monitor"]["count"] > 0
                client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()

        # Reopening the data directory recovers the committed state.
        recovered = DurableDatabase.open(data_dir)
        assert recovered.db.has_fact("Works", "Maria")
        assert recovered.db.has_fact("La", "Maria")
        # Maria was committed as employed, so only Dolors stays unemployed.
        assert recovered.db.query("Unemp(x)") == [("Dolors",)]
