"""Cache lifecycle tests: one copy of derived state.

The engine's counting maintainer advances its derived extensions on every
commit (the paper's view-maintenance reading of the event rules, Section
5.1.3), and the update processor's upward and downward interpreters read
those very extensions as their old state instead of materialising and
patching a copy of their own.  These tests pin down the lifecycle: what-ifs
interleaved with commits never rematerialise, a checkpoint keeps the state,
the invalidate oracle rebuilds every round, and readers can never observe a
partially advanced state.
"""

import logging
import threading

import pytest

from repro.datalog import DeductiveDatabase
from repro.events.events import Transaction, insert, parse_transaction
from repro.events.requests import parse_request
from repro.interpretations import UpwardInterpreter
from repro.server.engine import DatabaseEngine
from repro.workloads import employment_database

from tests import faultkit


@pytest.fixture
def engine(tmp_path, employment_db):
    engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
    yield engine
    engine.close(checkpoint=False)


def fresh_extension(db, predicate: str):
    """Oracle: the predicate's extension via a from-scratch interpreter."""
    return UpwardInterpreter(db).old_extension(predicate)


def assert_one_copy(engine: DatabaseEngine) -> None:
    """The processor reads the counting engine's live map, and nothing
    ever materialised or invalidated a copy of its own."""
    counters = engine.stats()["counters"]
    assert counters.get("cache.rematerialize", 0) == 0
    assert counters.get("cache.invalidate", 0) == 0
    assert engine.stats()["engine"]["cache_epoch"] == 0
    view = engine.processor._old_state()
    assert view._derived is engine.maintainer.counting_engine().extensions


class TestMaintainers:
    def test_whatifs_read_the_maintained_state(self, tmp_path):
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=employment_database(30, seed=3))
        try:
            for i in range(5):
                engine.commit(parse_transaction(
                    f"insert La(N{i}); insert U_benefit(N{i})"))
                assert engine.check(
                    parse_transaction(f"delete U_benefit(N{i})")).ok is False
                induced = engine.upward(
                    parse_transaction(f"insert Works(N{i})"))
                assert induced.deletions_of("Unemp")
                result = engine.downward([parse_request(f"del Unemp(N{i})")])
                assert result.translations
            assert engine.stats()["engine"]["maintainer"] == "counting"
            assert_one_copy(engine)
            # ... and the state it kept serving is the true one.
            assert engine.processor.extension("Unemp") == \
                fresh_extension(engine.db, "Unemp")
        finally:
            engine.close(checkpoint=False)

    def test_invalidate_mode_rematerializes_each_round(self, tmp_path,
                                                       monkeypatch):
        faultkit.force_maintainer(monkeypatch, "invalidate")
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=employment_database(30, seed=3))
        try:
            engine.check(parse_transaction("insert Works(Probe)"))
            for i in range(5):
                engine.commit(parse_transaction(
                    f"insert La(N{i}); insert U_benefit(N{i})"))
                engine.check(parse_transaction(f"insert Works(N{i})"))
            counters = engine.stats()["counters"]
            assert counters["cache.invalidate"] == 5
            assert counters["cache.rematerialize"] == 6
            assert engine.stats()["engine"]["cache_epoch"] == 5
        finally:
            engine.close(checkpoint=False)

    def test_commits_without_constraints(self, tmp_path):
        """With no constraints the commit check never runs, but the
        maintainer still interprets the commit and the what-ifs see it."""
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). R(B).
            P(x) <- Q(x) & not R(x).
        """)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        try:
            engine.upward(parse_transaction("insert Q(Z)"))
            engine.commit(parse_transaction("insert Q(C)"))
            assert engine.upward(parse_transaction("insert R(C)")) \
                .deletions_of("P")
            assert_one_copy(engine)
            assert engine.processor.extension("P") == \
                fresh_extension(engine.db, "P")
        finally:
            engine.close(checkpoint=False)

    def test_checkpoint_keeps_state(self, engine):
        engine.check(parse_transaction("insert Works(Maria)"))
        engine.commit(parse_transaction("insert La(Pere)"))
        engine.checkpoint()
        assert engine.maintainer.active
        assert engine.metrics.counter("ivm.bootstrap") == 1
        engine.commit(parse_transaction("insert Works(Pere)"))
        assert engine.check(parse_transaction("delete Works(Pere)")).ok
        assert_one_copy(engine)
        assert engine.processor.extension("Unemp") == \
            fresh_extension(engine.db, "Unemp")

    def test_slow_path_keeps_shared_state(self, engine):
        """Non-reject policies take the serial path, which advances the
        maintainer with each member's induced events."""
        engine.check(parse_transaction("insert Works(Maria)"))
        engine.commit(parse_transaction("insert La(Pere)"),
                      on_violation="maintain")
        assert_one_copy(engine)
        assert engine.processor.extension("Unemp") == \
            fresh_extension(engine.db, "Unemp")


class TestSharedStateMatchesRematerialize:
    """Maintained and from-scratch extensions agree on example programs."""

    CASES = {
        "stratified-negation": (
            """
            La(Dolors). La(Joan). Works(Joan). U_benefit(Dolors).
            Unemp(x) <- La(x) & not Works(x).
            Ic1 <- Unemp(x) & not U_benefit(x).
            """,
            "insert Works(Dolors)",
            ("insert La(Mar); insert U_benefit(Mar)",
             "insert Works(Joan2)",
             "insert La(Nil); insert U_benefit(Nil); insert Works(Nil)"),
        ),
        "two-level-views": (
            """
            Q(A). Q(B). R(B). S(A).
            P(x) <- Q(x) & not R(x).
            T(x) <- P(x) & S(x).
            """,
            "insert Q(Z)",
            ("insert Q(C); insert S(C)",
             "insert R(A)",
             "insert Q(D)"),
        ),
        "recursive-closure": (
            """
            Edge(A, B). Edge(B, C). Node(A). Node(B). Node(C). Node(D).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
            Alone(x) <- Node(x) & not Path(A, x).
            """,
            "insert Edge(C, D)",
            ("insert Edge(C, D)",
             "delete Edge(A, B)",
             "insert Edge(D, A); insert Edge(A, B)"),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_extensions_match(self, tmp_path, name):
        source, warmup, commits = self.CASES[name]
        db = DeductiveDatabase.from_source(source)
        derived = sorted(db.schema.derived)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        try:
            engine.upward(parse_transaction(warmup))
            for commit in commits:
                engine.commit(parse_transaction(commit))
            assert_one_copy(engine)
            for predicate in derived:
                assert engine.processor.extension(predicate) == \
                    fresh_extension(engine.db, predicate), predicate
        finally:
            engine.close(checkpoint=False)


class TestUncheckedCommits:
    def test_unchecked_commit_counts_and_warns(self, engine, caplog):
        # Drive the state inconsistent past the checker ("ignore" takes
        # the slow path and skips the check entirely).
        engine.commit(parse_transaction("insert La(Pere)"),
                      on_violation="ignore")
        assert engine.metrics.counter("commit.unchecked") == 0
        # Now a reject-policy commit finds Ic already true: StateError
        # inside the fast path -> committed unchecked, loudly.
        with caplog.at_level(logging.WARNING, logger="repro.server.engine"):
            outcome = engine.commit(parse_transaction("insert La(Jordi)"))
        assert outcome.applied and outcome.check is None
        assert engine.metrics.counter("commit.unchecked") == 1
        warning = "\n".join(r.getMessage() for r in caplog.records
                            if r.levelno == logging.WARNING)
        assert "UNCHECKED" in warning
        assert "Ic1" in warning

    def test_consistent_commits_are_not_counted(self, engine):
        engine.commit(parse_transaction("insert Works(Maria)"))
        assert engine.metrics.counter("commit.unchecked") == 0


class TestConcurrentReaders:
    def test_readers_never_observe_partial_advance(self, tmp_path):
        """Checks racing group commits always see a consistent snapshot.

        Readers repeatedly check a probe transaction whose verdict depends
        on derived state; writers commit facts that flip that state.  A
        reader that catches the cache mid-advance would see a verdict that
        matches *neither* the pre- nor the post-commit database.
        """
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=employment_database(20, seed=11))
        failures: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                try:
                    verdict = engine.check(
                        Transaction([insert("La", "Probe")]))
                except Exception as error:  # noqa: BLE001 - fail the test
                    failures.append(f"check raised: {error!r}")
                    return
                # "insert La(Probe)" makes Probe unemployed without
                # benefit: always a violation, whatever the writers do.
                if verdict.ok:
                    failures.append("check lost the Ic1 violation")
                    return

        def writer(offset: int) -> None:
            for i in range(10):
                name = f"W{offset}_{i}"
                engine.commit(Transaction([
                    insert("La", name), insert("U_benefit", name)]))

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer, args=(o,))
                   for o in range(3)]
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join()
            stop.set()
            for thread in readers:
                thread.join()
            assert not failures, failures
            # After the dust settles the shared state equals a fresh one.
            assert_one_copy(engine)
            assert engine.processor.extension("Unemp") == \
                fresh_extension(engine.db, "Unemp")
        finally:
            engine.close(checkpoint=False)
