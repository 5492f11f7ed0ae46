"""Cache lifecycle tests: delta-driven maintenance of warm derived state.

The engine's maintainers (counting, or advance for recursive programs) reuse the commit-time upward
interpretation (the paper's view-maintenance reading of the event rules,
Section 5.1.3) to patch the memoised derived extensions in place instead of
invalidating them.  These tests pin down the lifecycle: when the cache
advances, when it falls back to invalidation, and that readers can never
observe a partially advanced cache.
"""

import logging
import threading

import pytest

from repro.datalog import DeductiveDatabase
from repro.events.events import Transaction, insert, parse_transaction
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


class TestMaintainers:
    def test_advance_mode_keeps_cache_warm(self, tmp_path, monkeypatch):
        faultkit.force_maintainer(monkeypatch, "advance")
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=employment_database(30, seed=3))
        try:
            engine.check(parse_transaction("insert Works(Probe)"))  # warm up
            for i in range(5):
                engine.commit(parse_transaction(
                    f"insert La(N{i}); insert U_benefit(N{i})"))
                engine.check(parse_transaction(f"insert Works(N{i})"))
            stats = engine.stats()
            assert stats["engine"]["maintainer"] == "advance"
            # Commits patched the warm cache: no invalidations, epoch
            # untouched, exactly the initial materialisation.
            assert stats["engine"]["cache_epoch"] == 0
            counters = stats["counters"]
            assert counters["cache.advance"] == 5
            assert counters["cache.rematerialize"] == 1
            assert "cache.invalidate" not in counters
            # ... and the warm state it kept serving is the true one.
            assert engine._processor._upward.old_extension("Unemp") == \
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
            assert "cache.advance" not in counters
            assert engine.stats()["engine"]["cache_epoch"] == 5
        finally:
            engine.close(checkpoint=False)

    def test_advance_without_constraints(self, tmp_path):
        """With no constraints the commit check never runs, but a warm
        cache still advances via one incremental pass."""
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). R(B).
            P(x) <- Q(x) & not R(x).
        """)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        try:
            # query() uses a fresh evaluator; warm the interpreter cache
            # the way a reader of induced events would.
            engine.upward(parse_transaction("insert Q(Z)"))
            engine.commit(parse_transaction("insert Q(C)"))
            counters = engine.stats()["counters"]
            assert counters.get("cache.advance") == 1
            assert engine._processor._upward.old_extension("P") == \
                fresh_extension(engine.db, "P")
        finally:
            engine.close(checkpoint=False)

    def test_checkpoint_invalidates(self, engine):
        engine.check(parse_transaction("insert Works(Maria)"))
        engine.commit(parse_transaction("insert La(Pere)"))
        engine.checkpoint()
        counters = engine.stats()["counters"]
        assert counters.get("cache.invalidate", 0) >= 1
        assert engine.stats()["engine"]["cache_epoch"] >= 1

    def test_slow_path_advances(self, engine):
        """Non-reject policies take the serial path, which advances the
        warm caches with each member's induced events."""
        engine.check(parse_transaction("insert Works(Maria)"))
        engine.commit(parse_transaction("insert La(Pere)"),
                      on_violation="maintain")
        counters = engine.stats()["counters"]
        assert counters.get("cache.advance", 0) >= 1
        assert "cache.invalidate" not in counters
        assert engine._processor._upward.old_extension("Unemp") == \
            fresh_extension(engine.db, "Unemp")


class TestAdvanceMatchesRematerialize:
    """Advanced and from-scratch extensions agree on example programs."""

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
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_extensions_match(self, tmp_path, name):
        source, warmup, commits = self.CASES[name]
        db = DeductiveDatabase.from_source(source)
        derived = sorted(db.schema.derived)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        try:
            engine.upward(parse_transaction(warmup))  # warm the cache
            for commit in commits:
                engine.commit(parse_transaction(commit))
            counters = engine.stats()["counters"]
            assert counters.get("cache.advance", 0) >= 1
            warm = engine._processor._upward
            for predicate in derived:
                assert warm.old_extension(predicate) == \
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
            # After the dust settles the warm cache equals a fresh one.
            warm = engine._processor._upward
            assert warm is not None and warm.has_cached_state
            assert warm.old_extension("Unemp") == \
                fresh_extension(engine.db, "Unemp")
        finally:
            engine.close(checkpoint=False)
