"""The StateMaintainer strategies and the one the engine serves.

Covers the engine always serving counting (recursive programs included,
nothing configurable), protocol conformance of both maintainers -- the
served one and the invalidate oracle -- against the naive oracle, and the
serving engine's counting behaviour (verdicts, ``ivm.*`` counters, resets,
stats/health surfacing, checkpoints and the serial commit path keeping
their counts and feed deltas).
"""

from __future__ import annotations

import pytest

from repro.datalog.database import DeductiveDatabase
from repro.datalog.terms import Constant
from repro.core.processor import UpdateProcessor
from repro.events.events import Transaction, delete, insert, parse_transaction
from repro.interpretations import naive_changes
from repro.interpretations.maintainers import (
    CountingMaintainer,
    InvalidatingMaintainer,
    StateMaintainer,
)
from repro.server.engine import DatabaseEngine
from repro.workloads import employment_database, random_transaction

from tests import faultkit

ALL_MODES = faultkit.MAINTAINERS


def make_maintainer(name: str, processor: UpdateProcessor):
    return faultkit.MAINTAINER_CLASSES[name](processor)


def small_db() -> DeductiveDatabase:
    return DeductiveDatabase.from_source("""
        Q(A). Q(B). R(B).
        P(x) <- Q(x).
        V(x) <- Q(x) & not R(x).
    """)


class TestSelection:
    @pytest.mark.parametrize("initial", [
        employment_database(5, seed=1),
        faultkit.transitive_closure_database(),
        DeductiveDatabase.from_source("Q(A)."),
    ], ids=["non-recursive", "recursive", "no-views"])
    def test_every_program_serves_counting(self, tmp_path, initial):
        engine = DatabaseEngine.open(tmp_path / "d", initial=initial)
        try:
            assert engine.stats()["engine"]["maintainer"] == "counting"
            assert isinstance(engine.maintainer, CountingMaintainer)
            assert engine.metrics.counter("ivm.bootstrap") == 1
        finally:
            engine.close()

    def test_names_are_the_reported_spellings(self):
        assert [cls.name for cls in (InvalidatingMaintainer,
                                     CountingMaintainer)] \
            == ["invalidate", "counting"]

    def test_engine_takes_no_maintainer_or_engine_knob(self, tmp_path):
        from repro.shard import EngineGroup

        for knob in ({"cache_mode": "counting"},
                     {"eval_engine": "interpreted"}):
            with pytest.raises(TypeError):
                DatabaseEngine.open(tmp_path / "d", **knob)
            with pytest.raises(TypeError):
                EngineGroup.open(tmp_path / "g", shards=2, **knob)


class TestProtocolConformance:
    """apply/extension/reset/bootstrap behave alike across strategies."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_apply_matches_oracle_and_moves_the_database(self, mode):
        db = small_db()
        maintainer = make_maintainer(mode, UpdateProcessor(db))
        transaction = Transaction([delete("Q", "A"), insert("Q", "C")])
        expected = naive_changes(db, transaction)
        result = maintainer.apply(transaction)
        assert result.insertions == expected.insertions
        assert result.deletions == expected.deletions
        assert not db.has_fact("Q", "A") and db.has_fact("Q", "C")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_extension_reflects_applied_state(self, mode):
        db = small_db()
        maintainer = make_maintainer(mode, UpdateProcessor(db))
        maintainer.apply(Transaction([insert("R", "A")]))
        extension = {tuple(c.value for c in row)
                     for row in maintainer.extension("V")}
        assert extension == set()  # both A and B are now in R
        assert {tuple(c.value for c in row)
                for row in maintainer.extension("P")} == {("A",), ("B",)}

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_reset_then_reuse(self, mode):
        db = small_db()
        maintainer = make_maintainer(mode, UpdateProcessor(db))
        maintainer.apply(Transaction([delete("Q", "B")]))
        maintainer.reset()
        assert {tuple(c.value for c in row)
                for row in maintainer.extension("P")} == {("A",)}

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_apply_sequence_matches_oracle(self, mode):
        db = employment_database(15, seed=23)
        maintainer = make_maintainer(mode, UpdateProcessor(db))
        for seed in range(6):
            transaction = random_transaction(db, n_events=2, seed=seed)
            expected = naive_changes(db, transaction)
            result = maintainer.apply(transaction)
            assert result.insertions == expected.insertions, f"seed {seed}"
            assert result.deletions == expected.deletions, f"seed {seed}"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_recursive_apply_sequence_matches_oracle(self, mode):
        db = faultkit.transitive_closure_database(n_nodes=8, n_edges=10)
        maintainer = make_maintainer(mode, UpdateProcessor(db))
        for seed in range(8):
            transaction = random_transaction(db, n_events=2, seed=seed)
            expected = naive_changes(db, transaction)
            result = maintainer.apply(transaction)
            assert result.insertions == expected.insertions, f"seed {seed}"
            assert result.deletions == expected.deletions, f"seed {seed}"
        assert maintainer.extension("Path") == \
            UpdateProcessor(db).extension("Path")

    def test_bootstrap_rejects_foreign_database(self):
        maintainer = make_maintainer("counting",
                                       UpdateProcessor(small_db()))
        with pytest.raises(ValueError):
            maintainer.bootstrap(small_db())

    def test_counting_bootstrap_materialises_counts(self):
        maintainer = make_maintainer("counting",
                                       UpdateProcessor(small_db()))
        assert not maintainer.active
        maintainer.bootstrap()
        assert maintainer.active
        maintainer.reset()
        assert not maintainer.active

    def test_on_event_observes_bootstrap(self):
        events = []
        maintainer = make_maintainer("counting",
                                       UpdateProcessor(small_db()))
        maintainer.on_event = lambda kind, amount: events.append(kind)
        maintainer.bootstrap()
        assert events == ["bootstrap", "delta_rules"]

    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            StateMaintainer(UpdateProcessor(small_db()))


def fresh_engine(tmp_path, **kwargs) -> DatabaseEngine:
    initial = employment_database(n_people=12, seed=7)
    for index in range(12):
        initial.add_fact("U_benefit", f"P{index}")
    return DatabaseEngine.open(tmp_path / "db", initial=initial, **kwargs)


class TestEngineCountingMode:
    def test_stats_and_health_surface_the_maintainer(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            assert engine.stats()["engine"]["maintainer"] == "counting"
            assert "cache_mode" not in engine.stats()["engine"]
            assert engine.health()["cache"]["maintainer"] == "counting"
            assert isinstance(engine.maintainer, CountingMaintainer)
        finally:
            engine.close()

    def test_delta_rules_counter_set_at_bootstrap(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            assert engine.metrics.counter("ivm.delta_rules") \
                == engine.maintainer.counting_engine().n_delta_rules > 0
            assert engine.metrics.counter("ivm.bootstrap") == 1
        finally:
            engine.close()

    def test_commits_maintain_without_invalidation(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            for person in idle[:3]:
                outcome = engine.commit(Transaction(
                    parse_transaction(f"insert Works({person})")))
                assert outcome.applied and outcome.check.ok
            assert engine.stats()["engine"]["cache_epoch"] == 0
            assert engine.metrics.counter("cache.invalidate") == 0
            faultkit_oracle(engine)
        finally:
            engine.close()

    def test_rejection_verdict_matches_interpreter(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            # Deleting the benefit of an unemployed person violates Ic1.
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            bad = Transaction(
                parse_transaction(f"delete U_benefit({idle[0]})"))
            counting_verdict = engine.maintainer.check(bad)
            interpreter_verdict = engine.processor.check(bad)
            assert counting_verdict.ok == interpreter_verdict.ok is False
            assert counting_verdict.violations \
                == interpreter_verdict.violations
            outcome = engine.commit(bad)
            assert not outcome.applied
            faultkit_oracle(engine)
        finally:
            engine.close()

    def test_checkpoint_keeps_counts(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            oracle = faultkit.SubscriptionOracle(engine)
            engine.checkpoint()
            assert engine.maintainer.active  # no reset
            for person in idle_people(engine)[:2]:
                outcome = engine.commit(Transaction(
                    parse_transaction(f"insert Works({person})")))
                assert outcome.applied
            engine.checkpoint()
            assert engine.metrics.counter("ivm.bootstrap") == 1
            oracle.drain()
            assert oracle.resyncs == 0
            oracle.check()
            faultkit_oracle(engine)
        finally:
            engine.close()

    def test_recursive_commits_keep_counts(self, tmp_path):
        engine = DatabaseEngine.open(
            tmp_path / "rec", initial=faultkit.transitive_closure_database())
        try:
            oracle = faultkit.SubscriptionOracle(engine)
            edges = sorted(engine.db.facts_of("Edge"), key=str)
            source, target = (constant.value for constant in edges[0])
            # Closing a cycle is rejected by the acyclicity constraint.
            assert not engine.commit(Transaction(
                [insert("Edge", target, source)])).applied
            assert engine.commit(Transaction(
                [insert("Edge", "N0", "Fresh")])).applied
            assert engine.commit(Transaction(
                [delete("Edge", source, target)])).applied
            assert engine.metrics.counter("ivm.bootstrap") == 1
            oracle.drain()
            assert oracle.resyncs == 0
            oracle.check()
            faultkit_oracle(engine)
        finally:
            engine.close()


def idle_people(engine: DatabaseEngine) -> list[str]:
    working = {r[0].value for r in engine.db.facts_of("Works")}
    return sorted(p for p in (f"P{i}" for i in range(12))
                  if p not in working)


class TestSerialPathKeepsCounts:
    """Every commit path advances the counting maintainer: no re-bootstrap,
    and the change feed gets one delta frame per applied commit."""

    @staticmethod
    def assert_counts_kept(engine: DatabaseEngine,
                           oracle: faultkit.SubscriptionOracle) -> None:
        assert engine.stats()["engine"]["maintainer"] == "counting"
        assert engine.maintainer.active
        assert engine.metrics.counter("ivm.bootstrap") == 1
        assert engine.metrics.counter("cache.invalidate") == 0
        oracle.drain()
        assert oracle.resyncs == 0, "serial path fell back to a resync"
        oracle.check()
        faultkit_oracle(engine)

    def test_mixed_batch(self, tmp_path):
        engine = fresh_engine(tmp_path, max_batch=8)
        try:
            oracle = faultkit.SubscriptionOracle(engine)
            idle = idle_people(engine)
            batch = [
                Transaction(parse_transaction(f"insert Works({idle[0]})")),
                # Unemployed without a benefit: rejected, so the batch
                # takes the serial path.
                Transaction(parse_transaction("insert La(Nobody)")),
                Transaction(parse_transaction(
                    "insert La(Newcomer), insert U_benefit(Newcomer)")),
            ]
            outcomes = engine.commit_many(batch)
            assert [o.applied for o in outcomes] == [True, False, True]
            assert engine.metrics.counter("commit.group_committed") == 0
            oracle.drain()
            assert oracle.deltas == 2  # one frame per applied member
            self.assert_counts_kept(engine, oracle)
            assert engine.commit(Transaction(parse_transaction(
                "insert Works(Newcomer)"))).applied
            self.assert_counts_kept(engine, oracle)
        finally:
            engine.close()

    def test_maintain_policy_commit(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            oracle = faultkit.SubscriptionOracle(engine)
            outcome = engine.commit(
                Transaction(parse_transaction("insert La(Nobody)")),
                on_violation="maintain")
            assert outcome.applied and outcome.repairs.events
            oracle.drain()
            assert oracle.deltas == 1
            self.assert_counts_kept(engine, oracle)
        finally:
            engine.close()

    def test_unchecked_commit(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            oracle = faultkit.SubscriptionOracle(engine)
            # "ignore" skips the check on the serial path and leaves the
            # state inconsistent; the next reject-policy commit then runs
            # unchecked on the group path.
            assert engine.commit(
                Transaction(parse_transaction("insert La(Nobody)")),
                on_violation="ignore").applied
            outcome = engine.commit(
                Transaction(parse_transaction("insert La(Noone)")))
            assert outcome.applied and outcome.check is None
            assert engine.metrics.counter("commit.unchecked") == 1
            oracle.drain()
            assert oracle.deltas == 2
            self.assert_counts_kept(engine, oracle)
        finally:
            engine.close()


def faultkit_oracle(engine: DatabaseEngine) -> None:
    """Counting extensions vs a fresh naive rebuild of the live state."""
    oracle = DeductiveDatabase.from_source(str(engine.db))
    schema = engine.db.schema
    for predicate in sorted(schema.derived):
        arity = schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        goal = f"{predicate}({variables})" if arity else predicate
        answers = {tuple(row) for row in oracle.query(goal)}
        extension = {tuple(constant.value for constant in row)
                     for row in engine.maintainer.extension(predicate)}
        assert extension == answers, (
            f"maintained {predicate} diverges from the oracle")
        assert {tuple(row) for row in engine.query(goal)} == answers


class TestEngineBatchCounting:
    def test_group_commit_batches_stay_consistent(self, tmp_path):
        engine = fresh_engine(tmp_path, max_batch=8)
        try:
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            transactions = [
                Transaction(parse_transaction(f"insert Works({person})"))
                for person in idle[:4]
            ]
            results = engine.commit_many(transactions, raise_errors=True)
            assert all(outcome.applied for outcome in results)
            faultkit_oracle(engine)
        finally:
            engine.close()
