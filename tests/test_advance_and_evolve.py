"""Tests for UpwardInterpreter.advance and UpdateProcessor.evolve."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import ComplexityLimitExceeded
from repro.datalog.parser import parse_rule
from repro.datalog.terms import Constant
from repro.events.events import Transaction, delete, insert
from repro.core import UpdateProcessor
from repro.interpretations import (
    DownwardInterpreter,
    DownwardOptions,
    UpwardInterpreter,
    naive_changes,
    want_delete,
)


class TestAdvance:
    def test_advance_tracks_state_across_transactions(self, pqr_db):
        interpreter = UpwardInterpreter(pqr_db)
        first = Transaction([delete("R", "B")])
        result = interpreter.interpret(first)
        # Commit and advance.
        for event in result.transaction:
            pqr_db.remove_fact(event.predicate, *event.args)
        interpreter.advance(result)
        assert interpreter.old_extension("P") == {
            (Constant("A"),), (Constant("B"),)}
        # A second transaction is interpreted against the advanced state.
        second = Transaction([insert("R", "A")])
        result2 = interpreter.interpret(second)
        oracle = naive_changes(pqr_db, second)
        assert result2.deletions == oracle.deletions

    def test_long_transaction_chain_matches_fresh_interpreter(self):
        from repro.workloads import employment_database, random_transaction

        db = employment_database(25, seed=77)
        interpreter = UpwardInterpreter(db)
        for seed in range(10):
            if not db.base_predicates_with_facts():
                break
            transaction = random_transaction(db, n_events=2, seed=seed)
            result = interpreter.interpret(transaction)
            for event in result.transaction:
                if event.is_insertion:
                    db.add_fact(event.predicate, *event.args)
                else:
                    db.remove_fact(event.predicate, *event.args)
            interpreter.advance(result)
        fresh = UpwardInterpreter(db)
        assert interpreter.old_extension("Unemp") == \
            fresh.old_extension("Unemp")

    def test_advance_from_filtered_result_raises(self, employment_db):
        """A result restricted to some predicates cannot patch them all."""
        interpreter = UpwardInterpreter(employment_db)
        transaction = Transaction([insert("Works", "Maria")])
        partial = interpreter.interpret(transaction, predicates=["Ic1"])
        employment_db.add_fact("Works", "Maria")
        with pytest.raises(ValueError, match="partial UpwardResult"):
            interpreter.advance(partial)

    def test_advance_from_unknown_coverage_raises(self, employment_db):
        """Hand-built results carry no coverage and must be rejected."""
        from repro.interpretations import UpwardResult

        interpreter = UpwardInterpreter(employment_db)
        interpreter.old_extension("Unemp")  # warm the cache
        with pytest.raises(ValueError, match="unknown coverage"):
            interpreter.advance(UpwardResult({}, {}, Transaction()))

    def test_advance_on_cold_interpreter_stays_cold(self, employment_db):
        """Advancing before any materialisation must not materialise.

        A cold advance used to build the old state from the *already
        updated* database and then apply the deltas on top of it -- i.e.
        apply them twice.
        """
        interpreter = UpwardInterpreter(employment_db)
        transaction = Transaction([insert("Works", "Maria")])
        result = interpreter.interpret(transaction)
        # interpret() warms the cache, so simulate a fresh process instead.
        cold = UpwardInterpreter(employment_db)
        assert not cold.has_cached_state
        employment_db.add_fact("Works", "Maria")
        cold.advance(result)
        assert not cold.has_cached_state
        assert cold.old_extension("Unemp") == \
            UpwardInterpreter(employment_db).old_extension("Unemp")

    def test_advance_refuses_an_old_state_it_does_not_own(self,
                                                          employment_db):
        """An interpreter over someone else's state (the processor's, or a
        maintainer's live extensions) must not patch it."""
        from repro.interpretations.upward import OldStateView

        derived = {"Unemp": frozenset()}
        interpreter = UpwardInterpreter(
            employment_db, old_state=OldStateView(employment_db, derived))
        result = UpwardInterpreter(employment_db).interpret(
            Transaction([insert("Works", "Maria")]))
        with pytest.raises(ValueError, match="does not own"):
            interpreter.advance(result)
        assert derived == {"Unemp": frozenset()}

    def test_advanced_old_state_feeds_transition_rules(self):
        """Regression: the old-state *view* must track advanced extensions.

        With stacked views (V2 reads V1), transition rules for V2 consult
        V1's old extension.  After an advance() the view used to keep
        serving the frozen pre-advance snapshot, so later interpretations
        diverged from a fresh interpreter.
        """
        from repro.workloads import (
            chain_join_views,
            random_database,
            random_transaction,
        )

        db = random_database(n_facts=60, domain_size=8, n_base=3, seed=0)
        chain_join_views(db, n_views=2)
        interpreter = UpwardInterpreter(db)
        for round_ in range(5):
            transaction = random_transaction(db, n_events=3, seed=round_)
            result = interpreter.interpret(transaction)
            for event in result.transaction:
                if event.is_insertion:
                    db.add_fact(event.predicate, *event.args)
                else:
                    db.remove_fact(event.predicate, *event.args)
            interpreter.advance(result)
            probe = random_transaction(db, n_events=3, seed=round_ + 50)
            advanced = interpreter.interpret(probe)
            oracle = naive_changes(db, probe)
            assert advanced.insertions == oracle.insertions, round_
            assert advanced.deletions == oracle.deletions, round_


class TestEvolve:
    def test_evolve_rebuilds_the_counting_state(self, pqr_db):
        from repro.interpretations.maintainers import CountingMaintainer

        processor = UpdateProcessor(pqr_db)
        maintainer = CountingMaintainer(processor)
        before = maintainer.extension("P")
        processor.evolve(add_rules=[parse_rule("P(x) <- R(x).")])
        fresh = UpwardInterpreter(pqr_db)
        assert maintainer.extension("P") == fresh.old_extension("P") \
            != before
        assert processor.extension("P") == fresh.old_extension("P")

    def test_evolve_commits_rules(self, pqr_db):
        processor = UpdateProcessor(pqr_db)
        result = processor.evolve(add_rules=[parse_rule("P(x) <- R(x).")])
        assert result.induced.insertions_of("P") == \
            frozenset({(Constant("B"),)})
        # Committed: the live database now derives P(B).
        assert processor.db.query("P(B)") == [()]

    def test_evolve_removes_rules(self, pqr_db):
        processor = UpdateProcessor(pqr_db)
        (rule_,) = pqr_db.rules
        result = processor.evolve(remove_rules=[rule_])
        assert result.induced.deletions_of("P")
        assert processor.db.query("Q(A)") == [()]
        assert not processor.db.rules

    def test_evolve_constraint_then_check(self, employment_db):
        processor = UpdateProcessor(employment_db)
        processor.evolve(add_constraints=[
            parse_rule("Ic2(x) <- Works(x) & U_benefit(x).")])
        # New constraint is live: working + benefit now violates.
        verdict = processor.check(Transaction([
            insert("Works", "Dolors")]))
        assert not verdict.ok
        assert "Ic2" in verdict.violated_constraints()


class TestComplexityGuard:
    def test_max_disjuncts_raises(self):
        # Many independent violations make the global ¬new$Ic negation
        # combinatorial; a tiny bound trips immediately.
        source = ["Ic1(x) <- A(x) & not B(x)."]
        for index in range(12):
            source.append(f"A(C{index}).")
        db = DeductiveDatabase.from_source("\n".join(source))
        db.declare_base("B", 1)
        interpreter = DownwardInterpreter(
            db, options=DownwardOptions(max_disjuncts=10))
        from repro.datalog.database import GLOBAL_IC

        with pytest.raises(ComplexityLimitExceeded):
            interpreter.interpret(want_delete(GLOBAL_IC))
