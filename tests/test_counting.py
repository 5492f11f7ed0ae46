"""Tests for the counting-based change computation engine ([GMS93])."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.terms import Constant
from repro.events.events import Transaction, delete, insert
from repro.interpretations import naive_changes
from repro.interpretations.counting import CountingEngine
from repro.workloads import employment_database, random_transaction


def rows(*names):
    return frozenset(
        tuple(Constant(p) for p in (n if isinstance(n, tuple) else (n,)))
        for n in names
    )


class TestInitialization:
    def test_counts_match_derivations(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        engine = CountingEngine(db)
        assert engine.count("P", (Constant("A"),)) == 2
        assert engine.extension("P") == rows("A")

    def test_join_derivations_counted_per_binding(self):
        db = DeductiveDatabase.from_source("""
            E(A, B). E(A, C).
            Reaches(x) <- E(x, y).
        """)
        engine = CountingEngine(db)
        # Two bindings of y support Reaches(A).
        assert engine.count("Reaches", (Constant("A"),)) == 2

    def test_recursive_component_materialised_with_unit_counts(self):
        db = DeductiveDatabase.from_source("""
            Edge(A, B). Edge(B, C).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
        """)
        engine = CountingEngine(db)
        assert engine.extension("Path") == {
            (Constant("A"), Constant("B")), (Constant("B"), Constant("C")),
            (Constant("A"), Constant("C"))}
        # Recomputed, not counted: no delta rules, one count per row.
        assert engine.n_delta_rules == 0
        assert engine.count("Path", (Constant("A"), Constant("C"))) == 1


class TestZeroCrossings:
    def test_duplicate_support_prevents_deletion(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([delete("Q", "A")]))
        assert result.deletions == {}  # count 2 -> 1, no zero-crossing
        assert engine.count("P", (Constant("A"),)) == 1
        result = engine.apply(Transaction([delete("R", "A")]))
        assert result.deletions_of("P") == rows("A")
        assert engine.count("P", (Constant("A"),)) == 0

    def test_insertion_crossing(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x) & S(x).")
        db.declare_base("S", 1)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([insert("S", "A")]))
        assert result.insertions_of("P") == rows("A")

    def test_negative_literal_deltas(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). R(B).
            P(x) <- Q(x) & not R(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([delete("R", "B")]))
        assert result.insertions_of("P") == rows("B")
        result = engine.apply(Transaction([insert("R", "A")]))
        assert result.deletions_of("P") == rows("A")

    def test_cascading_levels(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A).
            P(x) <- Q(x).
            W(x) <- P(x) & S(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([delete("Q", "A")]))
        assert result.deletions_of("P") == rows("A")
        assert result.deletions_of("W") == rows("A")


class TestAgainstOracle:
    def test_transaction_sequence_agrees_with_oracle(self):
        db = employment_database(40, seed=31)
        engine = CountingEngine(db)
        for seed in range(12):
            # The oracle sees the database *before* the engine applies.
            transaction = random_transaction(db, n_events=3, seed=seed)
            expected = naive_changes(db, transaction)
            result = engine.apply(transaction)
            assert result.insertions == expected.insertions, f"seed {seed}"
            assert result.deletions == expected.deletions, f"seed {seed}"

    def test_extensions_stay_in_sync(self):
        from repro.datalog.evaluation import BottomUpEvaluator

        db = employment_database(30, seed=5)
        engine = CountingEngine(db)
        for seed in range(8):
            engine.apply(random_transaction(db, n_events=2, seed=100 + seed))
        evaluator = BottomUpEvaluator(db, db.rules_with_global_ic())
        assert engine.extension("Unemp") == evaluator.extension("Unemp")

    def test_with_builtins(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B).
            Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).
        """)
        engine = CountingEngine(db)
        expected = naive_changes(db, Transaction([insert("Q", "C")]))
        result = engine.apply(Transaction([insert("Q", "C")]))
        assert result.insertions == expected.insertions

    def test_same_event_multiple_positions(self):
        # One event hits two positions of the same rule body: the
        # telescoping decomposition must not double-count.
        db = DeductiveDatabase.from_source("E(A, A). Self(x) <- E(x, y) & E(y, x).")
        engine = CountingEngine(db)
        expected = naive_changes(db, Transaction([insert("E", "B", "B")]))
        result = engine.apply(Transaction([insert("E", "B", "B")]))
        assert result.insertions == expected.insertions
        assert engine.count("Self", (Constant("B"),)) == 1


class TestTwoPhase:
    """The staged delta()/advance() split used by the serving engine."""

    def test_delta_leaves_state_untouched(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x).")
        engine = CountingEngine(db)
        result, staged = engine.delta(Transaction([delete("Q", "A")]))
        assert result.deletions_of("P") == rows("A")
        # Nothing moved: neither the database nor the counts.
        assert db.has_fact("Q", "A")
        assert engine.extension("P") == rows("A")
        assert engine.count("P", (Constant("A"),)) == 1

    def test_advance_after_manual_apply(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x).")
        engine = CountingEngine(db)
        result, staged = engine.delta(Transaction([delete("Q", "A")]))
        for event in result.transaction:
            db.remove_fact(event.predicate, *event.args)
        engine.advance(staged)
        assert engine.extension("P") == frozenset()
        assert engine.count("P", (Constant("A"),)) == 0

    def test_double_advance_is_rejected(self):
        from repro.datalog.errors import SafetyError

        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x).")
        engine = CountingEngine(db)
        result, staged = engine.delta(Transaction([delete("Q", "A")]))
        db.remove_fact("Q", "A")
        engine.advance(staged)
        with pytest.raises(SafetyError):
            engine.advance(staged)  # stale: would drive the count negative

    def test_apply_is_delta_plus_advance(self):
        db = employment_database(20, seed=11)
        twin = db.copy()
        engine = CountingEngine(db)
        twin_engine = CountingEngine(twin)
        transaction = random_transaction(db, n_events=3, seed=2)
        result, staged = engine.delta(transaction)
        applied = engine.apply(transaction)
        assert applied.insertions == result.insertions
        assert applied.deletions == result.deletions
        one_shot = twin_engine.apply(transaction)
        assert one_shot.insertions == applied.insertions
        assert one_shot.deletions == applied.deletions


class TestDeltaRules:
    def test_delta_rules_compiled_per_body_position(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x) & R(x).
        """)
        engine = CountingEngine(db)
        # One delta rule per non-builtin body literal.
        assert engine.n_delta_rules == 2

    def test_builtin_positions_are_rigid(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B).
            Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).
        """)
        engine = CountingEngine(db)
        assert engine.n_delta_rules == 2  # Neq is never a delta position

    def test_delete_both_supports_in_one_transaction(self):
        # Refcount regression: the same tuple derived through two rules,
        # both supports removed by a single transaction -> exactly one
        # deletion event, count exactly zero (not negative).
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(
            Transaction([delete("Q", "A"), delete("R", "A")]))
        assert result.deletions_of("P") == rows("A")
        assert engine.count("P", (Constant("A"),)) == 0
        assert engine.extension("P") == frozenset()


class TestNegationBoundary:
    def test_boundary_is_negation_over_derived(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A). R(A).
            V(x) <- Q(x).
            P(x) <- S(x) & not V(x).
            W(x) <- S(x) & not R(x).
        """)
        engine = CountingEngine(db)
        # P negates the derived V; W only negates the base R.
        assert engine.negation_boundary == frozenset({"P"})

    def test_rederive_heals_stale_counts_across_boundary(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A). S(B).
            V(x) <- Q(x).
            P(x) <- S(x) & not V(x).
        """)
        healed = []
        engine = CountingEngine(db, on_rederive=healed.append)
        assert engine.extension("P") == rows("B")
        # Corrupt the counts behind the engine's back: the next decrement
        # breaches the invariant, and P (a negation boundary) must heal
        # by DRed-style rederivation instead of raising.
        engine._counts["P"].clear()
        result = engine.apply(Transaction([delete("S", "B")]))
        assert result.deletions_of("P") == rows("B")
        assert engine.extension("P") == frozenset()
        assert engine.rederive_count == 1
        assert healed == ["P"]

    def test_breach_off_boundary_raises(self):
        from repro.datalog.errors import SafetyError

        db = DeductiveDatabase.from_source("Q(A). W(x) <- Q(x).")
        engine = CountingEngine(db)
        engine._counts["W"].clear()  # corrupt: no rederive escape for W
        with pytest.raises(SafetyError):
            engine.apply(Transaction([delete("Q", "A")]))

    def test_recursive_sequence_agrees_with_oracle(self):
        db = DeductiveDatabase.from_source("""
            Edge(A, B). Edge(B, C). Node(A). Node(B). Node(C). Node(D).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
            Cut(x) <- Node(x) & not Path(A, x).
            Loop(x) <- Path(x, x).
        """)
        engine = CountingEngine(db)
        steps = [
            Transaction([insert("Edge", "C", "D")]),
            Transaction([delete("Edge", "B", "C")]),
            Transaction([insert("Edge", "D", "A"), insert("Edge", "B", "C")]),
            Transaction([delete("Edge", "A", "B"), insert("Node", "E")]),
        ]
        for step, transaction in enumerate(steps):
            expected = naive_changes(db, transaction)
            result = engine.apply(transaction)
            assert result.insertions == expected.insertions, f"step {step}"
            assert result.deletions == expected.deletions, f"step {step}"
        assert engine.rederive_count == 0

    def test_mutually_recursive_component_agrees_with_oracle(self):
        db = DeductiveDatabase.from_source("""
            Edge(A, B). Edge(B, C). Edge(C, D). Start(A).
            Even(x) <- Start(x).
            Even(y) <- Odd(x) & Edge(x, y).
            Odd(y) <- Even(x) & Edge(x, y).
            Both(x) <- Even(x) & Odd(x).
        """)
        engine = CountingEngine(db)
        steps = [
            Transaction([insert("Edge", "D", "A")]),
            Transaction([delete("Edge", "B", "C"), insert("Start", "C")]),
            Transaction([delete("Start", "A")]),
        ]
        for step, transaction in enumerate(steps):
            expected = naive_changes(db, transaction)
            result = engine.apply(transaction)
            assert result.insertions == expected.insertions, f"step {step}"
            assert result.deletions == expected.deletions, f"step {step}"

    def test_recursive_component_skipped_without_input_events(self):
        db = DeductiveDatabase.from_source("""
            Edge(A, B). Node(A).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
            Cut(x) <- Node(x) & not Path(A, x).
        """)
        engine = CountingEngine(db)
        result, staged = engine.delta(Transaction([insert("Node", "C")]))
        assert "Path" not in staged
        assert result.insertions == {"Cut": frozenset({(Constant("C"),)})}
        _, staged = engine.delta(Transaction([insert("Edge", "A", "C")]))
        assert "Path" in staged

    def test_stratified_negation_sequence_agrees_with_oracle(self):
        db = DeductiveDatabase.from_source("""
            B(A). B(C). S(A). S(C). S(D).
            V(x) <- B(x).
            P(x) <- S(x) & not V(x).
            W(x) <- P(x) & S(x).
        """)
        engine = CountingEngine(db)
        steps = [
            Transaction([delete("B", "A")]),
            Transaction([insert("B", "D")]),
            Transaction([insert("S", "E"), delete("S", "C")]),
            Transaction([delete("B", "D"), insert("B", "A")]),
        ]
        for step, transaction in enumerate(steps):
            expected = naive_changes(db, transaction)
            result = engine.apply(transaction)
            assert result.insertions == expected.insertions, f"step {step}"
            assert result.deletions == expected.deletions, f"step {step}"
        assert engine.rederive_count == 0  # exact counting, no healing
