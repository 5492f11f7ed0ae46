"""Unit tests for the downward interpretation."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import (
    DepthLimitExceeded,
    TransactionError,
)
from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Constant, Variable
from repro.events.events import Transaction, delete, insert
from repro.interpretations import (
    DownwardInterpreter,
    DownwardOptions,
    forbid_delete,
    forbid_insert,
    naive_changes,
    want_delete,
    want_insert,
)


class TestBaseEventRequests:
    def test_effective_base_insert_is_itself(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("Q", "Z"))
        assert result.transactions() == (Transaction([insert("Q", "Z")]),)

    def test_noop_base_insert_already_satisfied(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("Q", "A"))
        assert result.dnf.is_true
        assert result.already_satisfied

    def test_base_delete(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_delete("R", "B"))
        assert result.transactions() == (Transaction([delete("R", "B")]),)

    def test_impossible_delete_already_satisfied(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_delete("R", "Z"))
        assert result.dnf.is_true

    def test_non_event_request_rejected(self, pqr_db):
        with pytest.raises(TransactionError):
            DownwardInterpreter(pqr_db).interpret(
                Literal(Atom("Q", (Constant("A"),)), True))


class TestDerivedInsertion:
    def test_multiple_alternatives(self):
        db = DeductiveDatabase.from_source("""
            Q(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        db.declare_base("R", 1)
        result = DownwardInterpreter(db).interpret(want_insert("P", "B"))
        assert set(result.transactions()) == {
            Transaction([insert("Q", "B")]),
            Transaction([insert("R", "B")]),
        }

    def test_conjunction_requires_both(self):
        db = DeductiveDatabase.from_source("W(x) <- Q(x) & S(x). Q(A). S(B).")
        result = DownwardInterpreter(db).interpret(want_insert("W", "C"))
        assert set(result.transactions()) == {
            Transaction([insert("Q", "C"), insert("S", "C")]),
        }

    def test_partial_support_used(self):
        db = DeductiveDatabase.from_source("W(x) <- Q(x) & S(x). Q(A). S(B).")
        result = DownwardInterpreter(db).interpret(want_insert("W", "A"))
        # Q(A) already holds: only S(A) needs inserting.
        assert Transaction([insert("S", "A")]) in result.transactions()

    def test_two_level_descent(self):
        db = DeductiveDatabase.from_source("""
            Q(A).
            P(x) <- Q(x).
            W(x) <- P(x) & S(x).
        """)
        db.declare_base("S", 1)
        result = DownwardInterpreter(db).interpret(want_insert("W", "B"))
        assert Transaction([insert("Q", "B"), insert("S", "B")]) in \
            result.transactions()

    def test_already_satisfied_derived(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("P", "A"))
        assert result.dnf.is_true
        assert result.already_satisfied


class TestDerivedDeletion:
    def test_deletion_choices(self, pqr_db):
        # δP(A): delete Q(A) or insert R(A).
        result = DownwardInterpreter(pqr_db).interpret(want_delete("P", "A"))
        assert set(result.transactions()) == {
            Transaction([delete("Q", "A")]),
            Transaction([insert("R", "A")]),
        }

    def test_multi_rule_deletion_needs_all_supports_cut(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        result = DownwardInterpreter(db).interpret(want_delete("P", "A"))
        assert set(result.transactions()) == {
            Transaction([delete("Q", "A"), delete("R", "A")]),
        }


class TestNegativeRequests:
    def test_forbid_insert_vacuous_when_impossible(self, pqr_db):
        # P(A) already holds, so ιP(A) cannot occur: constraint vacuous.
        result = DownwardInterpreter(pqr_db).interpret(forbid_insert("P", "A"))
        assert result.dnf.is_true

    def test_forbid_insert_produces_requirements(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(forbid_insert("P", "B"))
        # ¬ιP(B) = ¬δR(B) (keeping R(B)) -- possibly with alternatives.
        assert result.is_satisfiable
        for translation in result.translations:
            assert delete("R", "B") in translation.constraints or \
                translation.transaction.events

    def test_forbid_delete(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(forbid_delete("P", "A"))
        assert result.is_satisfiable

    def test_universal_prevention(self, employment_db):
        x = Variable("x")
        request = Literal(Atom("ins$Unemp", (x,)), False)
        result = DownwardInterpreter(employment_db).interpret(
            [insert("La", "Maria"), request])
        assert len(result.translations) == 1
        assert insert("Works", "Maria") in result.translations[0].transaction


class TestRequestSets:
    def test_conjunction_of_requests(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(
            [want_insert("P", "B"), want_insert("Q", "Z")])
        (translation,) = result.translations
        assert translation.transaction == Transaction(
            [delete("R", "B"), insert("Q", "Z")])

    def test_unsatisfiable_conjunction(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(
            [want_insert("P", "B"), forbid_insert("P", "B")])
        assert not result.is_satisfiable

    def test_event_objects_accepted(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(delete("R", "B"))
        assert result.transactions() == (Transaction([delete("R", "B")]),)


class TestNonGroundRequests:
    def test_existential_insert(self, pqr_db):
        # ιP(x): any x with a translation; A is already satisfied... but
        # non-ground positives are existential, each witness an alternative.
        x = Variable("x")
        request = Literal(Atom("ins$P", (x,)), True)
        result = DownwardInterpreter(pqr_db).interpret(request)
        assert result.is_satisfiable
        assert Transaction([delete("R", "B")]) in result.transactions()

    def test_existential_delete_enumerates_stored_rows(self):
        db = DeductiveDatabase.from_source("Q(A). Q(B). P(x) <- Q(x).")
        x = Variable("x")
        request = Literal(Atom("del$P", (x,)), True)
        result = DownwardInterpreter(db).interpret(request)
        assert set(result.transactions()) >= {
            Transaction([delete("Q", "A")]),
            Transaction([delete("Q", "B")]),
        }


    def test_domain_follows_fact_changes(self, pqr_db):
        interpreter = DownwardInterpreter(pqr_db)
        assert Constant("Fresh") not in interpreter.domain()
        pqr_db.add_fact("Q", "Fresh")
        assert Constant("Fresh") in interpreter.domain()
        pqr_db.remove_fact("Q", "Fresh")
        assert Constant("Fresh") not in interpreter.domain()


class TestSoundness:
    """Every translation, upward-interpreted, satisfies the request."""

    @pytest.mark.parametrize("view,kind,args", [
        ("Unemp", "ins", ("Maria",)),
        ("Unemp", "del", ("Dolors",)),
        ("Ic1", "ins", ()),
    ])
    def test_translations_achieve_request(self, employment_db, view, kind, args):
        request = want_insert(view, *args) if kind == "ins" \
            else want_delete(view, *args)
        result = DownwardInterpreter(employment_db).interpret(request)
        assert result.translations
        row = tuple(Constant(a) for a in args)
        for translation in result.translations:
            induced = naive_changes(employment_db, translation.transaction)
            target = induced.insertions_of(view) if kind == "ins" \
                else induced.deletions_of(view)
            assert row in target


class TestLimits:
    def test_depth_limit_raises(self):
        db = DeductiveDatabase.from_source("""
            Edge(A,B).
            Path(x,y) <- Edge(x,y).
            Path(x,y) <- Edge(x,z) & Path(z,y).
        """)
        interpreter = DownwardInterpreter(
            db, options=DownwardOptions(max_depth=3))
        with pytest.raises(DepthLimitExceeded):
            interpreter.interpret(want_insert("Path", "A", "Z"))

    def test_depth_limit_prune(self):
        db = DeductiveDatabase.from_source("""
            Edge(A,B).
            Path(x,y) <- Edge(x,y).
            Path(x,y) <- Edge(x,z) & Path(z,y).
        """)
        interpreter = DownwardInterpreter(
            db, options=DownwardOptions(max_depth=6, on_depth_limit="prune"))
        result = interpreter.interpret(want_insert("Path", "A", "Z"))
        # Direct edge insertion survives within the bound.
        assert Transaction([insert("Edge", "A", "Z")]) in result.transactions()

    def test_extra_domain(self):
        db = DeductiveDatabase()
        db.declare_base("Q", 1)
        db.add_rule_source = None
        from repro.datalog.parser import parse_rule

        db.add_rule(parse_rule("P(x) <- Q(x)."))
        interpreter = DownwardInterpreter(
            db, options=DownwardOptions(extra_domain=frozenset({Constant("Z")})))
        x = Variable("x")
        result = interpreter.interpret(Literal(Atom("ins$P", (x,)), True))
        assert Transaction([insert("Q", "Z")]) in result.transactions()

    def test_stats_populated(self, employment_db):
        interpreter = DownwardInterpreter(employment_db)
        result = interpreter.interpret(want_delete("Unemp", "Dolors"))
        assert result.stats.descents >= 1
        assert result.stats.old_queries >= 1


class TestResultApi:
    def test_str_translations(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("P", "B"))
        assert "δR(B)" in str(result)

    def test_str_no_translation(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x) & R(x).")
        # R is underivable and has no facts; inserting P(Z) needs both.
        db.declare_base("R", 1)
        result = DownwardInterpreter(db).interpret(
            [want_insert("P", "Z"), forbid_insert("Q", "Z")])
        assert not result.is_satisfiable
        assert str(result) == "no translation"

    def test_respects_constraints(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("P", "B"))
        (translation,) = result.translations
        assert translation.respects_constraints(Transaction([delete("R", "B")]))
        assert not translation.respects_constraints(
            Transaction([delete("Q", "B")]))
