"""Unit tests for the DeductiveDatabase container."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.database import GLOBAL_IC, Relation
from repro.datalog.errors import ArityError, SafetyError
from repro.datalog.parser import parse_rule
from repro.datalog.terms import Constant, Variable


class TestRelation:
    def test_add_discard(self):
        relation = Relation("P", 1)
        row = (Constant("A"),)
        assert relation.add(row)
        assert not relation.add(row)
        assert row in relation
        assert relation.discard(row)
        assert not relation.discard(row)

    def test_arity_enforced(self):
        relation = Relation("P", 2)
        with pytest.raises(ArityError):
            relation.add((Constant("A"),))

    def test_lookup_uses_bound_columns(self):
        relation = Relation("P", 2)
        relation.add((Constant("A"), Constant("B")))
        relation.add((Constant("A"), Constant("C")))
        relation.add((Constant("D"), Constant("B")))
        hits = set(relation.lookup((Constant("A"), Variable("y"))))
        assert hits == {(Constant("A"), Constant("B")),
                        (Constant("A"), Constant("C"))}

    def test_lookup_all_variables_scans(self):
        relation = Relation("P", 1)
        relation.add((Constant("A"),))
        assert set(relation.lookup((Variable("x"),))) == {(Constant("A"),)}

    def test_lookup_multi_bound(self):
        relation = Relation("P", 2)
        relation.add((Constant("A"), Constant("B")))
        assert set(relation.lookup((Constant("A"), Constant("B")))) == \
            {(Constant("A"), Constant("B"))}
        assert set(relation.lookup((Constant("A"), Constant("Z")))) == set()

    def test_index_invalidation_on_mutation(self):
        relation = Relation("P", 1)
        relation.add((Constant("A"),))
        list(relation.lookup((Constant("A"),)))  # build the index
        relation.add((Constant("B"),))
        assert set(relation.lookup((Constant("B"),))) == {(Constant("B"),)}


class TestFacts:
    def test_add_and_query(self):
        db = DeductiveDatabase()
        assert db.add_fact("Q", "A")
        assert not db.add_fact("Q", "A")
        assert db.has_fact("Q", "A")
        assert db.facts_of("Q") == {(Constant("A"),)}

    def test_remove(self):
        db = DeductiveDatabase()
        db.add_fact("Q", "A")
        assert db.remove_fact("Q", "A")
        assert not db.remove_fact("Q", "A")
        assert not db.has_fact("Q", "A")

    def test_variable_argument_rejected(self):
        db = DeductiveDatabase()
        with pytest.raises(SafetyError):
            db.add_fact("Q", Variable("x"))

    def test_fact_count_and_iter(self):
        db = DeductiveDatabase()
        db.add_fact("Q", "A")
        db.add_fact("R", "B", "C")
        assert db.fact_count() == 2
        assert set(db.iter_facts()) == {
            ("Q", (Constant("A"),)),
            ("R", (Constant("B"), Constant("C"))),
        }

    def test_fact_on_derived_predicate_rejected(self):
        db = DeductiveDatabase.from_source("P(x) <- Q(x). Q(A).")
        with pytest.raises(SafetyError):
            db.add_fact("P", "B")
            db.schema  # revalidation triggers the check at the latest


class TestRules:
    def test_add_rule_routes_facts(self):
        db = DeductiveDatabase()
        db.add_rule(parse_rule("Q(A)."))
        assert db.has_fact("Q", "A")
        assert not db.rules

    def test_add_rule_routes_constraints(self):
        db = DeductiveDatabase()
        db.add_rule(parse_rule("Ic1(x) <- Q(x)."))
        assert len(db.constraints) == 1

    def test_constraint_head_validated(self):
        db = DeductiveDatabase()
        with pytest.raises(SafetyError):
            db.add_constraint(parse_rule("P(x) <- Q(x)."))

    def test_remove_rule(self):
        db = DeductiveDatabase()
        r = parse_rule("P(x) <- Q(x).")
        db.add_rule(r)
        assert db.remove_rule(r)
        assert not db.remove_rule(r)

    def test_rules_defining(self):
        db = DeductiveDatabase.from_source(
            "P(x) <- Q(x). P(x) <- R(x). S(x) <- Q(x). Q(A)."
        )
        assert len(db.rules_defining("P")) == 2

    def test_global_ic_rules(self):
        db = DeductiveDatabase.from_source(
            "Ic1 <- P(x). Ic2 <- Q(x). P(x) <- Q(x). Q(A)."
        )
        rules = db.rules_with_global_ic()
        global_rules = [r for r in rules if r.head.predicate == GLOBAL_IC]
        assert len(global_rules) == 2


class TestSchema:
    def test_partition(self):
        db = DeductiveDatabase.from_source("P(x) <- Q(x). Q(A).")
        assert db.schema.is_derived("P")
        assert db.schema.is_base("Q")
        assert db.schema.arity("P") == 1

    def test_unknown_predicate(self):
        from repro.datalog.errors import UnknownPredicateError

        db = DeductiveDatabase()
        with pytest.raises(UnknownPredicateError):
            db.schema.arity("Nope")

    def test_declare_base(self):
        db = DeductiveDatabase()
        db.declare_base("Works", 1)
        assert db.schema.is_base("Works")
        assert db.schema.arity("Works") == 1

    def test_declare_base_arity_conflict(self):
        db = DeductiveDatabase()
        db.declare_base("Works", 1)
        with pytest.raises(ArityError):
            db.declare_base("Works", 2)

    def test_schema_recomputed_after_rule_change(self):
        db = DeductiveDatabase()
        db.add_fact("Q", "A")
        assert db.schema.is_base("Q")
        db.add_rule(parse_rule("P(x) <- Q(x)."))
        assert db.schema.is_derived("P")


class TestCopyAndDomain:
    def test_copy_is_independent(self):
        db = DeductiveDatabase.from_source("Q(A).")
        clone = db.copy()
        clone.add_fact("Q", "B")
        assert not db.has_fact("Q", "B")
        assert clone.has_fact("Q", "A")

    def test_active_domain(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x) & not R(B).")
        assert db.active_domain() == {Constant("A"), Constant("B")}

    def test_generation_moves_with_effective_changes_only(self):
        db = DeductiveDatabase.from_source("Q(A).")
        start = db.generation
        db.add_fact("Q", "A")  # already there
        db.remove_fact("Q", "B")  # never there
        assert db.generation == start
        db.add_fact("Q", "B")
        db.remove_fact("Q", "B")
        db.add_rule(parse_rule("P(x) <- Q(x)."))
        assert db.generation == start + 3

    def test_str_round_trips(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x). Ic1 <- P(x).")
        again = DeductiveDatabase.from_source(str(db))
        assert again.has_fact("Q", "A")
        assert len(again.rules) == 1
        assert len(again.constraints) == 1
