"""Unit tests for the UpdateProcessor façade."""

import pytest

from repro.datalog.errors import UnknownPredicateError
from repro.datalog.terms import Constant
from repro.events.events import Transaction, insert, parse_transaction
from repro.events.naming import EventKind
from repro.core import UpdateProcessor
from repro.interpretations import want_delete, want_insert


@pytest.fixture
def processor(employment_db):
    p = UpdateProcessor(employment_db)
    p.declare_view("Unemp")
    p.declare_condition("Unemp")  # a predicate may serve several roles
    return p


class TestDeclarations:
    def test_views_and_conditions(self, employment_db):
        p = UpdateProcessor(employment_db)
        p.declare_view("Unemp")
        assert p.views() == ("Unemp",)
        assert p.conditions() == ()

    def test_unknown_predicate_rejected(self, employment_db):
        p = UpdateProcessor(employment_db)
        with pytest.raises(UnknownPredicateError):
            p.declare_view("La")  # base, not derived


class TestRawInterpretations:
    def test_upward(self, processor):
        result = processor.upward(parse_transaction("{delete U_benefit(Dolors)}"))
        assert result.insertions_of("Ic1")

    def test_downward(self, processor):
        result = processor.downward(want_delete("Unemp", "Dolors"))
        assert len(result.translations) == 2

    def test_program_shared(self, processor):
        assert processor.program is processor.program

    def test_one_materialisation_serves_both_interpreters(self, processor):
        events = []
        processor.on_cache_event = events.append
        processor.upward(parse_transaction("{insert Works(Dolors)}"))
        processor.downward(want_delete("Unemp", "Dolors"))
        processor.check(parse_transaction("{insert La(Maria)}"))
        assert events == ["rematerialize"]
        processor.execute(Transaction([insert("Works", "X")]))
        processor.downward(want_delete("Unemp", "Dolors"))
        assert events == ["rematerialize", "invalidate", "rematerialize"]

    def test_attached_derived_state_is_read_not_materialised(
            self, employment_db):
        from repro.interpretations.counting import CountingEngine

        engine = CountingEngine(employment_db)
        processor = UpdateProcessor(employment_db)
        processor.use_derived_state(lambda: engine.extensions)
        events = []
        processor.on_cache_event = events.append
        assert processor.extension("Unemp") == engine.extension("Unemp")
        # The owner moves the state on; the processor sees it in place.
        engine.apply(Transaction([insert("La", "Maria")]))
        assert (Constant("Maria"),) in processor.extension("Unemp")
        result = processor.downward(want_delete("Unemp", "Maria"))
        assert result.is_satisfiable
        assert events == []


class TestUpwardProblems:
    def test_check(self, processor):
        assert processor.is_consistent()
        result = processor.check(parse_transaction("{delete U_benefit(Dolors)}"))
        assert not result.ok

    def test_check_restoration(self, employment_db):
        employment_db.remove_fact("U_benefit", "Dolors")
        p = UpdateProcessor(employment_db)
        result = p.check_restoration(
            Transaction([insert("U_benefit", "Dolors")]))
        assert result.ok

    def test_monitor_default_conditions(self, processor):
        changes = processor.monitor(Transaction([insert("La", "Maria")]))
        assert changes.activated["Unemp"] == {(Constant("Maria"),)}

    def test_maintenance_deltas_default_views(self, processor):
        deltas = processor.maintenance_deltas(
            Transaction([insert("La", "Maria")]))
        assert deltas.to_insert["Unemp"] == {(Constant("Maria"),)}


class TestDownwardProblems:
    def test_translate(self, processor):
        result = processor.translate(want_delete("Unemp", "Dolors"))
        assert result.is_satisfiable

    def test_translate_with_maintenance(self, processor):
        result = processor.translate(want_insert("Unemp", "Maria"),
                                     maintain_ic=True)
        # ιUnemp(Maria) requires ιLa(Maria) and, to keep Ic1 satisfied,
        # ιU_benefit(Maria).
        assert result.is_satisfiable
        for transaction in result.transactions():
            assert insert("U_benefit", "Maria") in transaction

    def test_validate_view(self, processor):
        processor.db.add_fact("Works", "Maria")
        processor.db.add_fact("La", "Maria")
        processor.refresh()
        assert processor.validate_view("Unemp").is_valid

    def test_prevent_side_effects(self, processor):
        result = processor.prevent_side_effects(
            Transaction([insert("La", "Maria")]), "Unemp")
        assert result.is_satisfiable

    def test_repair_and_satisfiability(self, employment_db):
        employment_db.remove_fact("U_benefit", "Dolors")
        p = UpdateProcessor(employment_db)
        assert p.repair().is_repairable
        assert p.constraints_satisfiable().satisfiable

    def test_can_reach_inconsistency(self, processor):
        assert processor.can_reach_inconsistency().satisfiable

    def test_maintain(self, processor):
        result = processor.maintain(
            parse_transaction("{delete U_benefit(Dolors)}"))
        assert result.is_satisfiable

    def test_enforce_and_prevent_condition(self, processor):
        enforced = processor.enforce_condition("Unemp", args=("Maria",))
        assert enforced.is_satisfiable
        prevented = processor.prevent_condition_activation(
            Transaction([insert("La", "Maria")]), "Unemp")
        assert prevented.is_satisfiable

    def test_validate_condition(self, processor):
        processor.db.add_fact("Works", "Maria")
        processor.db.add_fact("La", "Maria")
        processor.refresh()
        assert processor.validate_condition("Unemp",
                                            EventKind.INSERTION).is_valid


class TestExecute:
    def test_reject_policy(self, processor):
        result = processor.execute(
            parse_transaction("{delete U_benefit(Dolors)}"))
        assert not result.applied
        assert result.check is not None and not result.check.ok
        # database untouched
        assert processor.db.has_fact("U_benefit", "Dolors")

    def test_maintain_policy(self, processor):
        result = processor.execute(
            parse_transaction("{delete U_benefit(Dolors)}"),
            on_violation="maintain")
        assert result.applied
        assert result.repairs is not None and len(result.repairs) >= 1
        assert processor.is_consistent()
        assert not processor.db.has_fact("U_benefit", "Dolors")

    def test_ignore_policy(self, processor):
        result = processor.execute(
            parse_transaction("{delete U_benefit(Dolors)}"),
            on_violation="ignore")
        assert result.applied
        assert not processor.is_consistent()

    def test_benign_applies(self, processor):
        result = processor.execute(Transaction([insert("Works", "Maria")]))
        assert result.applied
        assert processor.db.has_fact("Works", "Maria")

    def test_unknown_policy(self, processor):
        with pytest.raises(ValueError):
            processor.execute(Transaction(), on_violation="what")

    def test_bool_protocol(self, processor):
        assert processor.execute(Transaction([insert("Works", "X")]))

    def test_interpreters_refresh_after_execute(self, processor):
        processor.execute(Transaction([insert("La", "Maria")]),
                          on_violation="ignore")
        # Maria is now unemployed in the *current* state.
        result = processor.downward(want_delete("Unemp", "Maria"))
        assert result.is_satisfiable
