"""Integrity constraint checking (Section 5.1.1).

Given a consistent database state and a transaction of base-fact updates,
determine *incrementally* whether the transaction violates the integrity
constraints: **the upward interpretation of ``ιIc``, provided ``Ico`` does
not hold**.  If ``ιIc`` belongs to the result the transaction violates some
constraint and must be rejected (Example 5.1).

The dual problem -- does a transaction restore consistency of an
inconsistent database? -- is the upward interpretation of ``δIc`` provided
``Ico`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.datalog.database import GLOBAL_IC, DeductiveDatabase
from repro.datalog.terms import Constant
from repro.events.events import Transaction
from repro.interpretations.upward import UpwardInterpreter
from repro.problems.base import (
    Direction,
    PredicateSemantics,
    ProblemSpec,
    StateError,
    global_ic_holds,
    register_problem,
)

Row = tuple[Constant, ...]

register_problem(ProblemSpec(
    name="Integrity constraints checking",
    direction=Direction.UPWARD,
    event_form="ιP",
    semantics=PredicateSemantics.IC,
    section="5.1.1",
    summary="Does a transaction violate some integrity constraint?",
))
register_problem(ProblemSpec(
    name="Consistency restoration checking",
    direction=Direction.UPWARD,
    event_form="δP",
    semantics=PredicateSemantics.IC,
    section="5.1.1",
    summary="Does a transaction restore an inconsistent database?",
))


@dataclass
class ICCheckResult:
    """Outcome of an incremental integrity check."""

    #: True when the transaction keeps (or restores) consistency.
    ok: bool
    #: Violated constraint predicates with their witness rows
    #: (``IcN`` -> rows of induced ``ιIcN`` events).
    violations: dict[str, frozenset[Row]] = field(default_factory=dict)
    #: The (normalised) transaction that was checked.
    transaction: Transaction = field(default_factory=Transaction)

    def violated_constraints(self) -> tuple[str, ...]:
        """Names of the violated ``IcN`` predicates, sorted."""
        return tuple(sorted(self.violations))

    def to_dict(self) -> dict:
        """A JSON-ready representation (the ``check`` wire shape)."""
        from repro.serde import rows_to_lists

        return {
            "ok": self.ok,
            "violations": rows_to_lists(self.violations),
            "transaction": self.transaction.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ICCheckResult":
        """Inverse of :meth:`to_dict`."""
        from repro.serde import rows_from_lists

        return cls(
            ok=bool(payload.get("ok")),
            violations=rows_from_lists(payload.get("violations", {})),
            transaction=Transaction.from_dict(payload.get("transaction", [])),
        )

    def __str__(self) -> str:
        if self.ok:
            return "consistent"
        return "violates " + ", ".join(self.violated_constraints())


def is_consistent(db: DeductiveDatabase) -> bool:
    """Whether *db* currently satisfies all integrity constraints."""
    return not global_ic_holds(db)


def _constraint_predicates(db: DeductiveDatabase) -> list[str]:
    return sorted({r.head.predicate for r in db.constraints})


def check_transaction(db: DeductiveDatabase, transaction: Transaction,
                      interpreter: UpwardInterpreter | None = None) -> ICCheckResult:
    """Upward interpretation of ``ιIc``: reject transactions that violate IC.

    Requires a consistent current state (raises :class:`StateError`
    otherwise, per the paper's "provided that ``Ico`` does not hold").
    Passing a pre-built *interpreter* amortises old-state materialisation
    across many checks.
    """
    interpreter = interpreter or UpwardInterpreter(db)
    if interpreter.old_extension(GLOBAL_IC):
        raise StateError(
            "integrity checking requires a consistent state; the database "
            "already violates some constraint (Ic holds). Use "
            "repro.problems.repair to fix it first."
        )
    constraint_predicates = _constraint_predicates(db)
    watched = [GLOBAL_IC, *constraint_predicates]
    result = interpreter.interpret(transaction, predicates=watched)
    violated = {
        predicate: rows
        for predicate, rows in result.insertions.items()
        if predicate != GLOBAL_IC and rows
    }
    ic_inserted = bool(result.insertions_of(GLOBAL_IC))
    return ICCheckResult(
        ok=not ic_inserted,
        violations=violated,
        transaction=result.transaction,
    )


def current_violations(db: DeductiveDatabase,
                       interpreter: UpwardInterpreter | None = None
                       ) -> dict[str, frozenset[Row]]:
    """Constraint predicates violated by the *current* state, with witnesses.

    Reads the interpreter's memoised old state, so after a failed
    consistency precondition (:class:`StateError`) the witnesses come for
    free -- used by the server to name the violated constraint when it has
    to commit unchecked.
    """
    interpreter = interpreter or UpwardInterpreter(db)
    return {
        predicate: rows
        for predicate in _constraint_predicates(db)
        if (rows := interpreter.old_extension(predicate))
    }


def check_restores_consistency(db: DeductiveDatabase, transaction: Transaction,
                               interpreter: UpwardInterpreter | None = None
                               ) -> ICCheckResult:
    """Upward interpretation of ``δIc``: does the update restore consistency?

    Requires an inconsistent current state (``Ico`` holds).  ``ok`` is True
    when ``δIc`` belongs to the result, i.e. the transaction deletes the
    global inconsistency.
    """
    interpreter = interpreter or UpwardInterpreter(db)
    if not interpreter.old_extension(GLOBAL_IC):
        raise StateError(
            "restoration checking requires an inconsistent state "
            "(Ic must hold); the database is already consistent."
        )
    constraint_predicates = _constraint_predicates(db)
    watched = [GLOBAL_IC, *constraint_predicates]
    result = interpreter.interpret(transaction, predicates=watched)
    restored = bool(result.deletions_of(GLOBAL_IC))
    remaining = {
        predicate: rows
        for predicate, rows in result.insertions.items()
        if predicate != GLOBAL_IC and rows
    }
    return ICCheckResult(
        ok=restored,
        violations=remaining,
        transaction=result.transaction,
    )


def full_check(db: DeductiveDatabase) -> dict[str, frozenset[Row]]:
    """Non-incremental baseline: evaluate every ``IcN`` from scratch.

    Used by the SYN2 benchmark as the comparison point for
    :func:`check_transaction`.
    """
    from repro.datalog.evaluation import BottomUpEvaluator

    evaluator = BottomUpEvaluator(db, db.rules_with_global_ic())
    return {
        predicate: evaluator.extension(predicate)
        for predicate in _constraint_predicates(db)
        if evaluator.extension(predicate)
    }
