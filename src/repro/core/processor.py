""":class:`UpdateProcessor` -- the uniform update-processing façade.

One object, one compiled transition program, every Section 5 problem as a
method.  This is the executable form of the paper's thesis that a unique
set of rules (the event rules) suffices "to provide general methods able to
deal with all these problems as a whole".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import UnknownPredicateError
from repro.datalog.evaluation import BottomUpEvaluator
from repro.datalog.rules import Literal
from repro.events.event_rules import EventCompiler, TransitionProgram
from repro.events.events import Event, Transaction
from repro.events.naming import EventKind
from repro.interpretations.downward import (
    DownwardInterpreter,
    DownwardOptions,
    DownwardResult,
)
from repro.interpretations.upward import (
    OldStateView,
    UpwardInterpreter,
    UpwardOptions,
    UpwardResult,
)
from repro.problems import (
    ConditionChanges,
    ICCheckResult,
    RepairResult,
    SatisfiabilityResult,
    ValidationResult,
    ViewDeltas,
    ViewUpdateResult,
)
from repro.problems import (
    can_reach_inconsistency,
    check_restores_consistency,
    check_transaction,
    condition_activation,
    constraints_satisfiable,
    current_violations,
    is_consistent,
    monitor_conditions,
    prevent_side_effects,
    repair_database,
    translate_view_update,
    validate_condition,
    validate_view,
    view_maintenance_deltas,
)
from repro.problems.base import PredicateSemantics
from repro.problems.ic_maintenance import maintain_transaction


@dataclass
class ExecutionResult:
    """Outcome of :meth:`UpdateProcessor.execute`."""

    applied: bool
    transaction: Transaction
    #: Populated when integrity checking ran.
    check: ICCheckResult | None = None
    #: Populated when maintenance extended the transaction.
    repairs: Transaction | None = None

    def __bool__(self) -> bool:
        return self.applied


class UpdateProcessor:
    """Uniform interface to every deductive-database updating problem.

    Parameters
    ----------
    db:
        the deductive database; the processor observes it and must be told
        about external mutations via :meth:`refresh`.
    simplify:
        compile the transition program with the [Oli91] simplifications.
    """

    def __init__(self, db: DeductiveDatabase, simplify: bool = True,
                 upward_options: UpwardOptions | None = None,
                 downward_options: DownwardOptions | None = None):
        self._db = db
        self._simplify = simplify
        self._upward_options = upward_options or UpwardOptions()
        self._downward_options = downward_options or DownwardOptions()
        self._semantics: dict[str, set[PredicateSemantics]] = {}
        self._program: TransitionProgram | None = None
        self._upward: UpwardInterpreter | None = None
        self._downward: DownwardInterpreter | None = None
        self._old_view: OldStateView | None = None
        self._derived_state: Callable[[], Mapping] | None = None
        #: Optional observer called with ``"invalidate"`` /
        #: ``"rematerialize"`` on every state-cache lifecycle event; the
        #: serving engine hooks this into its metrics registry.
        self.on_cache_event: Callable[[str], None] | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def db(self) -> DeductiveDatabase:
        """The underlying deductive database."""
        return self._db

    @property
    def program(self) -> TransitionProgram:
        """The compiled transition program (compiled lazily)."""
        if self._program is None:
            self._program = EventCompiler(simplify=self._simplify).compile(self._db)
        return self._program

    def refresh(self) -> None:
        """Recompile after the database (facts or rules) changed."""
        self._program = None
        self.invalidate_state_caches()

    def invalidate_state_caches(self) -> None:
        """Drop interpreter caches after an external fact-level mutation.

        Cheaper than :meth:`refresh`: the compiled transition program
        depends only on the rules and survives.  Callers that mutate the
        database's facts directly must call this; rule changes still
        require :meth:`refresh`.
        """
        warm = self._old_view is not None
        self._upward = None
        self._downward = None
        self._old_view = None
        if warm:
            self._cache_event("invalidate")

    def use_derived_state(self, source: Callable[[], Mapping]) -> None:
        """Read old-state derived extensions from *source* instead of
        materialising them.

        *source* returns a live ``predicate -> rows`` map of every derived
        predicate that its owner (a
        :class:`~repro.interpretations.maintainers.CountingMaintainer`)
        keeps current across commits.  It is called again after every
        :meth:`invalidate_state_caches`, so an owner that rebuilds its
        state resets the processor and hands out the new map.
        """
        self._derived_state = source
        self.invalidate_state_caches()

    def _cache_event(self, kind: str) -> None:
        if self.on_cache_event is not None:
            self.on_cache_event(kind)

    def _old_state(self) -> OldStateView:
        """The old state both interpreters read: base facts from the
        database, derived extensions from the attached source or, without
        one, from a single materialisation."""
        if self._old_view is None:
            if self._derived_state is not None:
                derived = self._derived_state()
            else:
                derived = BottomUpEvaluator(
                    self._db, self.program.source_rules,
                    semi_naive=self._upward_options.semi_naive,
                    engine=self._upward_options.engine,
                ).materialize().derived
                self._cache_event("rematerialize")
            self._old_view = OldStateView(self._db, derived)
        return self._old_view

    def _upward_interpreter(self) -> UpwardInterpreter:
        if self._upward is None:
            self._upward = UpwardInterpreter(
                self._db, program=self.program, options=self._upward_options,
                old_state=self._old_state())
        return self._upward

    def _downward_interpreter(self) -> DownwardInterpreter:
        if self._downward is None:
            self._downward = DownwardInterpreter(
                self._db, program=self.program, options=self._downward_options,
                old_state=self._old_state())
        return self._downward

    # -- semantics declarations ------------------------------------------------------

    def declare_view(self, *predicates: str) -> None:
        """Give derived predicates View semantics (Section 5 preamble)."""
        self._declare(predicates, PredicateSemantics.VIEW)

    def declare_condition(self, *predicates: str) -> None:
        """Give derived predicates Condition semantics."""
        self._declare(predicates, PredicateSemantics.CONDITION)

    def _declare(self, predicates: Iterable[str],
                 semantics: PredicateSemantics) -> None:
        for predicate in predicates:
            if not self._db.schema.is_derived(predicate):
                raise UnknownPredicateError(
                    f"{predicate} is not a derived predicate"
                )
            self._semantics.setdefault(predicate, set()).add(semantics)

    def views(self) -> tuple[str, ...]:
        """Declared views, sorted."""
        return self._declared(PredicateSemantics.VIEW)

    def conditions(self) -> tuple[str, ...]:
        """Declared conditions, sorted."""
        return self._declared(PredicateSemantics.CONDITION)

    def _declared(self, semantics: PredicateSemantics) -> tuple[str, ...]:
        return tuple(sorted(
            p for p, roles in self._semantics.items() if semantics in roles))

    # -- raw interpretations -------------------------------------------------------------

    def upward(self, transaction: Transaction,
               predicates: Iterable[str] | None = None) -> UpwardResult:
        """The upward interpretation of the event rules under *transaction*."""
        return self._upward_interpreter().interpret(transaction, predicates)

    def downward(self, requests: Iterable[Literal | Event] | Literal | Event
                 ) -> DownwardResult:
        """The downward interpretation of a request (set)."""
        return self._downward_interpreter().interpret(requests)

    def extension(self, predicate: str) -> frozenset:
        """Current extension of a derived predicate (cached old state)."""
        return self._upward_interpreter().old_extension(predicate)

    # -- upward problems (5.1) -------------------------------------------------------------

    def is_consistent(self) -> bool:
        """Whether the database currently satisfies every constraint."""
        return is_consistent(self._db)

    def check(self, transaction: Transaction) -> ICCheckResult:
        """Integrity constraint checking (5.1.1): upward ``ιIc``."""
        return check_transaction(self._db, transaction,
                                 interpreter=self._upward_interpreter())

    def inconsistency_witnesses(self) -> dict[str, frozenset]:
        """Constraints the *current* state violates, with witness rows."""
        return current_violations(self._db,
                                  interpreter=self._upward_interpreter())

    def check_restoration(self, transaction: Transaction) -> ICCheckResult:
        """Consistency-restoration checking (5.1.1): upward ``δIc``."""
        return check_restores_consistency(self._db, transaction,
                                          interpreter=self._upward_interpreter())

    def monitor(self, transaction: Transaction,
                conditions: Iterable[str] | None = None) -> ConditionChanges:
        """Condition monitoring (5.1.2): upward ``ιCond``/``δCond``."""
        watched = list(conditions) if conditions is not None else list(self.conditions())
        return monitor_conditions(self._db, transaction, watched,
                                  interpreter=self._upward_interpreter())

    def maintenance_deltas(self, transaction: Transaction,
                           views: Iterable[str] | None = None) -> ViewDeltas:
        """Materialized view maintenance (5.1.3): upward ``ιView``/``δView``."""
        watched = list(views) if views is not None else list(self.views())
        return view_maintenance_deltas(self._db, transaction, watched,
                                       interpreter=self._upward_interpreter())

    # -- downward problems (5.2) --------------------------------------------------------------

    def translate(self, requests, check_ic: bool = False,
                  maintain_ic: bool = False) -> ViewUpdateResult:
        """View updating (5.2.1): downward ``ιView``/``δView``."""
        return translate_view_update(self._db, requests, check_ic=check_ic,
                                     maintain_ic=maintain_ic,
                                     interpreter=self._downward_interpreter())

    def validate_view(self, view: str, kind: EventKind = EventKind.INSERTION,
                      max_witnesses: int | None = 1) -> ValidationResult:
        """View validation (5.2.1): ∃X with achievable ``ιView(X)``."""
        return validate_view(self._db, view, kind, max_witnesses,
                             interpreter=self._downward_interpreter())

    def prevent_side_effects(self, transaction: Transaction, view: str,
                             kind: EventKind = EventKind.INSERTION,
                             args: Iterable | None = None) -> DownwardResult:
        """Preventing side effects (5.2.2): downward ``{T, ¬ιView(X)}``."""
        return prevent_side_effects(self._db, transaction, view, kind, args,
                                    interpreter=self._downward_interpreter())

    def repair(self, verify: bool = False) -> RepairResult:
        """Repairing an inconsistent database (5.2.3): downward ``δIc``."""
        return repair_database(self._db, verify=verify,
                               interpreter=self._downward_interpreter())

    def constraints_satisfiable(self) -> SatisfiabilityResult:
        """IC satisfiability (5.2.3): downward ``δIc``."""
        return constraints_satisfiable(self._db,
                                       interpreter=self._downward_interpreter())

    def can_reach_inconsistency(self) -> SatisfiabilityResult:
        """Ensuring IC satisfaction (5.2.3): downward ``ιIc``."""
        return can_reach_inconsistency(self._db,
                                       interpreter=self._downward_interpreter())

    def maintain(self, transaction: Transaction) -> DownwardResult:
        """IC maintenance (5.2.4): downward ``{T, ¬ιIc}``."""
        return maintain_transaction(self._db, transaction,
                                    interpreter=self._downward_interpreter())

    def translate_maintained(self, requests) -> tuple[Transaction, ...]:
        """Scalable view updating + IC maintenance (§5.3, staged).

        Unlike :meth:`translate` with ``maintain_ic=True`` (the faithful but
        exponential one-shot downward interpretation of ``{request, ¬ιIc}``),
        this stages plain translation through the iterative maintenance
        engine; see :mod:`repro.core.maintenance`.
        """
        from repro.core.maintenance import translate_with_maintenance

        if isinstance(requests, (Literal, Event)):
            requests = [requests]
        return translate_with_maintenance(self._db, list(requests))

    def enforce_condition(self, condition: str,
                          kind: EventKind = EventKind.INSERTION,
                          args: Iterable | None = None) -> DownwardResult:
        """Enforcing condition activation (5.2.5): downward ``ιCond(X)``."""
        return condition_activation.enforce_condition(
            self._db, condition, kind, args,
            interpreter=self._downward_interpreter())

    def validate_condition(self, condition: str,
                           kind: EventKind = EventKind.INSERTION,
                           max_witnesses: int | None = 1) -> ValidationResult:
        """Condition validation (5.2.5)."""
        return validate_condition(self._db, condition, kind, max_witnesses,
                                  interpreter=self._downward_interpreter())

    def prevent_condition_activation(self, transaction: Transaction,
                                     condition: str,
                                     kind: EventKind = EventKind.INSERTION,
                                     args: Iterable | None = None
                                     ) -> DownwardResult:
        """Preventing condition activation (5.2.6): downward ``{T, ¬ιCond}``."""
        return condition_activation.prevent_condition_activation(
            self._db, transaction, condition, kind, args,
            interpreter=self._downward_interpreter())

    # -- execution ---------------------------------------------------------------------------------

    def execute(self, transaction: Transaction,
                on_violation: str = "reject") -> ExecutionResult:
        """Apply a base-fact transaction to the database.

        ``on_violation``:

        - ``"reject"`` -- integrity-check first (5.1.1) and refuse violating
          transactions;
        - ``"maintain"`` -- extend violating transactions with repairs
          (5.2.4), choosing the smallest translation;
        - ``"ignore"`` -- apply unconditionally.
        """
        if on_violation not in ("reject", "maintain", "ignore"):
            raise ValueError(f"unknown on_violation policy: {on_violation!r}")
        check_result: ICCheckResult | None = None
        repairs: Transaction | None = None
        to_apply = transaction
        if on_violation != "ignore" and self._db.constraints:
            check_result = self.check(transaction)
            if not check_result.ok:
                if on_violation == "reject":
                    return ExecutionResult(False, transaction, check_result)
                from repro.core.maintenance import maintain_iteratively

                maintained = maintain_iteratively(self._db, transaction)
                chosen = maintained.best()
                if chosen is None:
                    return ExecutionResult(False, transaction, check_result)
                repairs = Transaction(chosen.events - transaction.events)
                to_apply = chosen
        self._apply_in_place(to_apply)
        return ExecutionResult(True, to_apply, check_result, repairs)

    def handle(self, request):
        """Run one typed :class:`~repro.requests.UpdateRequest` locally.

        The same request object a :class:`~repro.server.client.DatabaseClient`
        would :meth:`~repro.server.client.DatabaseClient.send` over the wire,
        executed in-process; returns the rich result object (not the wire
        dict).  Server-only ops (``hello``, ``stats``, ...) raise.
        """
        return request.run(self)

    def explain(self, transaction: Transaction, event: Event,
                max_explanations: int = 1):
        """Why would *transaction* induce *event*?  (Derivation trees.)

        Empty when the event is not induced.  Requires a non-recursive
        program (the explanation runs over the flat transition program).
        """
        from repro.interpretations.explanation import explain_event

        return explain_event(self._db, transaction, event,
                             max_explanations=max_explanations)

    def evolve(self, add_rules=(), remove_rules=(),
               add_constraints=(), remove_constraints=()):
        """Apply an intensional (rule-level) update in place (end of §5.3).

        Computes the induced derived changes first (see
        :func:`repro.core.schema_updates.apply_schema_update`), then commits
        the rule changes to this processor's database and recompiles.
        Returns the :class:`~repro.core.schema_updates.SchemaUpdateResult`
        (whose ``db`` attribute is the pre-commit analysis copy).
        """
        from repro.core.schema_updates import apply_schema_update

        result = apply_schema_update(
            self._db, add_rules=add_rules, remove_rules=remove_rules,
            add_constraints=add_constraints,
            remove_constraints=remove_constraints)
        for rule_ in remove_rules:
            self._db.remove_rule(rule_)
        for rule_ in add_rules:
            self._db.add_rule(rule_)
        for constraint in remove_constraints:
            self._db.remove_constraint(constraint)
        for constraint in add_constraints:
            self._db.add_constraint(constraint)
        self.refresh()
        return result

    def _apply_in_place(self, transaction: Transaction) -> None:
        transaction.check_base_only(self._db)
        for event in transaction:
            if event.is_insertion:
                self._db.add_fact(event.predicate, *event.args)
            else:
                self._db.remove_fact(event.predicate, *event.args)
        # Facts changed: interpreters cache old-state materialisations.
        self.invalidate_state_caches()
