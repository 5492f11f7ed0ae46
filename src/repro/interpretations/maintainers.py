"""State maintainers: the strategies for keeping derived state warm.

A :class:`StateMaintainer` owns the derived state of one
:class:`~repro.core.processor.UpdateProcessor` and exposes a uniform
protocol --

- :meth:`StateMaintainer.bootstrap` -- materialise whatever standing state
  the strategy needs (counts, cached extensions); optional for the lazy
  strategies;
- :meth:`StateMaintainer.apply` -- one-shot library entry point: compute the
  full-coverage :class:`~repro.interpretations.upward.UpwardResult` of a
  transaction, apply its base events to the database and advance the
  maintained state;
- :meth:`StateMaintainer.extension` -- the current extension of a derived
  predicate as maintained by this strategy;
- :meth:`StateMaintainer.reset` -- drop all maintained state (it rebuilds on
  next use).

For the serving engine's staged commit protocol (check first, decide, then
apply facts and caches together) the base class adds the finer-grained hooks
:meth:`check` / :meth:`check_full` / :meth:`interpret` / :meth:`advance`;
the default implementations express the conservative strategy (check
through the processor, re-derive from scratch next time).

The serving engine does not let anyone choose: it always runs
:class:`CountingMaintainer`, whose engine also keeps recursive components.
The processor's interpreters read their old-state derived extensions from
the counting engine's live map, so there is one copy of derived state.
:class:`InvalidatingMaintainer` stays as the from-scratch oracle that
tests and benchmarks compare against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.datalog.database import GLOBAL_IC, DeductiveDatabase
from repro.events.events import Transaction
from repro.interpretations.counting import CountingEngine
from repro.interpretations.upward import UpwardResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.processor import UpdateProcessor
    from repro.problems.ic_checking import ICCheckResult


class StateMaintainer(ABC):
    """Strategy object owning the derived state of one processor."""

    #: Strategy name, reported as ``maintainer`` in ``stats``/``health``.
    name: ClassVar[str] = ""

    #: Whether the strategy computes each commit's induced delta on the
    #: fast path (``check_full``/``interpret`` return an UpwardResult).
    #: The change feed (docs/SUBSCRIPTIONS.md) emits those deltas for
    #: free; strategies without them force the feed onto a before/after
    #: diff of the watched predicates, which scales with the database.
    sources_deltas: ClassVar[bool] = False

    def __init__(self, processor: "UpdateProcessor"):
        self._processor = processor
        #: Observability hook: called with an event kind ("bootstrap",
        #: "rederive", ...) and an amount when the strategy does notable
        #: work.
        self.on_event: Callable[[str, int], None] | None = None

    # -- shared plumbing -------------------------------------------------------

    @property
    def processor(self) -> "UpdateProcessor":
        return self._processor

    @property
    def db(self) -> DeductiveDatabase:
        return self._processor.db

    def _event(self, kind: str, amount: int = 1) -> None:
        if self.on_event is not None:
            self.on_event(kind, amount)

    def _apply_base(self, transaction: Transaction) -> None:
        """Apply a (normalised) transaction's base events to the database."""
        for event in transaction:
            if event.is_insertion:
                self.db.add_fact(event.predicate, *event.args)
            else:
                self.db.remove_fact(event.predicate, *event.args)

    # -- the StateMaintainer protocol ------------------------------------------

    def bootstrap(self, db: DeductiveDatabase | None = None) -> None:
        """Materialise the strategy's standing state.

        Maintainers are bound to their processor's database; *db* exists
        for protocol symmetry and, when given, must be that same object.
        Lazy strategies may treat this as a no-op.
        """
        if db is not None and db is not self.db:
            raise ValueError("a StateMaintainer is bound to its processor's "
                             "database; bootstrap(db) must pass that object")

    @abstractmethod
    def apply(self, transaction: Transaction) -> UpwardResult:
        """Compute induced events, apply the transaction, advance state."""

    def extension(self, predicate: str) -> frozenset:
        """Current extension of a derived predicate."""
        return self._processor.extension(predicate)

    @abstractmethod
    def reset(self) -> None:
        """Drop all maintained state; it rebuilds on next use."""

    # -- engine hooks (staged commit protocol) ---------------------------------

    def check(self, transaction: Transaction) -> "ICCheckResult":
        """Integrity verdict for one transaction against the current state."""
        return self._processor.check(transaction)

    def check_full(self, transaction: Transaction) \
            -> tuple["ICCheckResult", UpwardResult | None]:
        """Verdict plus, when the strategy can, a full-coverage result
        to later hand to :meth:`advance`."""
        return self._processor.check(transaction), None

    def interpret(self, transaction: Transaction) -> UpwardResult | None:
        """Full-coverage induced events for an unchecked commit, or ``None``
        when the strategy has nothing warm to advance."""
        return None

    def advance(self, result: UpwardResult | None) -> None:
        """Advance maintained state across an applied transaction.

        *result* must come from :meth:`check_full` / :meth:`interpret` on
        the state the transaction was applied to; ``None`` (or a stale
        result) degrades to :meth:`reset`.
        """
        self.reset()


class InvalidatingMaintainer(StateMaintainer):
    """Oracle strategy: caches are dropped on every write.

    Never served; tests and benchmarks use it as the from-scratch baseline
    the counting maintainer must match.
    """

    name = "invalidate"

    def apply(self, transaction: Transaction) -> UpwardResult:
        result = self._processor.upward(transaction)
        self._apply_base(result.transaction)
        self.reset()
        return result

    def reset(self) -> None:
        self._processor.invalidate_state_caches()


class CountingMaintainer(StateMaintainer):
    """Maintain per-tuple derivation counts during the commit ([GMS93]).

    The counting engine computes induced events from delta rules in time
    proportional to the transaction, keeps the integrity-constraint
    extension standing (so the consistency precondition is O(1)), and
    stages count changes between :meth:`check_full`/:meth:`interpret`
    and :meth:`advance` so facts and counts commit together.

    The processor's interpreters read their old-state derived extensions
    from the engine's live map (:attr:`CountingEngine.extensions`), so
    they keep no copy of their own and nothing patches them on commit.
    """

    name = "counting"
    sources_deltas = True

    def __init__(self, processor: "UpdateProcessor"):
        super().__init__(processor)
        self._engine: CountingEngine | None = None
        self._staged: tuple[UpwardResult, dict] | None = None
        processor.use_derived_state(
            lambda: self.counting_engine().extensions)

    @property
    def active(self) -> bool:
        """Whether counts are currently materialised."""
        return self._engine is not None

    def counting_engine(self) -> CountingEngine:
        """The underlying engine, bootstrapping counts on first use and
        after a rule change recompiled the processor's program."""
        program = self._processor.program
        if self._engine is None or self._engine.program is not program:
            self._engine = CountingEngine(
                self.db, program=program,
                on_rederive=lambda predicate: self._event("rederive"))
            self._event("bootstrap")
        return self._engine

    def bootstrap(self, db: DeductiveDatabase | None = None) -> None:
        super().bootstrap(db)
        self.reset()
        self._event("delta_rules", self.counting_engine().n_delta_rules)

    def apply(self, transaction: Transaction) -> UpwardResult:
        return self.counting_engine().apply(transaction)

    def extension(self, predicate: str) -> frozenset:
        return self.counting_engine().extension(predicate)

    def reset(self) -> None:
        self._engine = None
        self._staged = None
        self._processor.invalidate_state_caches()

    # -- engine hooks ----------------------------------------------------------

    def _checked_delta(self, transaction: Transaction) \
            -> tuple[UpwardResult, dict]:
        from repro.problems.base import StateError
        engine = self.counting_engine()
        if engine.extension(GLOBAL_IC):
            raise StateError(
                "cannot check a transaction against an inconsistent state: "
                f"{GLOBAL_IC} holds before the update")
        return engine.delta(transaction)

    def _verdict(self, result: UpwardResult) -> "ICCheckResult":
        from repro.problems.ic_checking import ICCheckResult
        constraint_predicates = {rule.head.predicate
                                 for rule in self.db.constraints}
        violations = {
            predicate: rows
            for predicate, rows in result.insertions.items()
            if predicate in constraint_predicates and rows
        }
        return ICCheckResult(ok=not result.insertions_of(GLOBAL_IC),
                             violations=violations,
                             transaction=result.transaction)

    def check(self, transaction: Transaction) -> "ICCheckResult":
        result, _ = self._checked_delta(transaction)
        return self._verdict(result)

    def check_full(self, transaction: Transaction) \
            -> tuple["ICCheckResult", UpwardResult | None]:
        result, staged = self._checked_delta(transaction)
        self._staged = (result, staged)
        return self._verdict(result), result

    def interpret(self, transaction: Transaction) -> UpwardResult | None:
        result, staged = self.counting_engine().delta(transaction)
        self._staged = (result, staged)
        return result

    def advance(self, result: UpwardResult | None) -> None:
        staged = self._staged
        self._staged = None
        if (result is None or staged is None or staged[0] is not result
                or self._engine is None):
            # Stale or missing staging: conservative full reset.
            self.reset()
            return
        self._engine.advance(staged[1])


__all__ = [
    "CountingMaintainer",
    "InvalidatingMaintainer",
    "StateMaintainer",
]
