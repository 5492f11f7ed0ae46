"""The downward interpretation of the event rules (Section 4.2).

Given requested changes on derived predicates (a set of possibly negated,
possibly non-ground event literals), the downward interpretation produces a
DNF over *base* event literals.  Each disjunct is an alternative
:class:`Translation`: its positive events form a candidate transaction, its
negative events are requirements the transition must satisfy ("changes that
must not be performed").

The interpreter is goal-directed:

- old database literals are queries against the current state (binding
  variables);
- positive base event literals become output literals, *provided the event
  definition is satisfied* (``ιQ(c)`` needs ``¬Qo(c)``, ``δQ(c)`` needs
  ``Qo(c)``; Example 4.2 discards the ``ιQ(B) ∧ δR(B)`` disjunct this way);
- negative base event literals become requirements (or vanish when the
  event is impossible anyway);
- derived event literals recurse through their event rule, and new-state
  literals recurse through the transition rules;
- negative derived / new-state literals are the DNF negation of the positive
  result, exactly as Section 4.2 prescribes;
- non-ground literals are instantiated over the finite domain ("as we
  consider finite domains, the number of alternatives is always finite"),
  except that positive literals whose variables occur nowhere else are
  solved existentially by direct descent (each alternative fixes a witness).

Top-level *requests* use goal semantics (footnote 1 of the paper): a
requested change that already holds is trivially satisfied and a
requirement on an impossible event is vacuous.  Event literals *inside*
formulas always use occurrence semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import DepthLimitExceeded, DomainError, TransactionError
from repro.datalog.evaluation import BottomUpEvaluator
from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Constant, Term, Variable
from repro.datalog.unification import (
    Substitution,
    resolve,
    substitute_literal,
    unify_atoms,
)
from repro.events.dnf import Dnf, FALSE_DNF, TRUE_DNF
from repro.events.event_rules import EventCompiler, TransitionProgram
from repro.events.events import Event, Transaction
from repro.events.naming import (
    EventKind,
    del_name,
    event_kind_of,
    ins_name,
    new_name,
    parse_prefixed,
)
from repro.interpretations.upward import OldStateView
from repro.obs import tracer as obs

Row = tuple[Constant, ...]


@dataclass
class DownwardOptions:
    """Tuning knobs of the downward interpreter."""

    #: Maximum descent depth through event/transition rules.
    max_depth: int = 24
    #: What to do at the depth limit: "raise" or "prune" (treat as false).
    on_depth_limit: str = "raise"
    #: Extra constants added to the finite domain used for instantiation.
    extra_domain: frozenset[Constant] = frozenset()
    #: Bound on intermediate DNF size; alternatives are combinatorial
    #: (repairing k independent violations with a choices each is a^k), so
    #: blowing past this raises ComplexityLimitExceeded instead of hanging.
    max_disjuncts: int = 20000
    #: Evaluation engine for the old-state evaluator:
    #: "compiled"/"interpreted", or None for the evaluator default.
    engine: str | None = None


@dataclass(frozen=True)
class Translation:
    """One alternative produced by the downward interpretation.

    ``transaction`` must be performed; ``constraints`` are events that must
    *not* be performed by whatever transaction is finally executed.
    """

    transaction: Transaction
    constraints: frozenset[Event] = frozenset()

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "transaction": self.transaction.to_dict(),
            "constraints": [e.to_dict() for e in sorted(self.constraints,
                                                        key=str)],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Translation":
        """Inverse of :meth:`to_dict`."""
        return cls(
            transaction=Transaction.from_dict(payload.get("transaction", [])),
            constraints=frozenset(Event.from_dict(item)
                                  for item in payload.get("constraints", [])),
        )

    def as_conjunct(self) -> tuple[Literal, ...]:
        """The DNF disjunct this translation came from (event literals)."""
        positives = [request_of(event) for event in self.transaction]
        negatives = [request_of(event).negate() for event in self.constraints]
        return tuple(sorted(positives + negatives, key=str))

    def respects_constraints(self, transaction: Transaction) -> bool:
        """True when *transaction* avoids every forbidden event."""
        return not any(forbidden in transaction for forbidden in self.constraints)

    def __str__(self) -> str:
        rendered = str(self.transaction)
        if self.constraints:
            shown = sorted(f"¬{e}" for e in self.constraints)
            if len(shown) > 8:
                shown = shown[:8] + [f"… +{len(self.constraints) - 8} more"]
            rendered += f" [{', '.join(shown)}]"
        return rendered


@dataclass
class DownwardStats:
    """Counters exposed for the benchmark harness."""

    disjuncts_explored: int = 0
    descents: int = 0
    enumerations: int = 0
    old_queries: int = 0
    #: Branches cut off by ``on_depth_limit="prune"``.
    pruned: int = 0

    def snapshot(self) -> "DownwardStats":
        """A frozen copy (for computing per-stage deltas)."""
        return DownwardStats(**vars(self))

    def delta_since(self, earlier: "DownwardStats") -> "DownwardStats":
        """The pointwise difference ``self - earlier``."""
        return DownwardStats(**{
            name: value - getattr(earlier, name)
            for name, value in vars(self).items()
        })

    def to_counters(self) -> dict[str, int]:
        """The counters as a plain dict (span/JSON friendly)."""
        return dict(vars(self))

    def record_to(self, span) -> None:
        """Add every non-zero counter onto an :mod:`repro.obs` span."""
        for name, value in vars(self).items():
            if value:
                span.add(name, value)


@dataclass
class DownwardResult:
    """The full result of downward-interpreting a request set."""

    requests: tuple[Literal, ...]
    dnf: Dnf
    translations: tuple[Translation, ...]
    #: Requests that were already satisfied in the current state (footnote 1).
    already_satisfied: tuple[Literal, ...] = ()
    stats: DownwardStats = field(default_factory=DownwardStats)

    @property
    def is_satisfiable(self) -> bool:
        """True when at least one alternative exists."""
        return not self.dnf.is_false

    def transactions(self) -> tuple[Transaction, ...]:
        """The candidate transactions (positive parts of the alternatives)."""
        return tuple(t.transaction for t in self.translations)

    def to_dict(self) -> dict:
        """A JSON-ready representation.

        Request literals use the canonical ``ins P(A)`` textual form, so
        they round-trip through :func:`repro.events.requests.parse_request`.
        """
        from repro.events.requests import request_text

        return {
            "satisfiable": self.is_satisfiable,
            "requests": [request_text(l) for l in self.requests],
            "already_satisfied": [request_text(l)
                                  for l in self.already_satisfied],
            "translations": [t.to_dict() for t in self.translations],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DownwardResult":
        """Inverse of :meth:`to_dict` (stats are not carried on the wire).

        The DNF is reconstructed from the translations: satisfiable results
        without translations were already satisfied (true), unsatisfiable
        ones have the empty (false) DNF.
        """
        from repro.events.requests import parse_request

        translations = tuple(Translation.from_dict(item)
                             for item in payload.get("translations", []))
        satisfiable = bool(payload.get("satisfiable", translations))
        if translations:
            dnf = FALSE_DNF
            for translation in translations:
                dnf = dnf.or_(Dnf.of_conjunct(translation.as_conjunct()))
        else:
            dnf = TRUE_DNF if satisfiable else FALSE_DNF
        return cls(
            requests=tuple(parse_request(text)
                           for text in payload.get("requests", [])),
            dnf=dnf,
            translations=translations,
            already_satisfied=tuple(
                parse_request(text)
                for text in payload.get("already_satisfied", [])),
        )

    def __str__(self) -> str:
        if not self.translations:
            return "no translation" if not self.dnf.is_true else "already satisfied"
        return "; ".join(str(t) for t in self.translations)


# -- request constructors -----------------------------------------------------


def want_insert(predicate: str, *args) -> Literal:
    """Request the insertion of ``predicate(args)`` (``ιP`` positive)."""
    return Literal(Atom(ins_name(predicate), _terms(args)), True)


def want_delete(predicate: str, *args) -> Literal:
    """Request the deletion of ``predicate(args)`` (``δP`` positive)."""
    return Literal(Atom(del_name(predicate), _terms(args)), True)


def forbid_insert(predicate: str, *args) -> Literal:
    """Require that ``ιP(args)`` is *not* induced (``¬ιP``)."""
    return Literal(Atom(ins_name(predicate), _terms(args)), False)


def forbid_delete(predicate: str, *args) -> Literal:
    """Require that ``δP(args)`` is *not* induced (``¬δP``)."""
    return Literal(Atom(del_name(predicate), _terms(args)), False)


def _terms(args: Iterable) -> tuple[Term, ...]:
    from repro.datalog.terms import term_from_name

    converted: list[Term] = []
    for arg in args:
        if isinstance(arg, (Constant, Variable)):
            converted.append(arg)
        elif isinstance(arg, int):
            converted.append(Constant(arg))
        else:
            converted.append(term_from_name(str(arg)))
    return tuple(converted)


def request_of(event: Event) -> Literal:
    """The positive request literal of a ground event."""
    name = ins_name(event.predicate) if event.is_insertion else del_name(event.predicate)
    return Literal(Atom(name, event.args), True)


# -- the interpreter --------------------------------------------------------------


class DownwardInterpreter:
    """Computes the downward interpretation against one database state.

    Old database literals are answered from a materialisation of the
    program made on first use, or from an *old_state* view passed in (the
    update processor's, over the counting maintainer's live extensions),
    which its owner keeps current.
    """

    def __init__(self, db: DeductiveDatabase,
                 program: TransitionProgram | None = None,
                 options: DownwardOptions | None = None,
                 simplify: bool = True,
                 old_state: OldStateView | None = None):
        self._db = db
        self._options = options or DownwardOptions()
        self._program = program or EventCompiler(simplify=simplify).compile(db)
        if old_state is not None:
            self._old = BottomUpEvaluator(old_state, [])
        else:
            self._old = BottomUpEvaluator(db, self._program.source_rules,
                                          engine=self._options.engine)
        #: The active domain, with the database generation it was read at.
        self._domain: tuple[int, frozenset[Constant]] | None = None
        self._request_constants: frozenset[Constant] = frozenset()
        self.stats = DownwardStats()

    @property
    def program(self) -> TransitionProgram:
        """The compiled transition program in use."""
        return self._program

    def domain(self) -> frozenset[Constant]:
        """The finite domain used for instantiation.

        The active domain of the database, any configured extra constants,
        and every constant mentioned by the current request set (a requested
        ``ιLa(Maria)`` makes ``Maria`` part of the domain even before any
        fact mentions her).
        """
        generation = self._db.generation
        if self._domain is None or self._domain[0] != generation:
            self._domain = (generation, self._db.active_domain()
                            | self._options.extra_domain)
        return self._domain[1] | self._request_constants

    # -- public API ------------------------------------------------------------------

    def interpret(self, requests: Iterable[Literal | Event] |
                  Literal | Event) -> DownwardResult:
        """Downward-interpret a request or a set of requests.

        The result of a set is "the disjunctive normal form of the logical
        conjunction of the result of downward interpreting each event in the
        set" (Section 4.2).
        """
        if isinstance(requests, (Literal, Event)):
            requests = [requests]
        literals = [request_of(r) if isinstance(r, Event) else r for r in requests]
        self._request_constants = frozenset(
            term for literal in literals for term in literal.atom.constants()
        )
        self.stats = DownwardStats()
        combined = TRUE_DNF
        satisfied: list[Literal] = []
        with obs.span("downward.interpret") as span:
            if obs.enabled():
                span.add("requests", len(literals))
            for literal in literals:
                with obs.span("downward.request") as request_span:
                    if obs.enabled():
                        request_span.set(request=str(literal))
                        before = self.stats.snapshot()
                    piece = self._down_request(literal, satisfied)
                    if obs.enabled():
                        self.stats.delta_since(before).record_to(request_span)
                        request_span.add("disjuncts", len(piece))
                combined = combined.and_(piece)
                if combined.is_false:
                    break
            combined = combined.simplified()
            translations = self._extract_translations(combined)
            if obs.enabled():
                self.stats.record_to(span)
                span.add("translations", len(translations))
        return DownwardResult(
            requests=tuple(literals),
            dnf=combined,
            translations=translations,
            already_satisfied=tuple(satisfied),
            stats=self.stats,
        )

    # -- request-level (goal) semantics ----------------------------------------------

    def _down_request(self, literal: Literal,
                      satisfied: list[Literal]) -> Dnf:
        kind = event_kind_of(literal.predicate)
        if kind is None:
            raise TransactionError(
                f"downward requests must be event literals (ι/δ): {literal}"
            )
        if literal.positive:
            if literal.is_ground() and self._goal_already_satisfied(literal):
                satisfied.append(literal)
                return TRUE_DNF
            return self._down_conjunct([literal], {}, 0)
        # Negative request: forbid the event's occurrence for every
        # instantiation ("all possible values of X").
        combined = TRUE_DNF
        for bindings in self._instantiations(literal, {}):
            ground = substitute_literal(literal, bindings)
            combined = combined.and_(self._down_conjunct([ground], {}, 0))
            if combined.is_false:
                break
        return combined

    def _goal_already_satisfied(self, literal: Literal) -> bool:
        """Footnote 1: a requested change that already holds is a no-op."""
        namespace, predicate = parse_prefixed(literal.predicate)
        row = tuple(resolve(t, {}) for t in literal.args)
        held = row in self._old.extension(predicate)
        return held if namespace == "ins" else not held

    # -- conjunct processing ------------------------------------------------------------

    def _down_conjunct(self, pending: list[Literal], subst: Substitution,
                       depth: int) -> Dnf:
        if depth > self._options.max_depth:
            if self._options.on_depth_limit == "prune":
                self.stats.pruned += 1
                return FALSE_DNF
            raise DepthLimitExceeded(
                f"downward interpretation exceeded depth {self._options.max_depth}; "
                f"raise DownwardOptions.max_depth or use on_depth_limit='prune'"
            )
        if not pending:
            return TRUE_DNF
        index = self._select(pending, subst)
        literal = pending[index]
        rest = pending[:index] + pending[index + 1:]
        total = FALSE_DNF
        for bindings, piece in self._down_literal(literal, subst, rest, depth):
            if piece.is_false:
                continue
            tail = self._down_conjunct(rest, bindings, depth)
            total = total.or_(piece.and_(tail))
            self._guard(total)
        return total.simplified()

    def _negate(self, dnf: Dnf) -> Dnf:
        """Bounded DNF negation (Section 4.2's logical-negation step)."""
        return dnf.negated(max_size=self._options.max_disjuncts)

    def _guard(self, dnf: Dnf) -> None:
        if len(dnf) > self._options.max_disjuncts:
            from repro.datalog.errors import ComplexityLimitExceeded

            raise ComplexityLimitExceeded(
                f"downward DNF grew past {self._options.max_disjuncts} "
                f"disjuncts; the request has combinatorially many "
                f"alternatives -- split it (e.g. repair one violation at a "
                f"time) or raise DownwardOptions.max_disjuncts"
            )

    def _select(self, pending: list[Literal], subst: Substitution) -> int:
        """Pick the cheapest / most-binding literal to process next."""
        best_index = 0
        best_score = None
        for index, literal in enumerate(pending):
            namespace, _ = parse_prefixed(literal.predicate)
            unbound = self._unbound_vars(literal, subst)
            ground = not unbound
            if namespace == "old":
                score = 0 if ground else (1 if literal.positive else 9)
            elif ground:
                if namespace in ("ins", "del"):
                    base = not self._program.is_derived(
                        parse_prefixed(literal.predicate)[1])
                    score = (2 if literal.positive else 3) if base else \
                        (4 if literal.positive else 5)
                else:  # new$
                    score = 4 if literal.positive else 5
            else:
                score = 6 if literal.positive else 9
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
                if score == 0:
                    break
        return best_index

    def _unbound_vars(self, literal: Literal, subst: Substitution) -> set[Variable]:
        unbound: set[Variable] = set()
        for term in literal.args:
            term = resolve(term, subst)
            if isinstance(term, Variable):
                unbound.add(term)
        return unbound

    # -- literal-level dispatch ------------------------------------------------------------

    def _down_literal(self, literal: Literal, subst: Substitution,
                      rest: Sequence[Literal], depth: int
                      ) -> Iterator[tuple[Substitution, Dnf]]:
        namespace, predicate = parse_prefixed(literal.predicate)
        if namespace == "old":
            yield from self._down_old(literal, subst)
            return
        if namespace in ("ins", "del"):
            kind = EventKind.INSERTION if namespace == "ins" else EventKind.DELETION
            if self._program.is_derived(predicate):
                yield from self._down_derived_event(
                    kind, predicate, literal, subst, rest, depth)
            else:
                yield from self._down_base_event(kind, predicate, literal, subst)
            return
        # namespace == "new"
        yield from self._down_new(predicate, literal, subst, rest, depth)

    # old database literals -------------------------------------------------------

    def _down_old(self, literal: Literal,
                  subst: Substitution) -> Iterator[tuple[Substitution, Dnf]]:
        from repro.datalog.builtins import evaluate_builtin, is_builtin

        self.stats.old_queries += 1
        if is_builtin(literal.predicate):
            # Rigid literal: a pure (state-independent) test; non-ground
            # occurrences are instantiated over the finite domain.
            for bindings in self._instantiations(literal, subst):
                row = tuple(resolve(t, bindings) for t in literal.args)
                if evaluate_builtin(literal.predicate, row) == literal.positive:
                    yield bindings, TRUE_DNF
            return
        if literal.positive:
            for bindings in self._old.solve([literal], subst):
                yield bindings, TRUE_DNF
            return
        unbound = self._unbound_vars(literal, subst)
        if not unbound:
            if not self._old.holds(literal.negate(), subst):
                yield dict(subst), TRUE_DNF
            return
        for bindings in self._instantiations(literal, subst):
            if not self._old.holds(literal.negate(), bindings):
                yield bindings, TRUE_DNF

    # base event literals ---------------------------------------------------------

    def _event_possible(self, kind: EventKind, predicate: str, row: Row) -> bool:
        """Occurrence precondition from definitions (1)/(2)."""
        held = row in self._old.extension(predicate)
        return not held if kind is EventKind.INSERTION else held

    def _down_base_event(self, kind: EventKind, predicate: str,
                         literal: Literal, subst: Substitution
                         ) -> Iterator[tuple[Substitution, Dnf]]:
        unbound = self._unbound_vars(literal, subst)
        if literal.positive:
            if not unbound:
                row = tuple(resolve(t, subst) for t in literal.args)
                if self._event_possible(kind, predicate, row):
                    ground = substitute_literal(literal, subst)
                    yield dict(subst), Dnf.of_literal(ground)
                return
            self.stats.enumerations += 1
            if kind is EventKind.DELETION:
                # δQ requires Qo: instantiate over the stored rows.
                pattern = tuple(resolve(t, subst) for t in literal.args)
                for row in self._db.lookup(predicate, pattern):
                    bindings = self._bind_row(pattern, row, subst)
                    if bindings is not None:
                        ground = substitute_literal(literal, bindings)
                        yield bindings, Dnf.of_literal(ground)
                return
            for bindings in self._instantiations(literal, subst):
                row = tuple(resolve(t, bindings) for t in literal.args)
                if self._event_possible(kind, predicate, row):
                    ground = substitute_literal(literal, bindings)
                    yield bindings, Dnf.of_literal(ground)
            return
        # Negative base event: a requirement (or vacuous when impossible).
        if not unbound:
            row = tuple(resolve(t, subst) for t in literal.args)
            if not self._event_possible(kind, predicate, row):
                yield dict(subst), TRUE_DNF
            else:
                ground = substitute_literal(literal, subst)
                yield dict(subst), Dnf.of_literal(ground)
            return
        # Universal requirement over every instantiation.
        combined = TRUE_DNF
        for bindings in self._instantiations(literal, subst):
            row = tuple(resolve(t, bindings) for t in literal.args)
            if self._event_possible(kind, predicate, row):
                combined = combined.and_(
                    Dnf.of_literal(substitute_literal(literal, bindings)))
        yield dict(subst), combined

    def _bind_row(self, pattern: tuple[Term, ...], row: Row,
                  subst: Substitution) -> dict | None:
        from repro.datalog.unification import match_tuple

        bindings = match_tuple(pattern, row, subst)
        return dict(bindings) if bindings is not None else None

    # derived event literals ---------------------------------------------------------

    def _down_derived_event(self, kind: EventKind, predicate: str,
                            literal: Literal, subst: Substitution,
                            rest: Sequence[Literal], depth: int
                            ) -> Iterator[tuple[Substitution, Dnf]]:
        unbound = self._unbound_vars(literal, subst)
        shared = unbound & self._vars_of(rest, subst)
        if literal.positive:
            if shared:
                self.stats.enumerations += 1
                for bindings in self._instantiate_vars(shared, subst):
                    yield bindings, self._descend_event(
                        kind, predicate, literal, bindings, depth)
                return
            yield dict(subst), self._descend_event(
                kind, predicate, literal, subst, depth)
            return
        # Negative derived event: DNF negation of the positive result,
        # universally over any remaining unbound variables.
        combined = TRUE_DNF
        for bindings in self._instantiations(literal, subst) if unbound \
                else [dict(subst)]:
            positive = self._descend_event(kind, predicate, literal, bindings, depth)
            combined = combined.and_(self._negate(positive))
            self._guard(combined)
            if combined.is_false:
                break
        yield dict(subst), combined

    def _descend_event(self, kind: EventKind, predicate: str, literal: Literal,
                       subst: Substitution, depth: int) -> Dnf:
        """Unfold one event rule: ιP -> (Pn ∧ ¬Po), δP -> (Po ∧ ¬Pn)."""
        self.stats.descents += 1
        args = tuple(resolve(t, subst) for t in literal.args)
        old_atom = Atom(predicate, args)
        new_atom = Atom(new_name(predicate), args)
        if kind is EventKind.INSERTION:
            body = [Literal(new_atom, True), Literal(old_atom, False)]
        else:
            body = [Literal(old_atom, True), Literal(new_atom, False)]
        return self._down_conjunct(body, dict(subst), depth + 1)

    # new-state literals ----------------------------------------------------------------

    def _down_new(self, predicate: str, literal: Literal, subst: Substitution,
                  rest: Sequence[Literal], depth: int
                  ) -> Iterator[tuple[Substitution, Dnf]]:
        unbound = self._unbound_vars(literal, subst)
        shared = unbound & self._vars_of(rest, subst)
        if literal.positive:
            if shared:
                self.stats.enumerations += 1
                for bindings in self._instantiate_vars(shared, subst):
                    yield bindings, self._descend_new(predicate, literal,
                                                      bindings, depth)
                return
            yield dict(subst), self._descend_new(predicate, literal, subst, depth)
            return
        combined = TRUE_DNF
        for bindings in self._instantiations(literal, subst) if unbound \
                else [dict(subst)]:
            positive = self._descend_new(predicate, literal, bindings, depth)
            combined = combined.and_(self._negate(positive))
            self._guard(combined)
            if combined.is_false:
                break
        yield dict(subst), combined

    def _descend_new(self, predicate: str, literal: Literal,
                     subst: Substitution, depth: int) -> Dnf:
        """Unfold ``new$P(t)`` through the transition rules (or, for a base
        predicate, through equivalence (3))."""
        self.stats.descents += 1
        args = tuple(resolve(t, subst) for t in literal.args)
        if not self._program.is_derived(predicate):
            stay = [
                Literal(Atom(predicate, args), True),
                Literal(Atom(del_name(predicate), args), False),
            ]
            inserted = [Literal(Atom(ins_name(predicate), args), True)]
            return self._down_conjunct(stay, dict(subst), depth + 1).or_(
                self._down_conjunct(inserted, dict(subst), depth + 1))
        total = FALSE_DNF
        for transition in self._program.transition_rules_of(predicate):
            renamed = self._rename_transition(transition)
            unified = unify_atoms(Atom(predicate, args),
                                  Atom(predicate, renamed.head.args), subst)
            if unified is None:
                continue
            for disjunct in renamed.disjuncts:
                self.stats.disjuncts_explored += 1
                piece = self._down_conjunct(list(disjunct), dict(unified), depth + 1)
                total = total.or_(piece)
                self._guard(total)
        return total.simplified()

    _rename_counter = itertools.count(1)

    def _rename_transition(self, transition):
        """Standardise a transition rule apart from the current goal."""
        from repro.datalog.unification import fresh_variable

        variables: set[Variable] = set()
        for term in transition.head.args:
            if isinstance(term, Variable):
                variables.add(term)
        for disjunct in transition.disjuncts:
            for lit in disjunct:
                variables.update(lit.variables())
        renaming = {v: fresh_variable(v.name.split("#")[0]) for v in variables}
        head = Atom(transition.head.predicate,
                    tuple(renaming.get(t, t) if isinstance(t, Variable) else t
                          for t in transition.head.args))
        disjuncts = tuple(
            tuple(substitute_literal(lit, renaming) for lit in disjunct)
            for disjunct in transition.disjuncts
        )
        return transition.__class__(
            transition.predicate, transition.index, head,
            transition.source, disjuncts,
        )

    # -- instantiation helpers ----------------------------------------------------------------

    def _vars_of(self, literals: Sequence[Literal],
                 subst: Substitution) -> set[Variable]:
        collected: set[Variable] = set()
        for literal in literals:
            collected.update(self._unbound_vars(literal, subst))
        return collected

    def _instantiations(self, literal: Literal,
                        subst: Substitution) -> Iterator[dict]:
        """All groundings of a literal's unbound variables over the domain."""
        return self._instantiate_vars(self._unbound_vars(literal, subst), subst)

    def _instantiate_vars(self, variables: set[Variable],
                          subst: Substitution) -> Iterator[dict]:
        if not variables:
            yield dict(subst)
            return
        domain = sorted(self.domain(), key=str)
        if not domain:
            raise DomainError(
                "finite-domain instantiation required but the active domain "
                "is empty; provide DownwardOptions.extra_domain"
            )
        ordered = sorted(variables, key=lambda v: v.name)
        for values in itertools.product(domain, repeat=len(ordered)):
            bindings = dict(subst)
            bindings.update(zip(ordered, values))
            yield bindings

    # -- translations ------------------------------------------------------------------------------

    def _extract_translations(self, dnf: Dnf) -> tuple[Translation, ...]:
        """Turn each disjunct into a :class:`Translation`.

        Disjuncts with the same positive part (candidate transaction) are
        alternative *certificates* differing only in their negative-event
        requirements; one per transaction (the one with the fewest
        constraints) is kept -- each disjunct is independently sufficient,
        so any witness will do.
        """
        by_transaction: dict[Transaction, Translation] = {}
        for conjunct in dnf:
            positives: list[Event] = []
            negatives: list[Event] = []
            for literal in conjunct:
                kind = event_kind_of(literal.predicate)
                if kind is None or not literal.is_ground():
                    raise TransactionError(
                        f"internal error: non-event or non-ground literal in "
                        f"downward result: {literal}"
                    )
                _, predicate = parse_prefixed(literal.predicate)
                event = Event(kind, predicate, literal.args)  # type: ignore[arg-type]
                (positives if literal.positive else negatives).append(event)
            candidate = Translation(
                transaction=Transaction(positives),
                constraints=frozenset(negatives),
            )
            existing = by_transaction.get(candidate.transaction)
            if existing is None or (
                (len(candidate.constraints), str(candidate))
                < (len(existing.constraints), str(existing))
            ):
                by_transaction[candidate.transaction] = candidate
        translations = sorted(by_transaction.values(),
                              key=lambda t: (len(t.transaction), str(t)))
        return tuple(translations)
