"""Standing-query subscriptions: the change-feed bus behind ``subscribe``.

Every commit already computes the induced deltas of the derived predicates
(the counting maintainer, on every commit path).  This module turns those
deltas into a push feed: a :class:`FeedBus` holds the registered standing
queries and, when the engine publishes a commit's delta, fans a
per-subscription *frame* out to each subscriber whose goals the delta
touches.

Design constraints, in order of importance:

- **The commit path never blocks on a subscriber.**  The bus is purely
  synchronous fan-out to callbacks; queueing, backpressure and socket
  writes all live with the caller (the server wraps each callback in a
  bounded channel drained by the event loop).  A callback that raises is
  dropped from the bus, never propagated into the commit.
- **Frames are self-describing.**  A ``delta`` frame carries
  ``{txn_id, epoch, inserted, deleted}`` with rows in the same sorted-list
  wire shape as every other result type (:func:`repro.serde.rows_to_lists`).
  A ``resync`` frame tells the subscriber the server lost delta coverage
  (checkpoint, maintainer reset) and it must re-pull.  A
  ``closed`` frame is the last thing an overflowing subscriber sees.
- **Filters reuse the bound-goal shape of the routing layer.**  A goal is
  either a bare derived predicate name (``"Unemp"``) or an atom with
  constants at bound positions (``"Unemp(Maria)"``, ``"Emp(x, Sales)"``),
  parsed by the same grammar as queries.

:class:`FeedMerger` is the shard-side companion: the group/router fan a
subscription out to every shard and merge the per-shard frames of one
coordinated (2PC) transaction into exactly one frame, emitted in commit
decision order.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.datalog.errors import DatalogError, SubscriptionError
from repro.datalog.parser import parse_atom
from repro.datalog.terms import Constant
from repro.serde import rows_to_lists

__all__ = [
    "BoundGoal",
    "FeedBus",
    "FeedMerger",
    "Subscription",
    "SubscriptionError",
    "closed_frame",
    "delta_frame",
    "frame_is_empty",
    "merge_frames",
    "parse_goals",
    "resync_frame",
]

Row = tuple  # tuple[Constant, ...]

_BARE_PREDICATE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ---------------------------------------------------------------------------
# goals


@dataclass(frozen=True)
class BoundGoal:
    """One watched predicate, optionally with constants at bound positions.

    ``arity`` is ``None`` for a bare predicate name (matches any row) and
    the atom's arity otherwise; ``bindings`` holds ``(position, constant)``
    pairs for the constant arguments.
    """

    predicate: str
    arity: int | None = None
    bindings: tuple[tuple[int, Constant], ...] = ()

    @classmethod
    def parse(cls, text: object) -> "BoundGoal":
        """Parse a goal string; raise :class:`SubscriptionError` on junk."""
        if not isinstance(text, str) or not text.strip():
            raise SubscriptionError(
                "subscription goal must be a non-empty string, got "
                f"{text!r}")
        source = text.strip()
        if "(" not in source:
            if not _BARE_PREDICATE.match(source):
                raise SubscriptionError(
                    f"malformed subscription goal: {source!r}")
            return cls(predicate=source)
        try:
            atom = parse_atom(source)
        except DatalogError as error:
            raise SubscriptionError(
                f"malformed subscription goal {source!r}: {error}") from error
        bindings = tuple((index, term)
                         for index, term in enumerate(atom.args)
                         if isinstance(term, Constant))
        return cls(predicate=atom.predicate, arity=len(atom.args),
                   bindings=bindings)

    def matches(self, row: Row) -> bool:
        """Whether a row (tuple of constants) satisfies the bound filter."""
        if self.arity is not None and len(row) != self.arity:
            return False
        return all(index < len(row) and row[index] == constant
                   for index, constant in self.bindings)

    def to_wire(self) -> str:
        if self.arity is None:
            return self.predicate
        terms = {index: str(constant) for index, constant in self.bindings}
        args = [terms.get(index, f"x{index}") for index in range(self.arity)]
        return f"{self.predicate}({', '.join(args)})"


def parse_goals(goals: object) -> tuple[BoundGoal, ...]:
    """Parse a wire ``goals`` value into bound goals (typed errors on junk)."""
    if isinstance(goals, str):
        goals = [goals]
    if not isinstance(goals, (list, tuple)) or not goals:
        raise SubscriptionError(
            "subscribe requires a non-empty list of goal strings, got "
            f"{goals!r}")
    return tuple(BoundGoal.parse(goal) for goal in goals)


# ---------------------------------------------------------------------------
# frames


def delta_frame(txn_id: str | None, epoch: int,
                inserted: Mapping[str, Iterable[Row]],
                deleted: Mapping[str, Iterable[Row]]) -> dict:
    """One commit's induced delta, restricted to a subscription."""
    return {"kind": "delta", "txn_id": txn_id, "epoch": epoch,
            "inserted": rows_to_lists(inserted),
            "deleted": rows_to_lists(deleted)}


def resync_frame(epoch: int, reason: str) -> dict:
    """Delta coverage was lost; the subscriber must re-pull full state."""
    return {"kind": "resync", "epoch": epoch, "reason": reason}


def closed_frame(error_type: str, message: str) -> dict:
    """Terminal frame: the server dropped this subscription."""
    return {"kind": "closed", "error_type": error_type, "message": message}


def frame_is_empty(frame: Mapping) -> bool:
    """True for a delta frame that carries no rows at all."""
    return (frame.get("kind") == "delta"
            and not frame.get("inserted") and not frame.get("deleted"))


# ---------------------------------------------------------------------------
# the bus


@dataclass
class Subscription:
    """One registered standing query and its delivery callback."""

    sub_id: str
    goals: tuple[BoundGoal, ...]
    callback: Callable[[dict], None]
    #: Emit a frame for every published delta even when the restriction is
    #: empty.  The shard layers use this so a coordinated commit yields a
    #: frame from *every* participant, letting the merger know when the
    #: set is complete.
    emit_empty: bool = False
    predicates: frozenset[str] = field(init=False)
    #: No constant-bound positions anywhere: every row of a watched
    #: predicate matches, so a frame built once can be fanned out as-is.
    unfiltered: bool = field(init=False)

    def __post_init__(self) -> None:
        self.predicates = frozenset(goal.predicate for goal in self.goals)
        self.unfiltered = not any(goal.bindings for goal in self.goals)

    def restrict(self, delta: Mapping[str, Iterable[Row]]) -> dict:
        """The sub-mapping of *delta* matching this subscription's goals."""
        out: dict[str, set] = {}
        for goal in self.goals:
            rows = delta.get(goal.predicate)
            if not rows:
                continue
            hits = {row for row in rows if goal.matches(row)}
            if hits:
                out.setdefault(goal.predicate, set()).update(hits)
        return out

    def describe(self) -> dict:
        return {"subscription_id": self.sub_id,
                "goals": [goal.to_wire() for goal in self.goals],
                "predicates": sorted(self.predicates)}


class FeedBus:
    """Registry plus synchronous fan-out of change-feed frames.

    Thread-safe; :meth:`publish_delta` / :meth:`publish_resync` are called
    from commit threads while subscriptions come and go from server
    sessions.  Callbacks run on the publishing thread and must be cheap
    and non-blocking (the server's callbacks only append to a bounded
    in-memory channel); a callback that raises is unsubscribed.
    """

    def __init__(self, metrics=None):
        self._lock = threading.Lock()
        self._subs: dict[str, Subscription] = {}
        self._metrics = metrics
        self._ids = itertools.count(1)

    # -- registry --------------------------------------------------------------

    def subscribe(self, goals: tuple[BoundGoal, ...],
                  callback: Callable[[dict], None], *,
                  emit_empty: bool = False) -> Subscription:
        with self._lock:
            sub = Subscription(sub_id=f"sub-{next(self._ids)}", goals=goals,
                               callback=callback, emit_empty=emit_empty)
            self._subs[sub.sub_id] = sub
        return sub

    def unsubscribe(self, sub_id: str) -> bool:
        with self._lock:
            return self._subs.pop(sub_id, None) is not None

    @property
    def active(self) -> int:
        with self._lock:
            return len(self._subs)

    def watched_predicates(self) -> frozenset[str]:
        with self._lock:
            subs = list(self._subs.values())
        out: set[str] = set()
        for sub in subs:
            out |= sub.predicates
        return frozenset(out)

    def _snapshot(self) -> list[Subscription]:
        with self._lock:
            return list(self._subs.values())

    # -- publishing ------------------------------------------------------------

    def publish_delta(self, *, txn_id: str | None, epoch: int,
                      inserted: Mapping[str, Iterable[Row]],
                      deleted: Mapping[str, Iterable[Row]]) -> int:
        """Fan one commit's induced delta out; returns frames delivered.

        Unfiltered subscriptions covering every touched predicate share
        one frame built once (each gets its own shallow copy), so fan-out
        to N such subscribers costs N dict copies, not N row
        normalisations -- the common case for full-view feeds.
        """
        sent = 0
        shared: dict | None = None
        live_ins = frozenset(p for p, rows in inserted.items() if rows)
        live_dels = frozenset(p for p, rows in deleted.items() if rows)
        for sub in self._snapshot():
            if (sub.unfiltered and live_ins <= sub.predicates
                    and live_dels <= sub.predicates):
                if not live_ins and not live_dels and not sub.emit_empty:
                    continue
                if shared is None:
                    shared = delta_frame(
                        txn_id, epoch,
                        {p: inserted[p] for p in live_ins},
                        {p: deleted[p] for p in live_dels})
                delivered = self._deliver(sub, dict(shared))
            else:
                ins = sub.restrict(inserted)
                dels = sub.restrict(deleted)
                if not ins and not dels and not sub.emit_empty:
                    continue
                delivered = self._deliver(
                    sub, delta_frame(txn_id, epoch, ins, dels))
            if delivered:
                sent += 1
        if sent and self._metrics is not None:
            self._metrics.increment("feed.frames", sent)
        return sent

    def publish_resync(self, *, epoch: int, reason: str) -> int:
        """Tell every subscriber its delta stream lost coverage."""
        sent = 0
        for sub in self._snapshot():
            if self._deliver(sub, resync_frame(epoch, reason)):
                sent += 1
        if sent and self._metrics is not None:
            self._metrics.increment("feed.resync", sent)
        return sent

    def _deliver(self, sub: Subscription, frame: dict) -> bool:
        try:
            sub.callback(frame)
            return True
        except Exception:
            # A broken subscriber must never break the commit: drop it.
            self.unsubscribe(sub.sub_id)
            if self._metrics is not None:
                self._metrics.increment("feed.callback_errors")
            return False


# ---------------------------------------------------------------------------
# shard-side merging


def merge_frames(txn_id: str | None, frames: Iterable[Mapping]) -> dict:
    """Union per-shard delta frames of one transaction into one frame."""
    inserted: dict[str, set] = {}
    deleted: dict[str, set] = {}
    epoch = 0
    for frame in frames:
        epoch = max(epoch, frame.get("epoch") or 0)
        for key, acc in (("inserted", inserted), ("deleted", deleted)):
            for predicate, rows in (frame.get(key) or {}).items():
                acc.setdefault(predicate, set()).update(
                    tuple(row) for row in rows)
    def serialise(acc: dict[str, set]) -> dict:
        return {predicate: sorted(list(row) for row in rows)
                for predicate, rows in sorted(acc.items())}

    return {"kind": "delta", "txn_id": txn_id, "epoch": epoch,
            "inserted": serialise(inserted), "deleted": serialise(deleted)}


class FeedMerger:
    """Merge per-shard feeds into one subscriber stream.

    The coordinator calls :meth:`begin` *before* driving 2PC so frames a
    shard pushes during phase two are buffered rather than forwarded;
    :meth:`commit` / :meth:`abort` record the decision.  A coordinated
    transaction's merged frame is emitted once frames from every expected
    shard have arrived *and* the decision is known, in decision (FIFO)
    order; non-coordinated frames pass straight through.  Empty deltas
    (a shard untouched by the subscription) are folded in silently.
    """

    def __init__(self, emit: Callable[[dict], None]):
        self._emit = emit
        self._lock = threading.Lock()
        #: txn_id -> {"expected": set, "frames": {shard: frame},
        #:            "decided": bool}
        self._pending: dict[str, dict] = {}
        self._order: list[str] = []

    def begin(self, txn_id: str, shards: Iterable[int]) -> None:
        with self._lock:
            self._pending[txn_id] = {"expected": set(shards), "frames": {},
                                     "decided": False}

    def commit(self, txn_id: str) -> None:
        ready = []
        with self._lock:
            entry = self._pending.get(txn_id)
            if entry is None:
                return
            entry["decided"] = True
            self._order.append(txn_id)
            ready = self._drain_locked()
        for frame in ready:
            self._emit(frame)

    def abort(self, txn_id: str) -> None:
        with self._lock:
            self._pending.pop(txn_id, None)

    def on_frame(self, shard: int, frame: Mapping) -> None:
        """One frame arrived from a shard's feed (any thread)."""
        if frame.get("kind") != "delta":
            # resync / closed apply to the merged stream as a whole: the
            # subscriber must re-pull, which supersedes anything buffered
            # (and a stale pending entry would block the queue head).
            with self._lock:
                self._pending.clear()
                self._order.clear()
            self._emit(dict(frame))
            return
        txn_id = frame.get("txn_id")
        ready = []
        with self._lock:
            entry = self._pending.get(txn_id) if txn_id else None
            if entry is not None:
                entry["frames"][shard] = frame
                ready = self._drain_locked()
            elif frame_is_empty(frame):
                return
        if entry is None:
            self._emit(dict(frame))
            return
        for merged in ready:
            self._emit(merged)

    def _drain_locked(self) -> list[dict]:
        """Pop decided head-of-line transactions whose frame sets are full."""
        out = []
        while self._order:
            txn_id = self._order[0]
            entry = self._pending.get(txn_id)
            if entry is None:
                self._order.pop(0)
                continue
            if not (entry["decided"]
                    and set(entry["frames"]) >= entry["expected"]):
                break
            self._order.pop(0)
            self._pending.pop(txn_id, None)
            merged = merge_frames(txn_id, entry["frames"].values())
            if not frame_is_empty(merged):
                out.append(merged)
        return out
