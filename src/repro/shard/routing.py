"""The routing table: which shard owns which base facts.

The extensional database is partitioned **by predicate**: every base
predicate is either *pinned* to one shard (small or hot-in-one-place
relations) or *hashed* -- sub-partitioned across all shards by a stable
hash of its first argument (large relations).  The intensional part
(rules and constraints) is replicated to every shard, so per-shard
integrity checks and scatter-gather reads are exact whenever the body
predicates of a rule are co-located (see docs/SHARDING.md for the
correctness contract this implies -- the U-Datalog "check consistency
over the merged result" framing).

Hashing uses :func:`stable_hash` (SHA-256 based), never Python's builtin
``hash``: placement must agree across processes and across
``PYTHONHASHSEED`` values, or a router restart would scatter reads to the
wrong shards.

The table round-trips through ``routing.json`` in the group directory and
carries each predicate's arity, so every shard can re-declare the *full*
base schema at open time -- a shard holding zero facts of a predicate
must still accept commits for it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import RoutingError
from repro.datalog.parser import parse_atom
from repro.datalog.terms import Constant
from repro.events.events import Transaction

ROUTING_NAME = "routing.json"

#: Placement value meaning "hash-partitioned across all shards".
HASHED = "hash"


def stable_hash(value) -> int:
    """A process-independent hash of a constant value (int or str)."""
    data = f"{type(value).__name__}:{value}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class RoutingTable:
    """Immutable predicate -> placement map for one sharded deployment.

    *placements* maps every routable base predicate to either an ``int``
    (pinned to that shard) or :data:`HASHED`; *arities* carries the
    declared arity of each.
    """

    def __init__(self, n_shards: int,
                 placements: Mapping[str, int | str],
                 arities: Mapping[str, int]):
        if n_shards < 1:
            raise RoutingError("a shard group needs at least one shard")
        for predicate, placement in placements.items():
            if placement == HASHED:
                continue
            if not isinstance(placement, int) or not (
                    0 <= placement < n_shards):
                raise RoutingError(
                    f"predicate {predicate!r} pinned to shard "
                    f"{placement!r}, but shards are 0..{n_shards - 1}")
        missing = set(placements) - set(arities)
        if missing:
            raise RoutingError(
                f"no arity recorded for predicate(s): {sorted(missing)}")
        self.n_shards = n_shards
        self.placements = dict(placements)
        self.arities = {p: arities[p] for p in placements}

    @classmethod
    def for_database(cls, db: DeductiveDatabase, n_shards: int,
                     pinned: Mapping[str, int] | None = None
                     ) -> "RoutingTable":
        """Route every base predicate of *db*: pinned where asked, else hashed."""
        pinned = dict(pinned or {})
        schema = db.schema
        placements: dict[str, int | str] = {}
        arities: dict[str, int] = {}
        for predicate in sorted(schema.base):
            placements[predicate] = pinned.pop(predicate, HASHED)
            arities[predicate] = schema.arity(predicate)
        if pinned:
            raise RoutingError(
                f"pinned predicate(s) not in the base schema: "
                f"{sorted(pinned)}")
        return cls(n_shards, placements, arities)

    def declare_schema(self, db: DeductiveDatabase) -> None:
        """Declare every routed base predicate on one shard's database.

        Snapshots only render facts and rules, so a base predicate with
        no facts on a shard (and no mention in a rule) would vanish across
        a reopen; the routing table is the durable schema record.
        """
        for predicate, arity in self.arities.items():
            db.declare_base(predicate, arity)

    # -- placement -------------------------------------------------------------

    def shard_of(self, predicate: str, args: Iterable) -> int:
        """The shard owning the fact ``predicate(args)``."""
        placement = self.placements.get(predicate)
        if placement is None:
            raise RoutingError(
                f"predicate {predicate!r} is not in the routing table; "
                f"routable predicates: {', '.join(sorted(self.placements))}")
        if placement != HASHED:
            return placement
        args = tuple(args)
        if not args:
            # A 0-ary predicate has no partition key; its single fact gets
            # a stable home derived from the name.
            return stable_hash(predicate) % self.n_shards
        first = args[0]
        value = first.value if isinstance(first, Constant) else first
        return stable_hash(value) % self.n_shards

    def split(self, transaction: Transaction) -> dict[int, Transaction]:
        """Partition a transaction's events by owning shard.

        Raises :class:`RoutingError` on events touching predicates absent
        from the table (unknown or derived -- neither has a home shard).
        """
        by_shard: dict[int, list] = {}
        for event in transaction:
            shard = self.shard_of(event.predicate, event.args)
            by_shard.setdefault(shard, []).append(event)
        return {shard: Transaction(events)
                for shard, events in sorted(by_shard.items())}

    def shards_for_goal(self, goal: str) -> list[int]:
        """The shards that must answer a query *goal*.

        A hashed predicate with a constant first argument routes to
        exactly one shard; anything else -- unbound key, pinned lookup,
        or a predicate outside the table (derived views live on every
        shard) -- names the owning shard(s) or all of them.
        """
        atom = parse_atom(goal)
        placement = self.placements.get(atom.predicate)
        if placement is None:
            return list(range(self.n_shards))
        if placement != HASHED:
            return [placement]
        if atom.args and isinstance(atom.args[0], Constant):
            return [self.shard_of(atom.predicate, atom.args)]
        return list(range(self.n_shards))

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "v": 1,
            "n_shards": self.n_shards,
            "predicates": {
                predicate: {"placement": placement,
                            "arity": self.arities[predicate]}
                for predicate, placement in sorted(self.placements.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RoutingTable":
        try:
            n_shards = int(payload["n_shards"])
            predicates = payload["predicates"]
            placements = {p: spec["placement"]
                          for p, spec in predicates.items()}
            arities = {p: int(spec["arity"])
                       for p, spec in predicates.items()}
        except (KeyError, TypeError, ValueError) as error:
            raise RoutingError(f"malformed routing table: {error}") from None
        return cls(n_shards, placements, arities)

    def save(self, directory: Path) -> Path:
        path = Path(directory) / ROUTING_NAME
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.to_dict(), indent=2,
                                        sort_keys=True) + "\n")
        temporary.replace(path)
        return path

    @classmethod
    def load(cls, directory: Path) -> "RoutingTable":
        """Load from a group directory (or the ``routing.json`` itself)."""
        base = Path(directory)
        path = base if base.suffix == ".json" else base / ROUTING_NAME
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise RoutingError(f"no routing table at {path}") from None
        except json.JSONDecodeError as error:
            raise RoutingError(
                f"unreadable routing table {path}: {error}") from None
        return cls.from_dict(payload)
