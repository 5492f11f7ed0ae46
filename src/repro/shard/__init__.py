"""Sharded serving: partitioned engines, scatter-gather, 2PC commits.

The shard package scales the single-process serving stack horizontally:

- :mod:`repro.shard.routing` -- the durable partition map.  Each base
  predicate is either pinned to a shard or hash-partitioned by its first
  argument (stable SHA-256, never Python's ``hash``); derived predicates
  are evaluated everywhere and merged.
- :mod:`repro.shard.coordinator` -- presumed-abort two-phase commit over
  the exactly-once substrate: participant votes are durable ``prepared``
  WAL lines, the coordinator's only state is an append-only decision log,
  and in-doubt transactions resolve deterministically at reopen.
- :mod:`repro.shard.group` -- :class:`EngineGroup`, the one shard front:
  N shards behind one engine-shaped facade, hosted in-process by
  :meth:`EngineGroup.open` (``repro shard-serve``) or reached as running
  shard servers by :meth:`EngineGroup.connect` (``repro route``).
- :mod:`repro.shard.router` -- :class:`RemoteShard`, the wire adapter
  that gives one shard server the engine methods the group calls.

One shard is the degenerate case throughout: routing and the group
collapse to plain single-engine behaviour.
"""

from repro.datalog.errors import RoutingError, UnavailableError
from repro.shard.coordinator import (
    DECISIONS_NAME,
    DecisionLog,
    Participant,
    TwoPhaseCoordinator,
)
from repro.shard.group import EngineGroup
from repro.shard.router import RemoteShard
from repro.shard.routing import HASHED, ROUTING_NAME, RoutingTable, stable_hash

__all__ = [
    "DECISIONS_NAME",
    "DecisionLog",
    "EngineGroup",
    "HASHED",
    "Participant",
    "ROUTING_NAME",
    "RemoteShard",
    "RoutingError",
    "RoutingTable",
    "TwoPhaseCoordinator",
    "UnavailableError",
    "stable_hash",
]
