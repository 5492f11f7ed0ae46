"""EngineGroup behaviour: partitioning, scatter-gather, 2PC, degrade."""

from __future__ import annotations

import pytest

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import RoutingError
from repro.events.events import parse_transaction
from repro.server.engine import TxnConflictError
from repro.shard import EngineGroup

from tests import faultkit


def employment_db() -> DeductiveDatabase:
    db = DeductiveDatabase.from_source("""
        La(Dolors). U_benefit(Dolors).
        La(Pere). U_benefit(Pere). Works(Pere).
        Unemp(x) <- La(x) & not Works(x).
        Ic1 <- Unemp(x) & not U_benefit(x).
    """)
    return db


def open_group(tmp_path, shards=3, **kwargs) -> EngineGroup:
    return EngineGroup.open(tmp_path / "grp", employment_db(),
                            shards=shards, **kwargs)


def cross_shard_names(group: EngineGroup, count: int = 2) -> list[str]:
    """Constants provably living on *count* distinct shards."""
    chosen: dict[int, str] = {}
    for index in range(1000):
        name = f"Person{index}"
        shard = group.routing.shard_of("La", (name,))
        chosen.setdefault(shard, name)
        if len(chosen) == count:
            return [chosen[s] for s in sorted(chosen)][:count]
    raise AssertionError("hash never covered enough shards")  # pragma: no cover


class TestPartitioning:
    def test_facts_partition_and_rules_replicate(self, tmp_path):
        group = open_group(tmp_path)
        total = sum(len(list(e.db.iter_facts())) for e in group.engines)
        assert total == 5  # every fact lives on exactly one shard
        for engine in group.engines:
            assert len(engine.db.rules) == 1
            assert len(engine.db.constraints) == 1
        group.close()

    def test_reopen_preserves_schema_on_empty_shards(self, tmp_path):
        """A shard holding zero facts of a predicate must still accept
        commits for it after a reopen (routing.json is the durable
        schema record)."""
        group = open_group(tmp_path)
        group.close()
        group = EngineGroup.open(tmp_path / "grp")
        for engine in group.engines:
            assert set(engine.db.schema.base) >= {"La", "U_benefit", "Works"}
        # Commit a fact of a predicate this shard has never seen.
        name = cross_shard_names(group, 1)[0]
        outcome = group.commit(parse_transaction(
            f"insert La({name}), insert U_benefit({name})"))
        assert outcome.applied
        group.close()

    def test_reopen_with_wrong_shard_count_is_rejected(self, tmp_path):
        group = open_group(tmp_path, shards=3)
        group.close()
        with pytest.raises(RoutingError, match="3-shard"):
            EngineGroup.open(tmp_path / "grp", shards=2)

    def test_reopen_with_initial_is_rejected(self, tmp_path):
        group = open_group(tmp_path)
        group.close()
        with pytest.raises(RoutingError, match="already holds"):
            EngineGroup.open(tmp_path / "grp", employment_db())

    def test_single_shard_is_the_degenerate_case(self, tmp_path):
        group = open_group(tmp_path, shards=1)
        assert group.query("Unemp(x)") == [("Dolors",)]
        outcome = group.commit(parse_transaction("insert Works(Dolors)"))
        assert outcome.applied
        assert group.query("Unemp(x)") == []
        # Single-state ops delegate instead of raising.
        assert group.downward is not None
        group.monitor(parse_transaction("delete Works(Dolors)"), ["Unemp"])
        group.close()


class TestScatterGatherReads:
    def test_query_merges_shard_answers(self, tmp_path):
        group = open_group(tmp_path)
        assert group.query("La(x)") == [("Dolors",), ("Pere",)]
        assert group.query("Unemp(x)") == [("Dolors",)]
        group.close()

    def test_bound_key_routes_to_one_shard(self, tmp_path):
        group = open_group(tmp_path)
        assert group.routing.shards_for_goal("La(Dolors)") == \
            [group.routing.shard_of("La", ("Dolors",))]
        assert group.query("La(Dolors)") == [()]
        group.close()

    def test_upward_merges_induced_events(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        transaction = parse_transaction(f"insert La({a}), insert La({b})")
        result = group.upward(transaction)
        induced = result.insertions.get("Unemp", frozenset())
        assert {row[0].value for row in induced} == {a, b}
        group.close()

    def test_check_merges_violations(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        verdict = group.check(parse_transaction(
            f"insert La({a}), insert La({b})"))
        assert not verdict.ok  # both unemployed without benefit
        group.close()

    def test_multi_shard_rejects_single_state_ops(self, tmp_path):
        group = open_group(tmp_path)
        with pytest.raises(RoutingError, match="monitor"):
            group.monitor(parse_transaction("insert Works(Dolors)"), ["Unemp"])
        with pytest.raises(RoutingError, match="downward"):
            group.downward([])
        group.close()


class TestCommits:
    def test_single_shard_commit_routes_directly(self, tmp_path):
        group = open_group(tmp_path)
        outcome = group.commit(parse_transaction("insert Works(Dolors)"))
        assert outcome.applied
        assert group.metrics.counter("router.single_shard_commits") == 1
        assert group.metrics.counter("router.cross_shard_commits") == 0
        assert len(group.decisions) == 0  # no 2PC for one participant
        group.close()

    def test_cross_shard_commit_runs_2pc(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        outcome = group.commit(parse_transaction(
            f"insert La({a}), insert U_benefit({a}), "
            f"insert La({b}), insert U_benefit({b})"))
        assert outcome.applied
        assert sorted(map(str, outcome.effective)) == sorted(map(
            str, parse_transaction(
                f"insert La({a}), insert U_benefit({a}), "
                f"insert La({b}), insert U_benefit({b})")))
        assert group.metrics.counter("router.cross_shard_commits") == 1
        assert len(group.decisions) == 1
        assert group.query(f"Unemp({a})") == [()]
        group.close()

    def test_cross_shard_veto_aborts_everywhere(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        before = {tuple(r) for r in group.query("La(x)")}
        outcome = group.commit(parse_transaction(
            f"insert La({a}), insert La({b})"))  # no benefits: Ic1 fires
        assert not outcome.applied
        assert outcome.check is not None and not outcome.check.ok
        assert {tuple(r) for r in group.query("La(x)")} == before
        group.close()

    def test_cross_shard_commit_is_idempotent_by_txn_id(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        transaction = parse_transaction(
            f"insert La({a}), insert U_benefit({a}), "
            f"insert La({b}), insert U_benefit({b})")
        first = group.commit(transaction, txn_id="t-1")
        replay = group.commit(transaction, txn_id="t-1")
        assert first.applied and replay.applied
        assert len(group.decisions) == 1
        # Replay re-drove the recorded decision instead of re-applying.
        assert group.metrics.counter("twopc.redriven") == 1
        group.close()

    def test_cross_shard_maintain_policy_is_rejected(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        with pytest.raises(RoutingError, match="reject"):
            group.commit(parse_transaction(
                f"insert La({a}), insert La({b})"), on_violation="maintain")
        group.close()

    def test_unroutable_commit_is_a_typed_error(self, tmp_path):
        group = open_group(tmp_path)
        with pytest.raises(RoutingError, match="Ghost"):
            group.commit(parse_transaction("insert Ghost(X)"))
        group.close()

    def test_prepared_keys_block_conflicting_commits(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        shard = group.routing.shard_of("La", (a,))
        engine = group.engines[shard]
        sub = parse_transaction(f"insert La({a}), insert U_benefit({a})")
        vote = engine.prepare(sub, "held-1")
        assert vote["vote"] == "commit"
        with pytest.raises(TxnConflictError):
            engine.commit(parse_transaction(f"insert La({a})"))
        # Non-overlapping keys still commit while the vote is held.
        assert engine.commit(parse_transaction(
            f"insert Works({a}2), insert La({a}2)")).applied
        engine.decide("held-1", "abort")
        assert engine.commit(parse_transaction(
            f"insert La({a}), insert U_benefit({a})")).applied
        group.close()


class TestDegradedAggregation:
    def test_stats_aggregates_shards(self, tmp_path):
        group = open_group(tmp_path)
        stats = group.stats()
        assert stats["engine"]["shards"] == 3
        assert stats["engine"]["facts"] == 5
        assert set(stats["shards"]) == {"0", "1", "2"}
        assert "degraded" not in stats
        group.close()

    def test_stats_degrade_when_a_shard_is_down(self, tmp_path):
        group = open_group(tmp_path)
        group.engines[1].close()
        stats = group.stats()
        assert stats["degraded"]["shards"] == [1]
        assert stats["degraded"]["errors"]["1"]["type"] == "closed"
        assert stats["shards"]["1"] is None
        assert stats["shards"]["0"] is not None
        group.close()

    def test_health_reports_not_ready_but_answers(self, tmp_path):
        group = open_group(tmp_path)
        assert group.health()["ready"] is True
        group.engines[2].close()
        health = group.health()
        assert health["live"] is True
        assert health["ready"] is False
        # A closed in-process engine still answers health (not-ready);
        # transport-level degradation is the router's test to make.
        assert health["shards"]["2"]["ready"] is False
        group.close()

    def test_reads_fail_loudly_when_an_owner_is_down(self, tmp_path):
        """Reads must never silently return partial answers."""
        from repro.server.engine import EngineClosedError

        group = open_group(tmp_path)
        group.engines[0].close()
        with pytest.raises(EngineClosedError):
            group.query("La(x)")  # unbound: needs every shard
        group.close()


class TestGroupRecovery:
    def test_acked_cross_shard_commits_survive_reopen(self, tmp_path):
        group = open_group(tmp_path)
        a, b = cross_shard_names(group)
        assert group.commit(parse_transaction(
            f"insert La({a}), insert U_benefit({a}), "
            f"insert La({b}), insert U_benefit({b})")).applied
        group.close()
        group = EngineGroup.open(tmp_path / "grp")
        assert group.query(f"La({a})") == [()]
        assert group.query(f"La({b})") == [()]
        for engine in group.engines:
            faultkit.check_derived_oracle(engine)
        group.close()


class TestCountingMode:
    """Each EngineGroup member runs its own counting maintainer; 2PC
    decide applies counted deltas instead of invalidating."""

    def test_members_run_counting_maintainers(self, tmp_path):
        group = open_group(tmp_path)
        try:
            for engine in group.engines:
                assert engine.stats()["engine"]["maintainer"] == "counting"
                assert engine.maintainer.active
        finally:
            group.close()

    def test_cross_shard_commit_applies_counted_deltas(self, tmp_path):
        group = open_group(tmp_path)
        try:
            a, b = cross_shard_names(group)
            outcome = group.commit(parse_transaction(
                f"insert La({a}), insert U_benefit({a}), "
                f"insert La({b}), insert U_benefit({b})"))
            assert outcome.applied
            assert group.metrics.counter("router.cross_shard_commits") == 1
            assert group.query(f"Unemp({a})") == [()]
            # Every member's maintained extensions equal its own naive
            # rebuild -- the decide path advanced counts, not just facts.
            for engine in group.engines:
                faultkit.check_derived_oracle(engine)
                assert engine.metrics.counter("cache.invalidate") == 0
        finally:
            group.close()

    def test_cross_shard_veto_leaves_counts_intact(self, tmp_path):
        group = open_group(tmp_path)
        try:
            a, b = cross_shard_names(group)
            # Unemployed without a benefit on both shards: vetoed.
            outcome = group.commit(parse_transaction(
                f"insert La({a}), insert La({b})"))
            assert not outcome.applied
            for engine in group.engines:
                faultkit.check_derived_oracle(engine)
        finally:
            group.close()
