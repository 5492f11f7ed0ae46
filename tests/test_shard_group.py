"""EngineGroup behaviour: partitioning, scatter-gather, 2PC, degrade.

The scatter-gather, commit, degraded-aggregation and feed-merge classes
run twice: over in-process engines (``EngineGroup.open``, the
``shard-serve`` topology) and over shard servers hosted on
:class:`ServerThread` threads in this process (``EngineGroup.connect``, the
``route`` topology).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import DatalogError, RoutingError
from repro.datalog.terms import Constant
from repro.events.events import parse_transaction
from repro.events.requests import parse_request
from repro.problems import ICCheckResult
from repro.problems.condition_monitoring import ConditionChanges
from repro.server import protocol
from repro.server.engine import DatabaseEngine
from repro.server.server import ServerThread
from repro.shard import EngineGroup, RoutingTable

from tests import faultkit


def employment_db(constraint_head: str = "Ic1") -> DeductiveDatabase:
    db = DeductiveDatabase.from_source(f"""
        La(Dolors). U_benefit(Dolors).
        La(Pere). U_benefit(Pere). Works(Pere).
        Unemp(x) <- La(x) & not Works(x).
        {constraint_head} <- Unemp(x) & not U_benefit(x).
    """)
    return db


def open_group(tmp_path, shards=3, **kwargs) -> EngineGroup:
    return EngineGroup.open(tmp_path / "grp", employment_db(),
                            shards=shards, **kwargs)


#: Resilient-client options for remote groups: give up on a dead shard
#: after two quick attempts instead of the default backoff schedule.
FAST_CLIENT = {"timeout": 5.0, "max_attempts": 2, "base_delay": 0.01,
               "max_delay": 0.05}


def serve_shards(group_dir: Path) -> list[ServerThread]:
    """Host each shard of a laid-out group directory on a ServerThread,
    as ``repro serve SHARD_DIR --routing routing.json`` would."""
    routing = RoutingTable.load(group_dir)
    servers = []
    for index in range(routing.n_shards):
        engine = DatabaseEngine.open(group_dir / f"shard-{index}")
        routing.declare_schema(engine.db)
        server = ServerThread(engine)
        server.start()
        servers.append(server)
    return servers


def connect(group_dir: Path, servers: list[ServerThread]) -> EngineGroup:
    return EngineGroup.connect(
        group_dir, [("127.0.0.1", server.port) for server in servers],
        **FAST_CLIENT)


class Backend:
    """Opens groups one way (``local`` or ``remote``); takes shards down."""

    def __init__(self, name: str):
        self.name = name
        #: The wire error type a read against a downed shard raises.
        self.down_type = "closed" if name == "local" else "unavailable"
        self.servers: list[ServerThread] = []
        self.groups: list[EngineGroup] = []

    def open(self, tmp_path, shards: int = 3,
             db: DeductiveDatabase | None = None) -> EngineGroup:
        group = EngineGroup.open(tmp_path / "grp",
                                 db if db is not None else employment_db(),
                                 shards=shards)
        if self.name == "remote":
            group.close()
            self.servers = serve_shards(tmp_path / "grp")
            group = connect(tmp_path / "grp", self.servers)
        self.groups.append(group)
        return group

    def take_down(self, group: EngineGroup, index: int) -> None:
        if self.name == "local":
            group.engines[index].close()
        else:
            self.servers[index].stop()

    def close(self) -> None:
        for group in self.groups:
            group.close()
        for server in self.servers:
            server.stop()


@pytest.fixture(params=["local", "remote"])
def backend(request):
    opened = Backend(request.param)
    yield opened
    opened.close()


def wait_for(frames: list, count: int, deadline: float = 10.0) -> None:
    """Block until *count* frames arrived (remote taps push on threads)."""
    end = time.monotonic() + deadline
    while len(frames) < count and time.monotonic() < end:
        time.sleep(0.01)
    assert len(frames) >= count, f"only {len(frames)} of {count} frames"


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
    def test_query_merges_shard_answers(self, tmp_path, backend):
        group = backend.open(tmp_path)
        assert group.query("La(x)") == [("Dolors",), ("Pere",)]
        assert group.query("Unemp(x)") == [("Dolors",)]
        group.close()

    def test_bound_key_routes_to_one_shard(self, tmp_path, backend):
        group = backend.open(tmp_path)
        assert group.routing.shards_for_goal("La(Dolors)") == \
            [group.routing.shard_of("La", ("Dolors",))]
        assert group.query("La(Dolors)") == [()]
        group.close()

    def test_upward_merges_induced_events(self, tmp_path, backend):
        group = backend.open(tmp_path)
        a, b = cross_shard_names(group)
        transaction = parse_transaction(f"insert La({a}), insert La({b})")
        result = group.upward(transaction)
        induced = result.insertions.get("Unemp", frozenset())
        assert {row[0].value for row in induced} == {a, b}
        group.close()

    def test_check_merges_violations(self, tmp_path, backend):
        group = backend.open(tmp_path)
        a, b = cross_shard_names(group)
        verdict = group.check(parse_transaction(
            f"insert La({a}), insert La({b})"))
        assert not verdict.ok  # both unemployed without benefit
        assert verdict.violations == {"Ic1": frozenset({()})}
        group.close()

    def test_check_merges_witness_rows_per_constraint(self, tmp_path,
                                                      backend):
        """Each shard's witness rows survive the merge (a union per
        constraint), and the merged verdict crosses the wire."""
        group = backend.open(tmp_path, db=employment_db("Ic1(x)"))
        a, b = cross_shard_names(group)
        transaction = parse_transaction(f"insert La({a}), insert La({b})")
        verdict = group.check(transaction)
        assert not verdict.ok
        assert verdict.violations == {
            "Ic1": frozenset({(Constant(a),), (Constant(b),)})}
        decoded = ICCheckResult.from_dict(verdict.to_dict())
        assert (decoded.ok, decoded.violations) == (False,
                                                   verdict.violations)
        response = protocol.dispatch(group, protocol.Request(
            op="check", params={"transaction": transaction.to_text()}))
        assert response.ok, response.error
        assert response.result["violations"] == {"Ic1": sorted([[a], [b]])}
        group.close()

    def test_multi_shard_rejects_single_state_ops(self, tmp_path, backend):
        group = backend.open(tmp_path)
        with pytest.raises(RoutingError, match="monitor"):
            group.monitor(parse_transaction("insert Works(Dolors)"), ["Unemp"])
        with pytest.raises(RoutingError, match="downward"):
            group.downward([])
        with pytest.raises(RoutingError, match="repair"):
            group.repair()
        group.close()


class TestCommits:
    def test_single_shard_commit_routes_directly(self, tmp_path, backend):
        group = backend.open(tmp_path)
        outcome = group.commit(parse_transaction("insert Works(Dolors)"))
        assert outcome.applied
        assert group.metrics.counter("router.single_shard_commits") == 1
        assert group.metrics.counter("router.cross_shard_commits") == 0
        assert len(group.decisions) == 0  # no 2PC for one participant
        group.close()

    def test_cross_shard_commit_runs_2pc(self, tmp_path, backend):
        group = backend.open(tmp_path)
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

    def test_cross_shard_veto_aborts_everywhere(self, tmp_path, backend):
        group = backend.open(tmp_path)
        a, b = cross_shard_names(group)
        before = {tuple(r) for r in group.query("La(x)")}
        outcome = group.commit(parse_transaction(
            f"insert La({a}), insert La({b})"))  # no benefits: Ic1 fires
        assert not outcome.applied
        assert outcome.check is not None and not outcome.check.ok
        assert {tuple(r) for r in group.query("La(x)")} == before
        group.close()

    def test_cross_shard_commit_is_idempotent_by_txn_id(self, tmp_path,
                                                        backend):
        group = backend.open(tmp_path)
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

    def test_commit_many_routes_each_transaction(self, tmp_path, backend):
        group = backend.open(tmp_path)
        a, b = cross_shard_names(group)
        outcomes = group.commit_many([
            parse_transaction("insert Works(Dolors)"),
            parse_transaction(f"insert La({a}), insert U_benefit({a}), "
                              f"insert La({b}), insert U_benefit({b})"),
        ], txn_ids=["m-1", "m-2"])
        assert [outcome.applied for outcome in outcomes] == [True, True]
        assert group.metrics.counter("router.single_shard_commits") == 1
        assert group.metrics.counter("router.cross_shard_commits") == 1
        assert group.query("Unemp(x)") == sorted([(a,), (b,)], key=str)
        group.close()

    def test_cross_shard_maintain_policy_is_rejected(self, tmp_path,
                                                     backend):
        group = backend.open(tmp_path)
        a, b = cross_shard_names(group)
        with pytest.raises(RoutingError, match="reject"):
            group.commit(parse_transaction(
                f"insert La({a}), insert La({b})"), on_violation="maintain")
        group.close()

    def test_unroutable_commit_is_a_typed_error(self, tmp_path, backend):
        group = backend.open(tmp_path)
        with pytest.raises(RoutingError, match="Ghost"):
            group.commit(parse_transaction("insert Ghost(X)"))
        group.close()

    def test_prepared_keys_block_conflicting_commits(self, tmp_path,
                                                     backend):
        group = backend.open(tmp_path)
        a, b = cross_shard_names(group)
        shard = group.routing.shard_of("La", (a,))
        engine = group.engines[shard]
        sub = parse_transaction(f"insert La({a}), insert U_benefit({a})")
        vote = engine.prepare(sub, "held-1")
        assert vote["vote"] == "commit"
        with pytest.raises(DatalogError) as conflict:
            engine.commit(parse_transaction(f"insert La({a})"))
        assert protocol.error_type_of(conflict.value) == "txn-conflict"
        # Non-overlapping keys still commit while the vote is held.
        assert engine.commit(parse_transaction(
            f"insert Works({a}2), insert La({a}2)")).applied
        engine.decide("held-1", "abort")
        assert engine.commit(parse_transaction(
            f"insert La({a}), insert U_benefit({a})")).applied
        group.close()


class TestDegradedAggregation:
    def test_stats_aggregates_shards(self, tmp_path, backend):
        group = backend.open(tmp_path)
        stats = group.stats()
        assert stats["engine"]["shards"] == 3
        assert stats["engine"]["facts"] == 5
        assert stats["engine"]["directory"] == str(tmp_path / "grp")
        assert stats["engine"]["feed_subscriptions"] == 0
        assert set(stats["shards"]) == {"0", "1", "2"}
        assert "degraded" not in stats
        group.close()

    def test_stats_degrade_when_a_shard_is_down(self, tmp_path, backend):
        group = backend.open(tmp_path)
        backend.take_down(group, 1)
        stats = group.stats()
        assert stats["degraded"]["shards"] == [1]
        assert stats["degraded"]["errors"]["1"]["type"] == backend.down_type
        assert stats["shards"]["1"] is None
        assert stats["shards"]["0"] is not None
        group.close()

    def test_health_reports_not_ready_but_answers(self, tmp_path, backend):
        group = backend.open(tmp_path)
        assert group.health()["ready"] is True
        backend.take_down(group, 2)
        health = group.health()
        assert health["live"] is True
        assert health["ready"] is False
        if backend.name == "local":
            # A closed in-process engine still answers health (not-ready).
            assert health["shards"]["2"]["ready"] is False
        else:
            # A stopped shard server cannot answer: a typed entry instead.
            assert health["shards"]["2"] is None
            assert health["degraded"]["errors"]["2"]["type"] == \
                "unavailable"
        group.close()

    def test_reads_fail_loudly_when_an_owner_is_down(self, tmp_path,
                                                     backend):
        """Reads must never silently return partial answers."""
        group = backend.open(tmp_path)
        backend.take_down(group, 0)
        with pytest.raises(DatalogError) as failure:
            group.query("La(x)")  # unbound: needs every shard
        assert protocol.error_type_of(failure.value) == backend.down_type
        group.close()


class TestFeedMerge:
    def test_cross_shard_commit_yields_one_merged_frame(self, tmp_path,
                                                        backend):
        group = backend.open(tmp_path)
        a, b = cross_shard_names(group)
        frames: list[dict] = []
        info = group.feed_subscribe(["Unemp"], frames.append)
        assert info["predicates"] == ["Unemp"]
        assert group.commit(parse_transaction(
            f"insert La({a}), insert U_benefit({a}), "
            f"insert La({b}), insert U_benefit({b})")).applied
        wait_for(frames, 1)
        assert frames[0]["kind"] == "delta"
        assert sorted(frames[0]["inserted"]["Unemp"]) == sorted([[a], [b]])
        # A vetoed cross-shard commit pushes nothing, so the next frame
        # is the next applied commit's.
        assert not group.commit(parse_transaction(
            f"insert La({a}9), insert La({b}9)")).applied
        assert group.commit(parse_transaction("delete Works(Pere)")).applied
        wait_for(frames, 2)
        assert frames[1]["inserted"]["Unemp"] == [["Pere"]]
        assert group.stats()["engine"]["feed_subscriptions"] == 1
        group.feed_unsubscribe(info["subscription_id"])
        assert len(frames) == 2
        group.close()


@pytest.fixture
def remote():
    opened = Backend("remote")
    yield opened
    opened.close()


class TestRemoteStart:
    """``EngineGroup.connect`` over shard servers: what ``repro route``
    does when it starts."""

    def test_connect_resolves_in_doubt_votes(self, tmp_path, remote):
        first = remote.open(tmp_path)
        a, _ = cross_shard_names(first)
        participant = first.engines[first.routing.shard_of("La", (a,))]
        # A yes-vote whose coordinator never recorded a decision.
        sub = parse_transaction(f"insert La({a}), insert U_benefit({a})")
        assert participant.prepare(sub, "doubt-1")["vote"] == "commit"
        assert participant.in_doubt == ("doubt-1",)
        first.close()

        group = connect(tmp_path / "grp", remote.servers)
        assert group.metrics.counter("twopc.recovered") == 1
        assert group.decisions.decision("doubt-1") == "abort"
        assert group.health()["in_doubt"] == []
        assert group.query(f"La({a})") == []
        assert group.commit(sub).applied  # the vote's keys are free again
        group.close()

    def test_connect_skips_an_unreachable_shard(self, tmp_path, remote):
        remote.open(tmp_path).close()
        remote.servers[1].stop()
        group = connect(tmp_path / "grp", remote.servers)
        health = group.health()
        assert health["ready"] is False
        assert health["degraded"]["shards"] == [1]
        group.close()

    def test_single_shard_delegates_single_state_ops(self, tmp_path, remote):
        """``monitor``, ``downward`` and ``repair`` delegate on a 1-shard
        remote group and decode to the same results a local engine gives."""
        group = remote.open(tmp_path, shards=1)
        local = EngineGroup.open(tmp_path / "local", employment_db(),
                                 shards=1)
        try:
            transaction = parse_transaction("delete Works(Pere)")
            changes = group.monitor(transaction, ["Unemp"])
            assert isinstance(changes, ConditionChanges)
            assert changes.activated == {"Unemp": frozenset({
                (Constant("Pere"),)})}
            assert changes.to_dict() == \
                local.monitor(transaction, ["Unemp"]).to_dict()
            requests = [parse_request("ins Unemp(Pere)")]
            assert group.downward(requests).to_dict() == \
                local.downward(requests).to_dict()
            # Make the state inconsistent on both, so repair has work.
            lapse = parse_transaction("delete U_benefit(Dolors)")
            for host in (group, local):
                assert host.commit(lapse, on_violation="ignore").applied
            assert group.repair().to_dict() == local.repair().to_dict()
        finally:
            local.close()


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
