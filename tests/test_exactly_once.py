"""Exactly-once commits: the durable idempotency key machinery.

Every ambiguous-ack window the engine has -- a crash anywhere on the
commit path, a deferral timeout, a checkpoint-truncated log, a torn
final line -- is driven here with txn-stamped commits retried *through*
the failure, and the invariant asserted is exact: the final state is
the acked replay, no subsequence slack, and every replayed commit is a
pure dedup hit (``tests/faultkit.py::check_exactly_once``).

The crash matrix reuses the failpoint lists from
``test_crash_recovery.py`` so the two suites cannot drift apart.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core import durable
from repro.core.durable import transaction_digest
from repro.events.events import Transaction, parse_transaction
from repro.server import engine as engine_mod
from repro.server.engine import DatabaseEngine, IdempotencyError

from tests import faultkit
from tests.test_crash_recovery import (
    CHECKPOINT_POINTS,
    COMMIT_POINTS,
    fresh_engine,
)


def idle_people(engine: DatabaseEngine) -> list[str]:
    """People with labour age but no job, sorted (P0..P19 universe)."""
    working = {row[0].value for row in engine.db.facts_of("Works")}
    return sorted(p for p in (f"P{i}" for i in range(20))
                  if p not in working)


def hire(engine: DatabaseEngine, count: int = 1) -> Transaction:
    """A transaction that always passes Ic1: employ idle people."""
    idle = idle_people(engine)
    return Transaction(parse_transaction(
        ", ".join(f"insert Works({p})" for p in idle[:count])))


def strip_benefit(engine: DatabaseEngine) -> Transaction:
    """A transaction Ic1 always rejects: unemployed, benefit deleted."""
    return Transaction(parse_transaction(
        f"delete U_benefit({idle_people(engine)[0]})"))


# -- live-engine dedup semantics ------------------------------------------


def test_duplicate_commit_returns_original_outcome(tmp_path):
    engine = fresh_engine(tmp_path)
    try:
        transaction = hire(engine)
        first = engine.commit(transaction, txn_id="t-1")
        assert first.applied
        before = faultkit.base_facts(engine.db)
        again = engine.commit(transaction, txn_id="t-1")
        assert again.applied and again.effective == first.effective
        assert faultkit.base_facts(engine.db) == before
        assert engine.metrics.counter("dedup.hit") == 1
        assert engine.stats()["engine"]["dedup_size"] == 1
    finally:
        engine.close()


def test_rejected_outcome_is_remembered_too(tmp_path):
    """A durable 'no' is as binding as a durable 'yes': the retry must
    not re-run the integrity check against a luckier state."""
    engine = fresh_engine(tmp_path)
    try:
        rejected = engine.commit(strip_benefit(engine), txn_id="t-no")
        assert not rejected.applied
        again = engine.commit(strip_benefit(engine), txn_id="t-no")
        assert not again.applied
        assert engine.metrics.counter("dedup.hit") == 1
    finally:
        engine.close()


def test_same_txn_id_different_body_is_typed_error(tmp_path):
    engine = fresh_engine(tmp_path)
    try:
        one = hire(engine)
        engine.commit(one, txn_id="t-1")
        other = hire(engine)  # state moved, so a different body
        assert transaction_digest(other) != transaction_digest(one)
        with pytest.raises(IdempotencyError, match="different"):
            engine.commit(other, txn_id="t-1")
    finally:
        engine.close()


@pytest.mark.parametrize("bad", ["", "  ", "a b", "x" * 129, 7, None])
def test_malformed_txn_ids_rejected(tmp_path, bad):
    engine = fresh_engine(tmp_path)
    try:
        if bad is None:
            # None simply means unstamped -- allowed, not recorded.
            outcome = engine.commit(hire(engine), txn_id=None)
            assert outcome.applied
            assert engine.stats()["engine"]["dedup_size"] == 0
        else:
            with pytest.raises(IdempotencyError):
                engine.commit(hire(engine), txn_id=bad)
    finally:
        engine.close()


def test_commit_many_dedups_by_txn_id(tmp_path):
    engine = fresh_engine(tmp_path, max_batch=8)
    try:
        idle = idle_people(engine)
        transactions = [
            Transaction(parse_transaction(f"insert Works({p})"))
            for p in idle[:4]
        ]
        ids = [f"b-{i}" for i in range(4)]
        first = engine.commit_many(transactions, txn_ids=ids)
        assert all(o.applied for o in first)
        before = faultkit.base_facts(engine.db)
        again = engine.commit_many(transactions, txn_ids=ids)
        assert [o.effective for o in again] == [o.effective for o in first]
        assert faultkit.base_facts(engine.db) == before
        assert engine.metrics.counter("dedup.hit") == 4
    finally:
        engine.close()


# -- crashes: retry through every commit-path failpoint -------------------


@pytest.mark.parametrize("point", COMMIT_POINTS)
@pytest.mark.parametrize("skip", [0, 2])
def test_retry_through_commit_crash(tmp_path, point, skip):
    """The fault matrix, exactly-once edition: whatever the crash site,
    retrying with the same txn_id converges on one application."""
    engine = fresh_engine(tmp_path)
    faults.arm(point, "crash", skip=skip, times=1)
    report, recovered = faultkit.run_workload_with_retries(
        engine, tmp_path / "db", steps=25, seed=3)
    try:
        assert report.crashes == 1, f"{point} never fired (skip={skip})"
        assert report.retries >= 1
        faultkit.check_exactly_once(report, recovered)
    finally:
        recovered.close()


def test_retry_through_commit_crash_counting_mode(tmp_path):
    """Exactly-once replays hold under the counting maintainer too: the
    recovered engine re-bootstraps counts, replays are pure dedup hits,
    and the maintained extensions match the oracle."""
    engine = fresh_engine(tmp_path)
    assert engine.stats()["engine"]["maintainer"] == "counting"
    faults.arm(engine_mod.FP_MID_CACHE_ADVANCE, "crash", skip=1, times=1)
    report, recovered = faultkit.run_workload_with_retries(
        engine, tmp_path / "db", steps=25, seed=3)
    try:
        assert report.crashes == 1
        assert recovered.maintainer.active
        faultkit.check_exactly_once(report, recovered)
    finally:
        recovered.close()


@pytest.mark.parametrize("point", COMMIT_POINTS)
def test_retry_through_repeated_crashes(tmp_path, point):
    """Crashing again on a later commit -- after a recovery already
    replayed txn records -- must still dedup correctly."""
    engine = fresh_engine(tmp_path)
    faults.arm(point, "crash", skip=1, times=1)

    def rearm(crashes: int) -> None:
        if crashes < 3:
            faults.arm(point, "crash", skip=4, times=1)

    report, recovered = faultkit.run_workload_with_retries(
        engine, tmp_path / "db", steps=25, seed=5, rearm=rearm)
    try:
        assert report.crashes == 3
        faultkit.check_exactly_once(report, recovered)
    finally:
        recovered.close()


@pytest.mark.parametrize("point", CHECKPOINT_POINTS)
def test_dedup_survives_checkpoint_crash(tmp_path, point):
    """The sidecar is written before the log is truncated, so a crash
    inside checkpoint loses no txn records either way."""
    engine = fresh_engine(tmp_path)
    transaction = hire(engine)
    outcome = engine.commit(transaction, txn_id="pre-ckpt")
    assert outcome.applied
    faults.arm(point, "crash", times=1)
    with pytest.raises(faults.SimulatedCrash):
        engine.checkpoint()
    faults.reset()
    recovered = faultkit.recover(tmp_path / "db")
    try:
        replay = recovered.commit(transaction, txn_id="pre-ckpt")
        assert replay.applied
        assert replay.effective.to_dict() == outcome.effective.to_dict()
        assert recovered.metrics.counter("dedup.hit") == 1
    finally:
        recovered.close()


def test_crash_between_fsync_and_ack_then_retry_is_noop(tmp_path):
    """The sharpest ambiguous ack: the WAL line is durable but the caller
    never heard.  The retry must be a pure dedup hit, not a re-apply."""
    engine = fresh_engine(tmp_path)
    transaction = hire(engine, count=2)
    faults.arm(engine_mod.FP_PRE_ACK, "crash", times=1)
    with pytest.raises(faults.SimulatedCrash):
        engine.commit(transaction, txn_id="ambiguous")
    faults.reset()
    recovered = faultkit.recover(tmp_path / "db")
    try:
        before = faultkit.base_facts(recovered.db)
        # The first attempt *was* durable: its effects are already there.
        for event in transaction:
            assert (event.predicate, event.args) in before
        replay = recovered.commit(transaction, txn_id="ambiguous")
        assert replay.applied
        assert recovered.metrics.counter("dedup.hit") == 1
        assert faultkit.base_facts(recovered.db) == before
        faultkit.check_derived_oracle(recovered)
    finally:
        recovered.close()


def test_rejected_outcome_survives_recovery(tmp_path):
    """Rejections are durably remembered via marker lines: after a crash
    the retry still sees 'no', even though no events were logged."""
    engine = fresh_engine(tmp_path)
    transaction = strip_benefit(engine)
    rejected = engine.commit(transaction, txn_id="t-no")
    assert not rejected.applied
    recovered = faultkit.recover(tmp_path / "db")  # abandon, re-open
    try:
        replay = recovered.commit(transaction, txn_id="t-no")
        assert not replay.applied
        assert recovered.metrics.counter("dedup.hit") == 1
    finally:
        recovered.close()


def test_digest_mismatch_survives_recovery(tmp_path):
    """The recorded digest -- not just the id -- is durable: after a
    crash, reusing the id with a different body is still the typed
    error, not a silent replay of the old outcome."""
    engine = fresh_engine(tmp_path)
    engine.commit(hire(engine), txn_id="t-1")
    recovered = faultkit.recover(tmp_path / "db")
    try:
        with pytest.raises(IdempotencyError, match="different"):
            recovered.commit(strip_benefit(recovered), txn_id="t-1")
    finally:
        recovered.close()


def test_dedup_survives_checkpoint_then_torn_tail(tmp_path):
    """Records checkpointed into the sidecar and records in the live log
    both survive a torn final line; the torn fragment's own txn does
    not falsely count as recorded."""
    engine = fresh_engine(tmp_path)
    report, engine = faultkit.run_workload_with_retries(
        engine, tmp_path / "db", steps=6, seed=21)
    engine.checkpoint()  # every record so far moves to the sidecar
    more, engine = faultkit.run_workload_with_retries(
        engine, tmp_path / "db", steps=4, seed=22)
    faults.arm(durable.FP_WAL_MID_APPEND, "torn", param=0.5, times=1)
    torn_txn = faultkit.random_transaction(engine.db, n_events=3, seed=99)
    with pytest.raises(faults.SimulatedCrash):
        engine.commit(torn_txn, txn_id="torn-tail")
    faults.reset()
    recovered = faultkit.recover(tmp_path / "db")
    try:
        # All pre-tear records still answer as dedup hits...
        outcomes = {**report.outcomes, **more.outcomes}
        recorded = {**report.transactions, **more.transactions}
        for txn_id, transaction in recorded.items():
            replay = recovered.commit(transaction, txn_id=txn_id)
            assert replay.applied == outcomes[txn_id]["applied"]
        assert recovered.metrics.counter("dedup.hit") == len(recorded)
        # ...and the torn transaction, never durable, applies fresh.
        retry = recovered.commit(torn_txn, txn_id="torn-tail")
        assert recovered.metrics.counter("dedup.hit") == len(recorded)
        again = recovered.commit(torn_txn, txn_id="torn-tail")
        assert again.applied == retry.applied
        faultkit.check_derived_oracle(recovered)
    finally:
        recovered.close()


def test_dedup_table_is_bounded(tmp_path):
    """The table is a FIFO ring: old records fall out at capacity, and
    the capacity is honoured across recovery."""
    engine = fresh_engine(tmp_path, dedup_capacity=8)
    try:
        for index in range(12):
            # Hiring an unknown person: no La fact, so Ic1 cannot fire.
            engine.commit(
                Transaction(parse_transaction(f"insert Works(Q{index})")),
                txn_id=f"t-{index}")
        assert engine.stats()["engine"]["dedup_size"] == 8
        assert engine.stats()["engine"]["dedup_capacity"] == 8
    finally:
        engine.close()
    recovered = faultkit.recover(tmp_path / "db", dedup_capacity=8)
    try:
        assert recovered.stats()["engine"]["dedup_size"] == 8
    finally:
        recovered.close()


def test_deferral_timeout_names_the_retry_path():
    """The stamped commit's ambiguous-timeout guidance is 'retry with the
    same txn_id', not the old 're-query' escape hatch."""
    doc = (engine_mod.ConflictDeferralTimeout.__doc__ or "").lower()
    assert "retry" in doc and "txn" in doc
