"""The per-layer split of a traced run.

Inputs: the untraced pass and the traced pass of the same ops (client
samples), the server's ``stats`` after the traced pass and the spans the
traced launcher wrote.  A layer's *self time* is a span's duration minus
the part of it that its child spans cover.  A metric of a layer the
workload does not exercise is reported as 0.

``engine.batch_size`` is ``DatabaseEngine.commit`` calls per
``commit.batches`` (transactions per group-commit batch).  Latencies are
medians per call, except ``engine.lock_wait_ms`` (a mean:
most acquisitions do not wait).  A span nested in a span of the same name
(a subclass method calling its base) is counted once, as the outer call.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: Per-layer metric -> (unit, better).
PER_LAYER = {
    "server.wire_ms": ("ms", "lower"),
    "server.dispatch_ms": ("ms", "lower"),
    "requests.parse_ms": ("ms", "lower"),
    "engine.commit_ms": ("ms", "lower"),
    "engine.lock_wait_ms": ("ms", "lower"),
    "engine.batch_size": ("count", "higher"),
    "engine.reject_share": ("ratio", "lower"),
    "maintainers.check_ms": ("ms", "lower"),
    "maintainers.advance_ms": ("ms", "lower"),
    "processor.upward_calls_per_commit": ("count", "lower"),
    "durable.append_ms": ("ms", "lower"),
    "durable.fsync_ms": ("ms", "lower"),
    "durable.fsyncs_per_commit": ("count", "lower"),
    "durable.bytes_per_commit": ("B", "lower"),
    "evaluation.query_ms": ("ms", "lower"),
    "evaluation.materialize_ms": ("ms", "lower"),
    "evaluation.materializations_per_read": ("count", "lower"),
    "evaluation.rows_per_answer": ("count", "lower"),
    "downward.translate_ms": ("ms", "lower"),
    "upward.whatif_ms": ("ms", "lower"),
    "feed.publish_ms": ("ms", "lower"),
    "feed.frames_per_commit": ("count", "lower"),
    "shard.scatter_ms": ("ms", "lower"),
    "shard.prepare_ms": ("ms", "lower"),
    "shard.decide_ms": ("ms", "lower"),
    "shard.cross_shard_share": ("ratio", "lower"),
    "shard.fanout_per_read": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.commit_coverage": ("ratio", "higher"),
    "trace.lookup_coverage": ("ratio", "higher"),
    "loadgen.cpu_us_per_op": ("us", "lower"),
    "client.throughput_ops_s": ("1/s", "higher"),
    "client.commit_p50_ms": ("ms", "lower"),
    "client.commit_tail_ms": ("ms", "lower"),
    "client.lookup_p50_ms": ("ms", "lower"),
    "client.lookup_tail_ms": ("ms", "lower"),
    "client.scan_p50_ms": ("ms", "lower"),
    "client.whatif_p50_ms": ("ms", "lower"),
    "client.whatif_tail_ms": ("ms", "lower"),
    "client.feed_lag_p50_ms": ("ms", "lower"),
    "client.failed_frac": ("ratio", "lower"),
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms(ns: float) -> float:
    return ns / 1e6


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of *intervals*."""
    total, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


class Spans:
    """The span forest of the measured requests of one traced pass.

    Spans of other requests (the output checks after the loop) and of no
    request (start-up, shutdown) are left out.
    """

    def __init__(self, path: Path, request_ids):
        rows = (tuple(json.loads(line)) for line in open(path))
        self.rows = [row for row in rows if row[5] in request_ids]
        self.by_id = {row[0]: row for row in self.rows}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for row in self.rows:
            if row[1]:
                self.children[row[1]].append(row)

    def named(self, *names: str) -> list[tuple]:
        """Outermost spans with one of *names*."""
        wanted = set(names)
        return [row for row in self.rows if row[2] in wanted
                and self.by_id.get(row[1], (None,) * 3)[2] != row[2]]

    def durations_ms(self, *names: str, ops=None) -> list[float]:
        return [_ms(row[4] - row[3]) for row in self.named(*names)
                if ops is None or row[6] in ops]

    def child_cover(self, row: tuple) -> int:
        return _covered([(c[3], c[4]) for c in self.children[row[0]]])


def _counter(stats: dict, name: str) -> float:
    """Sum of a ``stats`` counter over the server and each of its shards."""
    total = (stats.get("counters") or {}).get(name, 0)
    for shard in (stats.get("shards") or {}).values():
        if shard:
            total += (shard.get("counters") or {}).get(name, 0)
    return total


def per_layer(plain, loop, stats: dict, spans_path: Path, client: dict
              ) -> tuple[dict, dict]:
    """``(metrics, units)`` for ``--trace 1``; *client* holds the
    ``client.*`` metrics of the untraced pass."""
    samples = {s.request_id: s for s in loop.samples}
    spans = Spans(spans_path, samples)
    roots = {row[5]: row for row in spans.named("server.dispatch")
             if row[5] in samples}
    commits = [s for s in loop.samples if s.op.cls == "commit"]
    reads = [s for s in loop.samples if s.op.op == "query"]
    n_commits, n_reads = max(1, len(commits)), max(1, len(reads))

    def coverage(cls: str) -> float:
        shares = []
        for sample in loop.samples:
            root = roots.get(sample.request_id)
            if sample.op.cls == cls and root is not None:
                shares.append(spans.child_cover(root)
                              / (sample.done_ns - sample.sent_ns))
        return _median(shares)

    def per_request(names, ops) -> float:
        count = sum(1 for row in spans.named(*names) if row[6] in ops)
        return count / (n_commits if "commit" in ops else n_reads)

    commit_spans = spans.named("engine.commit")
    rejected = sum(1 for row in commit_spans
                   if (row[7] or {}).get("applied") is False)
    read_rows = sum((row[7] or {}).get("rows", 0)
                    for row in spans.named("evaluation.materialize")
                    if row[6] == "query")
    answers = sum(s.rows for s in reads)
    batches = _counter(stats, "commit.batches")
    cross = _counter(stats, "router.cross_shard_commits")
    single = _counter(stats, "router.single_shard_commits")
    scatters = len(spans.named("shard.scatter"))
    metrics = {
        "server.wire_ms": _median(
            _ms(samples[rid].done_ns - samples[rid].sent_ns
                - (root[4] - root[3])) for rid, root in roots.items()),
        "server.dispatch_ms": _median(_ms(root[4] - root[3])
                                      for root in roots.values()),
        "requests.parse_ms": _median(spans.durations_ms("requests.parse")),
        "engine.commit_ms": _median(spans.durations_ms("engine.commit")),
        "engine.lock_wait_ms": (
            statistics.fmean(spans.durations_ms("engine.lock_wait"))
            if spans.named("engine.lock_wait") else 0.0),
        "engine.batch_size": len(commit_spans) / batches if batches else 0.0,
        "engine.reject_share": (rejected / len(commit_spans)
                                if commit_spans else 0.0),
        "maintainers.check_ms": _median(
            spans.durations_ms("maintainers.check")),
        "maintainers.advance_ms": _median(
            spans.durations_ms("maintainers.advance")),
        "processor.upward_calls_per_commit": (
            per_request(("upward.interpret",), ("commit",))
            if commits else 0.0),
        "durable.append_ms": _median(spans.durations_ms("durable.append")),
        "durable.fsync_ms": _median(spans.durations_ms("durable.fsync")),
        "durable.fsyncs_per_commit": (
            len(spans.named("durable.fsync")) / n_commits
            if commits else 0.0),
        "durable.bytes_per_commit": (loop.wal_bytes / n_commits
                                     if commits else 0.0),
        "evaluation.query_ms": _median(
            spans.durations_ms("evaluation.query")),
        "evaluation.materialize_ms": _median(spans.durations_ms(
            "evaluation.materialize", ops=("query",))),
        "evaluation.materializations_per_read": (
            per_request(("evaluation.materialize",), ("query",))
            if reads else 0.0),
        "evaluation.rows_per_answer": (read_rows / max(1, answers)
                                       if reads else 0.0),
        "downward.translate_ms": _median(
            spans.durations_ms("processor.downward")),
        "upward.whatif_ms": _median(spans.durations_ms(
            "processor.check", "processor.upward", ops=("check", "upward"))),
        "feed.publish_ms": _median(spans.durations_ms("feed.publish")),
        "feed.frames_per_commit": (_counter(stats, "feed.frames") / n_commits
                                   if commits else 0.0),
        "shard.scatter_ms": _median(spans.durations_ms("shard.scatter")),
        "shard.prepare_ms": _median(spans.durations_ms("shard.prepare")),
        "shard.decide_ms": _median(spans.durations_ms("shard.decide")),
        "shard.cross_shard_share": (cross / (cross + single)
                                    if cross + single else 0.0),
        "shard.fanout_per_read": (len(spans.named("engine.query")) / scatters
                                  if scatters else 0.0),
        "trace.overhead_frac": (loop.server_cpu_s / plain.server_cpu_s - 1.0
                                if plain.server_cpu_s else 0.0),
        "trace.commit_coverage": coverage("commit"),
        "trace.lookup_coverage": coverage("lookup"),
        "loadgen.cpu_us_per_op": plain.cpu_s / max(1, len(plain.samples))
        * 1e6,
    }
    metrics.update(client)
    return metrics, {name: unit for name, (unit, _) in PER_LAYER.items()}
