"""Run a ``repro`` CLI server with spans around its layers' public calls.

    python3 perfbench/traced_server.py --spans SPANS.jsonl -- serve DIR ...

Wraps the public functions listed in :data:`WRAPPED` (nothing under
``src/`` changes), then runs ``repro.cli.main`` with the remaining
arguments.  Each wrapped call becomes a span: name, start, end (both
``perf_counter_ns``), parent span, and the wire request id and op of the
request being dispatched on that thread.  Spans stay in memory and are
written as JSON lines when the server returns from a graceful shutdown.

Parents are tracked per thread; a task submitted to a thread pool from
inside a request (a shard group's scatter-gather) inherits the request
and the submitting span.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: (module, class or None, attribute, span name, how): ``call`` wraps a
#: function or method, ``static`` a staticmethod, ``acquire`` times only
#: entering the context manager the method returns, ``dispatch`` also
#: tags the thread with the request's id and op.  Every class in the
#: module that defines the attribute itself is wrapped (``*`` as class).
WRAPPED = (
    ("repro.server.protocol", None, "dispatch", "server.dispatch", "dispatch"),
    ("repro.requests", "UpdateRequest", "of", "requests.parse", "static"),
    ("repro.server.engine", "DatabaseEngine", "commit", "engine.commit",
     "call"),
    ("repro.server.engine", "DatabaseEngine", "query", "engine.query", "call"),
    ("repro.server.engine", "RWLock", "read", "engine.lock_wait", "acquire"),
    ("repro.server.engine", "RWLock", "write", "engine.lock_wait", "acquire"),
    ("repro.interpretations.maintainers", "*", "check_full",
     "maintainers.check", "call"),
    ("repro.interpretations.maintainers", "*", "advance",
     "maintainers.advance", "call"),
    ("repro.core.processor", "UpdateProcessor", "upward", "processor.upward",
     "call"),
    ("repro.core.processor", "UpdateProcessor", "check", "processor.check",
     "call"),
    ("repro.core.processor", "UpdateProcessor", "downward",
     "processor.downward", "call"),
    ("repro.interpretations.upward", "UpwardInterpreter", "interpret",
     "upward.interpret", "call"),
    ("repro.core.durable", "DurableDatabase", "commit", "durable.append",
     "call"),
    ("repro.core.durable", "DurableDatabase", "log_txn_outcome",
     "durable.append", "call"),
    ("repro.core.durable", "DurableDatabase", "sync_log", "durable.fsync",
     "call"),
    ("repro.datalog.database", "DeductiveDatabase", "query",
     "evaluation.query", "call"),
    # Reads reach the fixpoint through ``_ensure_materialized``, not the
    # public ``materialize``; both run ``_compute``.
    ("repro.datalog.evaluation", "BottomUpEvaluator", "_compute",
     "evaluation.materialize", "call"),
    ("repro.server.feed", "FeedBus", "publish_delta", "feed.publish", "call"),
    ("repro.shard.group", "EngineGroup", "query", "shard.scatter", "call"),
    ("repro.server.engine", "DatabaseEngine", "prepare", "shard.prepare",
     "call"),
    ("repro.server.engine", "DatabaseEngine", "decide", "shard.decide",
     "call"),
)


def _result_attrs(result) -> dict | None:
    """What a span records about a call's result: a commit's outcome, the
    rows a fixpoint derived."""
    applied = getattr(result, "applied", None)
    if isinstance(applied, bool):
        return {"applied": applied}
    if isinstance(result, dict) and all(
            isinstance(rows, (set, frozenset)) for rows in result.values()):
        return {"rows": sum(len(rows) for rows in result.values())}
    return None


class Recorder:
    """Per-thread span stacks and the in-memory span list."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter_ns()

    def close(self, name: str, token: tuple, attrs: dict | None) -> None:
        end = time.perf_counter_ns()
        span_id, parent, start = token
        self._stack().pop()
        request_id, op = getattr(self._local, "request", (None, None))
        self.spans.append((span_id, parent, name, start, end, request_id, op,
                           attrs))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(name, token, _result_attrs(result))
        return traced

    def wrap_dispatch(self, fn, name: str):
        call = self.wrap(fn, name)

        @functools.wraps(fn)
        def traced(engine, request, *args, **kwargs):
            self._local.request = (request.id, request.op)
            try:
                return call(engine, request, *args, **kwargs)
            finally:
                self._local.request = (None, None)
        return traced

    def wrap_acquire(self, fn, name: str):
        recorder = self

        class Acquire:
            def __init__(self, manager):
                self._manager = manager

            def __enter__(self):
                token = recorder.open()
                try:
                    return self._manager.__enter__()
                finally:
                    recorder.close(name, token, None)

            def __exit__(self, *exc_info):
                return self._manager.__exit__(*exc_info)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return Acquire(fn(*args, **kwargs))
        return traced

    def wrap_submit(self, submit):
        """``ThreadPoolExecutor.submit`` that carries the submitting
        thread's request and innermost span into the worker, so work a
        shard group fans out stays under the request that caused it."""
        recorder = self

        @functools.wraps(submit)
        def traced(pool, fn, *args, **kwargs):
            request = getattr(recorder._local, "request", (None, None))
            stack = recorder._stack()
            if request == (None, None) or not stack:
                return submit(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def run(*inner_args, **inner_kwargs):
                recorder._local.request = request
                recorder._local.stack = [parent]
                try:
                    return fn(*inner_args, **inner_kwargs)
                finally:
                    recorder._local.request = (None, None)
                    recorder._local.stack = []
            return submit(pool, run, *args, **kwargs)
        return traced

    def install(self) -> None:
        ThreadPoolExecutor.submit = self.wrap_submit(ThreadPoolExecutor.submit)
        for module_name, class_name, attr, name, how in WRAPPED:
            module = importlib.import_module(module_name)
            if class_name is None:
                owners = [module]
            elif class_name == "*":
                owners = [value for value in vars(module).values()
                          if isinstance(value, type)
                          and value.__module__ == module_name
                          and attr in vars(value)]
            else:
                owners = [getattr(module, class_name, None)]
            owners = [o for o in owners if o is not None and (
                attr in vars(o) if isinstance(o, type) else hasattr(o, attr))]
            if not owners:
                # The program no longer has this entry point: its layer
                # metrics read 0 instead of the launcher failing.
                print(f"traced_server: nothing to wrap for {module_name}."
                      f"{class_name or ''}.{attr}", file=sys.stderr)
            for owner in owners:
                original = (vars(owner)[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                if how == "static":
                    wrapped = staticmethod(self.wrap(original.__func__, name))
                elif how == "dispatch":
                    wrapped = self.wrap_dispatch(original, name)
                elif how == "acquire":
                    wrapped = self.wrap_acquire(original, name)
                else:
                    wrapped = self.wrap(original, name)
                setattr(owner, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True,
                        help="where to write the spans at shutdown")
    parser.add_argument("repro_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_argv = args.repro_argv
    if repro_argv[:1] == ["--"]:
        repro_argv = repro_argv[1:]
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_argv)
    finally:
        recorder.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
