"""Tests for the command-line driver."""

import pytest

from repro.cli import main, parse_request
from repro.datalog.errors import DatalogError


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.dl"
    path.write_text("""
        La(Dolors). U_benefit(Dolors). Works(Pere). La(Pere).
        Unemp(x) <- La(x) & not Works(x).
        Ic1 <- Unemp(x) & not U_benefit(x).
    """)
    return str(path)


@pytest.fixture
def broken_db_file(tmp_path):
    path = tmp_path / "broken.dl"
    path.write_text("""
        La(Dolors).
        Unemp(x) <- La(x) & not Works(x).
        Ic1 <- Unemp(x) & not U_benefit(x).
    """)
    return str(path)


class TestParseRequest:
    def test_insert(self):
        literal = parse_request("ins P(A)")
        assert literal.predicate == "ins$P" and literal.positive

    def test_delete(self):
        literal = parse_request("del P(A, B)")
        assert literal.predicate == "del$P"

    def test_negative(self):
        literal = parse_request("not ins P(A)")
        assert not literal.positive

    def test_garbage(self):
        with pytest.raises(DatalogError):
            parse_request("upsert P(A)")


class TestCommands:
    def test_table(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "View updating" in out

    def test_describe(self, db_file, capsys):
        assert main(["describe", db_file]) == 0
        out = capsys.readouterr().out
        assert "ιUnemp" in out and "Unempn" in out

    def test_upward(self, db_file, capsys):
        assert main(["upward", db_file, "-t", "delete Works(Pere)"]) == 0
        out = capsys.readouterr().out
        assert "ιUnemp(Pere)" in out

    def test_check_ok(self, db_file, capsys):
        assert main(["check", db_file, "-t", "insert Works(Dolors)"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_check_violation_exit_code(self, db_file, capsys):
        assert main(["check", db_file,
                     "-t", "delete U_benefit(Dolors)"]) == 1
        assert "Ic1" in capsys.readouterr().out

    def test_translate(self, db_file, capsys):
        assert main(["translate", db_file, "-r", "del Unemp(Dolors)"]) == 0
        out = capsys.readouterr().out
        assert "δLa(Dolors)" in out and "ιWorks(Dolors)" in out

    def test_translate_request_set(self, db_file, capsys):
        code = main(["translate", db_file,
                     "-r", "del Unemp(Dolors)", "-r", "not ins Ic"])
        assert code == 0

    def test_translate_unsatisfiable(self, db_file, capsys):
        code = main(["translate", db_file,
                     "-r", "ins Unemp(Pere)", "-r", "not del Works(Pere)",
                     "-r", "not del La(Pere)"])
        # ιUnemp(Pere) needs δWorks(Pere), which is forbidden.
        assert code == 1
        assert "no translation" in capsys.readouterr().out

    def test_repair(self, broken_db_file, capsys):
        assert main(["repair", broken_db_file]) == 0
        assert "consistent after" in capsys.readouterr().out

    def test_monitor(self, db_file, capsys):
        assert main(["monitor", db_file, "-t", "delete Works(Pere)",
                     "-c", "Unemp"]) == 0
        assert "+Unemp(Pere)" in capsys.readouterr().out

    def test_error_reporting(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.dl")
        assert main(["describe", missing]) == 2
        assert "error:" in capsys.readouterr().err


class TestRepl:
    def _run(self, monkeypatch, capsys, db_file, lines):
        commands = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(commands)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        code = main(["repl", db_file])
        return code, capsys.readouterr().out

    def test_query_and_quit(self, monkeypatch, capsys, db_file):
        code, out = self._run(monkeypatch, capsys, db_file,
                              ["? Unemp(x)", "quit"])
        assert code == 0
        assert "Dolors" in out

    def test_apply_and_undo(self, monkeypatch, capsys, db_file):
        code, out = self._run(monkeypatch, capsys, db_file, [
            "+ Works(Maria)", "? Works(x)", "undo", "? Works(x)", "quit",
        ])
        assert code == 0
        assert out.count("Maria") >= 1
        # After undo, Maria is gone from the final query block.
        assert "undid" in out

    def test_rejects_violation(self, monkeypatch, capsys, db_file):
        code, out = self._run(monkeypatch, capsys, db_file, [
            "- U_benefit(Dolors)", "quit",
        ])
        assert "rejected" in out

    def test_translate_and_misc(self, monkeypatch, capsys, db_file):
        code, out = self._run(monkeypatch, capsys, db_file, [
            "help", "rules", "facts", "table",
            "translate del Unemp(Dolors)",
            "check delete U_benefit(Dolors)",
            "bogus-command",
            "quit",
        ])
        assert "commands:" in out
        assert "δLa(Dolors)" in out
        assert "violates Ic1" in out
        assert "unknown command" in out

    def test_parse_error_reported_not_fatal(self, monkeypatch, capsys, db_file):
        code, out = self._run(monkeypatch, capsys, db_file, [
            "? ((", "quit",
        ])
        assert code == 0
        assert "error:" in out


class TestJsonOutput:
    def test_upward_json(self, db_file, capsys):
        import json

        assert main(["upward", db_file, "-t", "delete Works(Pere)",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["insertions"]["Unemp"] == [["Pere"]]

    def test_translate_json(self, db_file, capsys):
        import json

        assert main(["translate", db_file, "-r", "del Unemp(Dolors)",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfiable"] is True
        assert len(payload["translations"]) == 2

    def test_translate_json_unsatisfiable_exit_code(self, db_file, capsys):
        code = main(["translate", db_file,
                     "-r", "ins Unemp(Pere)", "-r", "not del Works(Pere)",
                     "-r", "not del La(Pere)", "--json"])
        assert code == 1


class TestCallCommand:
    """``repro call`` against a server hosted on a background thread."""

    @pytest.fixture
    def served(self, tmp_path, db_file):
        from pathlib import Path

        from repro.datalog import DeductiveDatabase
        from repro.server import DatabaseEngine, ServerThread

        initial = DeductiveDatabase.from_source(Path(db_file).read_text())
        engine = DatabaseEngine.open(tmp_path / "data", initial=initial)
        with ServerThread(engine) as port:
            yield port

    def _call(self, capsys, port, *argv):
        import json

        code = main(["call", "--port", str(port), *argv])
        out = capsys.readouterr().out
        return code, json.loads(out) if out.strip() else None

    def test_ping(self, served, capsys):
        code, payload = self._call(capsys, served, "ping")
        assert code == 0 and payload["pong"] is True

    def test_commit_then_query(self, served, capsys):
        code, payload = self._call(capsys, served, "commit",
                                   "insert Works(Maria)")
        assert code == 0 and payload["applied"] is True
        code, payload = self._call(capsys, served, "query", "Works(x)")
        assert code == 0
        assert ["Maria"] in payload["answers"]

    def test_commit_violation_exit_code(self, served, capsys):
        code, payload = self._call(capsys, served, "commit",
                                   "delete U_benefit(Dolors)")
        assert code == 1
        assert payload["applied"] is False

    def test_check_exit_code_mirrors_consistency(self, served, capsys):
        code, payload = self._call(capsys, served, "check",
                                   "delete U_benefit(Dolors)")
        assert code == 1 and payload["ok"] is False
        code, payload = self._call(capsys, served, "check",
                                   "insert Works(Maria)")
        assert code == 0 and payload["ok"] is True

    def test_monitor_requires_conditions(self, served, capsys):
        code, payload = self._call(capsys, served, "monitor",
                                   "delete Works(Pere)", "-c", "Unemp")
        assert code == 0
        assert payload["activated"]["Unemp"] == [["Pere"]]

    def test_downward_requests(self, served, capsys):
        code, payload = self._call(capsys, served, "downward",
                                   "del Unemp(Dolors)")
        assert code == 0 and payload["satisfiable"] is True

    def test_downward_trailing_semicolon_ignored(self, served, capsys):
        # 'del X;' must not send an empty request to the server.
        code, payload = self._call(capsys, served, "downward",
                                   "del Unemp(Dolors); ")
        assert code == 0 and payload["satisfiable"] is True

    def test_stats(self, served, capsys):
        self._call(capsys, served, "ping")
        code, payload = self._call(capsys, served, "stats")
        assert code == 0
        assert payload["engine"]["facts"] >= 4
        assert payload["requests"]["ping"]["count"] >= 1

    def test_server_error_reported(self, served, capsys):
        code = main(["call", "--port", str(served), "commit", "insert (("])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_connection_refused_reported(self, capsys):
        # Nothing listens on this port (bind-then-close frees it).
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(["call", "--port", str(free_port), "ping"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTraceCommand:
    """``repro trace``: local execution with a per-stage span breakdown."""

    def test_trace_upward_shows_stage_timings(self, db_file, capsys):
        assert main(["trace", "upward", db_file,
                     "-t", "delete Works(Pere)"]) == 0
        out = capsys.readouterr().out
        assert "ιUnemp(Pere)" in out
        for stage in ("request.upward", "upward.interpret",
                      "eval.materialize", "eval.stratum", "ms"):
            assert stage in out

    def test_trace_downward(self, db_file, capsys):
        assert main(["trace", "downward", db_file,
                     "-r", "del Unemp(Dolors)"]) == 0
        out = capsys.readouterr().out
        assert "downward.interpret" in out and "downward.request" in out

    def test_trace_query_json(self, db_file, capsys):
        import json

        assert main(["trace", "query", db_file, "Unemp(x)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == [["Dolors"]]
        assert payload["trace"]["name"] == "request.query"
        assert "eval.stratum" in payload["aggregates"]["spans"]

    def test_trace_does_not_leak_a_global_tracer(self, db_file, capsys):
        from repro.obs import tracer as obs

        assert not obs.enabled()
        main(["trace", "check", db_file, "-t", "insert Works(Dolors)"])
        assert not obs.enabled()

    def test_trace_commit_runs_locally(self, db_file, capsys):
        assert main(["trace", "commit", db_file,
                     "-t", "insert Works(Maria)"]) == 0
        assert "request.commit" in capsys.readouterr().out

    def test_trace_missing_argument_reported(self, db_file, capsys):
        assert main(["trace", "query", db_file]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliErrorPaths:
    """Error paths of ``call``/``trace``/``serve`` argument handling."""

    def test_call_rejects_unknown_op(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["call", "--port", "1", "frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_trace_rejects_unknown_op(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "frobnicate", "db.dl"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_call_missing_goal_is_a_clean_error(self, capsys):
        # A usage mistake before any socket is opened: no traceback, the
        # flat exit-2 error contract of the driver.
        assert main(["call", "--port", "1", "query"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "goal" in err

    def test_call_monitor_missing_conditions(self, capsys):
        assert main(["call", "--port", "1", "monitor",
                     "insert Works(A)"]) == 2
        assert "-c CONDITIONS" in capsys.readouterr().err

    def test_call_downward_missing_requests(self, capsys):
        assert main(["call", "--port", "1", "downward"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_missing_transaction(self, db_file, capsys):
        assert main(["trace", "commit", db_file]) == 2
        assert "needs a transaction" in capsys.readouterr().err

    def test_trace_nonexistent_database_file(self, tmp_path, capsys):
        assert main(["trace", "query", str(tmp_path / "nope.dl"),
                     "Unemp(x)"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "shard-serve"])
    @pytest.mark.parametrize("flag", [["--cache-mode", "counting"],
                                      ["--eval-engine", "interpreted"]])
    def test_serve_rejects_removed_maintenance_flags(self, capsys, command,
                                                     flag):
        """The maintainer is picked from the program and the evaluation
        engine is the library default: neither is a serving option."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "data", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
