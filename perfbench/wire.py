"""Socket plumbing for the benchmark: a blocking JSON-lines caller and
control of the server process.

The caller is written here rather than imported from ``repro`` so that a
change to the program's own client cannot change how the load is driven.
It speaks the documented wire format: one ``{"v", "id", "op", "params"}``
object per line, one reply per line, pushed feed frames carry ``feed``
instead of ``ok``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

#: Per-call socket timeout; a reply slower than this counts as a lost
#: connection (the run reports it as a failure, never hangs).
CALL_TIMEOUT_S = 60.0
#: How long a launched server may take to answer its first ping.
START_TIMEOUT_S = 120.0


class ConnectionLost(Exception):
    """The server closed the connection or stopped answering."""


class Caller:
    """One blocking connection: send a request, wait for its reply."""

    def __init__(self, port: int, first_id: int = 1):
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=CALL_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._next_id = first_id
        #: Feed frames that arrived while a reply was awaited.
        self.frames: list[tuple[int, dict]] = []
        self.last_id = 0

    def _line(self, wait: float | None) -> bytes | None:
        """The next line; ``None`` if none completes within *wait* seconds."""
        while True:
            end = self._buffer.find(b"\n")
            if end >= 0:
                line = bytes(self._buffer[:end])
                del self._buffer[:end + 1]
                return line
            if wait is not None:
                readable, _, _ = select.select([self._sock], [], [], wait)
                if not readable:
                    return None
            try:
                chunk = self._sock.recv(1 << 16)
            except OSError as error:
                raise ConnectionLost(
                    f"{type(error).__name__}: {error}") from None
            if not chunk:
                raise ConnectionLost("server closed the connection")
            self._buffer += chunk

    def call(self, op: str, **params) -> dict:
        """Send one request; return its decoded reply."""
        self.last_id = self._next_id
        self._next_id += 1
        line = json.dumps({"v": 1, "id": self.last_id, "op": op,
                           "params": params}, separators=(",", ":"))
        try:
            self._sock.sendall(line.encode("utf-8") + b"\n")
        except OSError as error:
            raise ConnectionLost(f"{type(error).__name__}: {error}") from None
        while True:
            reply = json.loads(self._line(None))
            if "feed" in reply and "ok" not in reply:
                self.frames.append((time.perf_counter_ns(), reply))
                continue
            return reply

    def read_frame(self, timeout: float) -> dict | None:
        """The next pushed feed frame, or ``None`` once *timeout* passes."""
        line = self._line(timeout)
        return None if line is None else json.loads(line)

    def close(self) -> None:
        self._sock.close()


class Server:
    """A ``repro`` server in its own process, started from the checkout.

    *argv* are the ``repro`` CLI arguments (``serve DIR ...``) and *data*
    the directory they serve; with *spans_path* the benchmark's traced
    launcher runs instead of ``python -m repro`` and writes its spans
    there at shutdown.
    """

    def __init__(self, root: Path, workdir: Path, argv: list[str],
                 data: Path, spans_path: Path | None = None):
        self.workdir = workdir
        self.data = data
        port_file = workdir / f"port-{time.monotonic_ns()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("REPRO_TRACE", None)
        env.pop("REPRO_FAULTS", None)
        argv = argv + ["--port", "0", "--port-file", str(port_file)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + argv
        else:
            command = [sys.executable,
                       str(Path(__file__).with_name("traced_server.py")),
                       "--spans", str(spans_path), "--"] + argv
        self._log = open(workdir / "server.log", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=workdir, env=env,
                                     stdout=self._log, stderr=self._log,
                                     stdin=subprocess.DEVNULL)
        try:
            self.port = self._wait_port(port_file)
            probe = Caller(self.port, first_id=1)
            try:
                reply = probe.call("ping")
            finally:
                probe.close()
            #: Launch until the first successful ping, in seconds.
            self.setup_s = time.perf_counter() - self.started
            if not reply.get("ok"):
                raise RuntimeError(f"first ping failed: {reply}")
        except BaseException:
            self.kill()
            raise

    def _wait_port(self, port_file: Path) -> int:
        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if port_file.exists():
                return int(port_file.read_text())
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} before "
                    f"listening; see {self.workdir / 'server.log'}")
            time.sleep(0.002)
        raise RuntimeError("server did not start listening in time")

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (``VmHWM``) in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """CPU time (user + system) the server process has used so far.

        Time the hypervisor steals from the machine is not in it, which
        makes it steadier than wall-clock time on a shared host.
        """
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def kill(self) -> None:
        """``kill -9`` the server and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        if not self._log.closed:
            self._log.close()

    def shutdown(self, timeout: float = 60.0) -> None:
        """Graceful ``shutdown`` op; falls back to ``kill -9`` on timeout."""
        try:
            caller = Caller(self.port, first_id=1)
            try:
                caller.call("shutdown")
            finally:
                caller.close()
            self.proc.wait(timeout=timeout)
        except (ConnectionLost, OSError, subprocess.TimeoutExpired):
            pass
        self.kill()
