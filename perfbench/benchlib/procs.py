"""Running the program under test: server processes and CLI commands.

The program is always started from the checkout's own ``src`` tree,
as ``python -m repro ...``; it sees only CLI arguments and HTTP
requests.  Every process started here is waited for before the
function that started it returns (or by :meth:`Server.stop`).
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Seconds a server gets to boot, and to drain after SIGTERM.
BOOT_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


def program_env(root: Path) -> dict:
    """The environment for a child: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass(frozen=True)
class CliResult:
    returncode: int
    seconds: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_cli(root: Path, work: Path, args: list[str], timeout: float = 170.0) -> CliResult:
    """Run ``python -m repro <args>`` to completion; time it and its peak RSS.

    Output goes to files under ``work`` so a chatty command can never
    block on a full pipe; the peak RSS comes from the child's own
    rusage, collected when it is reaped.
    """
    out_path, err_path = work / "cli.out", work / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=root, env=program_env(root), stdout=out, stderr=err,
        )
        # A blocking wait4 (no polling loop competing for the CPU); the
        # timer kills a child that overstays, which ends the wait.
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(
        returncode=proc.returncode,
        seconds=seconds,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


class Client:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.bytes_in = 0

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        self.bytes_in += len(data)
        return response.status, data

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, root: Path, work: Path, cache_dir: Path, args: list[str]) -> None:
        self.err_path = work / f"serve-{time.monotonic_ns()}.err"
        self._err = open(self.err_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir), *args],
            cwd=root, env=program_env(root),
            stdout=subprocess.DEVNULL, stderr=self._err,
        )
        self.port = 0

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers 200; returns seconds since spawn."""
        deadline = self.started + BOOT_TIMEOUT
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {self._tail()}")
            if not self.port:
                self.port = self._announced_port()
            if self.port:
                try:
                    conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    conn.close()
                    if response.status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not ready after {BOOT_TIMEOUT}s: {self._tail()}")

    def _announced_port(self) -> int:
        text = self.err_path.read_bytes().decode("utf-8", "replace")
        marker = "on http://127.0.0.1:"
        at = text.find(marker)
        if at < 0:
            return 0
        digits = text[at + len(marker):].split(" ", 1)[0].strip()
        return int(digits) if digits.isdigit() else 0

    def _tail(self) -> str:
        return self.err_path.read_bytes().decode("utf-8", "replace")[-2000:]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it overstays; reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._err.close()
        return self.proc.returncode
