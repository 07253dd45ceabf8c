"""Program processes: launch, talk to, stop, and measure.

Every program process runs in its own session, so one ``killpg`` reaches it
and everything it forked (fleet workers, sweep pool workers) if the
benchmark has to abort.

Peak RSS is read from ``VmHWM`` in ``/proc``, not from ``wait4``: Linux
carries the launching process's high-water mark into a child's
``ru_maxrss`` across ``exec``, so ``wait4`` would report the benchmark's own
memory whenever the program is smaller.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence


class ProgramError(RuntimeError):
    """A program process misbehaved (died early, timed out, said nonsense)."""


class Proc:
    """One program process with line-oriented stdout and timed exit."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: Path) -> None:
        self.argv = list(argv)
        self.popen = subprocess.Popen(
            self.argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(cwd),
            start_new_session=True,
            text=True,
        )
        self.pid = self.popen.pid
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.exit_status: Optional[int] = None
        self.exit_time: Optional[float] = None
        self._reaper: Optional[threading.Thread] = None

    def _read(self) -> None:
        for line in self.popen.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises if the process ends or stalls first."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ProgramError(f"{self.argv[:3]}: no output within {timeout:.0f}s") from None
        if line is None:
            raise ProgramError(f"{self.argv[:3]}: exited before answering")
        return line

    def expect(self, event: str, timeout: float) -> dict:
        """Skip non-JSON chatter until the JSON line ``{"event": event}``."""
        deadline = time.monotonic() + timeout
        while True:
            line = self.readline(max(0.1, deadline - time.monotonic()))
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if isinstance(message, dict) and message.get("event") == event:
                return message

    def send(self, message: dict) -> None:
        self.popen.stdin.write(json.dumps(message) + "\n")
        self.popen.stdin.flush()

    def _reap(self) -> None:
        _, status = os.waitpid(self.pid, 0)
        self.exit_time = time.perf_counter()
        self.exit_status = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.exit_status

    def start_reaper(self) -> None:
        """Begin waiting for exit in the background (call before stopping)."""
        if self._reaper is None:
            self._reaper = threading.Thread(target=self._reap, daemon=True)
            self._reaper.start()

    def wait(self, timeout: float) -> float:
        """Wait for exit; returns the perf_counter time the exit was seen."""
        self.start_reaper()
        self._reaper.join(timeout)
        if self._reaper.is_alive():
            self.kill()
            self._reaper.join(10.0)
            raise ProgramError(f"{self.argv[:3]}: did not exit within {timeout:.0f}s")
        return self.exit_time

    def kill(self) -> None:
        """SIGKILL the whole session (no-op once reaped)."""
        if self.exit_status is None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def close(self) -> None:
        """Make sure nothing of this process or its session is left running."""
        try:
            os.killpg(self.pid, signal.SIGKILL)  # also reaches orphaned descendants
        except (ProcessLookupError, PermissionError):
            pass
        if self.exit_status is None:
            try:
                self.wait(10.0)
            except ProgramError:
                pass
        for stream in (self.popen.stdin, self.popen.stdout):
            try:
                stream.close()
            except OSError:
                pass


def vm_hwm_mb(status_text: str) -> float:
    """``VmHWM`` (peak resident set) of one ``/proc/<pid>/status`` text, in MB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def session_peak_rss_mb(session: int) -> float:
    """Highest ``VmHWM`` among the live processes of one session."""
    peak = 0.0
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == session:  # state, ppid, pgrp, session
                peak = max(peak, vm_hwm_mb((entry / "status").read_text()))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
    return peak


class Processes:
    """Tracks every launched process so an abort stops them all."""

    def __init__(self) -> None:
        self._procs: List[Proc] = []

    def launch(self, argv: Sequence[str], env: Dict[str, str], cwd: Path) -> Proc:
        proc = Proc(argv, env, cwd)
        self._procs.append(proc)
        return proc

    def close_all(self) -> None:
        for proc in self._procs:
            proc.close()
        self._procs.clear()
