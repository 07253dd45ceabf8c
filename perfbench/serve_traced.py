"""Launcher of the traced fleet: stage timers first, then the real CLI.

``python3 perfbench/serve_traced.py STAGE_DIR serve --workers 2 ...`` installs
the benchmark's stage timers (inherited by the forked workers), records how
each worker process ended when the fleet closes, and hands the remaining
arguments to ``repro.runtime.cli.main`` unchanged.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import stages  # perfbench/ is sys.path[0]: this file's directory


def _record_worker_exits() -> None:
    from repro.server.runner import ServerFleet

    close = ServerFleet.close

    @functools.wraps(close)
    def recorded(self):
        # The fleet has no public list of its worker processes.
        procs = [proc for proc in self._procs if proc is not None]
        close(self)
        for proc in procs:
            stages.event("server.worker_exit", proc.exitcode if proc.exitcode is not None else 0)

    ServerFleet.close = recorded


if __name__ == "__main__":
    stages.install(Path(sys.argv[1]))
    _record_worker_exits()
    from repro.runtime.cli import main

    sys.exit(main(sys.argv[2:]))
