"""Pytest configuration for the repository root.

Adds ``src/`` to ``sys.path`` so the test-suite and benchmarks run against
the in-tree sources even when the package has not been installed (useful in
fully offline environments where editable installs are awkward).
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    """Keep the warning filter :mod:`repro.solvers.backends` installs at
    import: pytest restores the filters around collection and every test,
    which would drop it and show SciPy's LOBPCG shortfall warning in tests
    where the program's users never see it."""
    from repro.solvers.backends import SHORTFALL_WARNING

    config.addinivalue_line(
        "filterwarnings", f"ignore:{SHORTFALL_WARNING}:UserWarning:repro.solvers.backends"
    )
