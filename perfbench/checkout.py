"""Locate the crcodes sources of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def import_crcodes() -> float:
    """Import the package from ./src; seconds taken.  Exits 2 if missing."""
    if not (SRC / "crcodes" / "__init__.py").is_file():
        print(f"error: no crcodes sources under {SRC}; run from the root "
              "of a crcodes checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import crcodes.cli  # noqa: F401  (the CLI entry point pulls in every layer)
    return time.perf_counter() - t0
