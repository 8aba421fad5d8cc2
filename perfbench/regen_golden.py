"""Regenerate the golden fingerprint digests in ``golden.json``.

Usage, from the root of a checkout::

    python3 perfbench/regen_golden.py

Runs one untraced pass of each suite workload at the default seed, in
a fresh process as the benchmark does, and records every cell's
``profile_fingerprint`` digest. Review the diff like any golden update:
a changed digest means a changed simulated profile.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import RUN_LIMIT_SECONDS, run_child  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    GOLDEN_PATH,
    WORKLOADS,
    SuiteWorkload,
)


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, SuiteWorkload):
            deadline = time.monotonic() + RUN_LIMIT_SECONDS
            record = run_child(name, DEFAULT_SEED, "plain", deadline)
            digests[name] = dict(sorted(record["fingerprints"].items()))
            print(f"{name}: {len(digests[name])} cells")
    GOLDEN_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
