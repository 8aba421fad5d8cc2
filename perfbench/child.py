"""One pass of one workload in a fresh process.

Run by ``run.py``; prints the pass record as one JSON line. The clock
starts before the program's modules are imported, so the record's
``setup_s`` covers imports, graph generation and load, and platform
construction. ``--mode setup`` stops after set-up. The process is
pinned to one CPU and runs a ``SpeedProbe`` (``speed.py``) throughout.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.speed import SpeedProbe, pin_to_one_cpu  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    with SpeedProbe() as probe:
        sys.path.insert(0, str(ROOT / "src"))
        from perfbench import workloads

        if args.mode == "setup":
            workloads.setup(workloads.WORKLOADS[args.workload], args.seed)
            end = time.perf_counter()
            record = {
                "setup_s": end - STARTED,
                "setup_ref_s": probe.scaled(end - STARTED, STARTED, end),
            }
        else:
            record = workloads.run_pass(
                args.workload, args.seed, args.out, args.mode == "traced",
                STARTED, probe,
            )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
