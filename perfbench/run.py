"""Host-time benchmark of the Graphalytics harness.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 25 --trace 0

Each pass runs in a fresh process (``child.py``), one after another.
An untraced run (``--trace 0``) starts passes while one more would end
within ``--seconds`` (at least one runs), tops up set-up-only passes
until it has at least ``MIN_SETUPS`` set-up samples, and prints the
medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``; the two times
are scaled to the reference core of ``speed.py``. A traced run
(``--trace 1``) makes one untraced and one traced pass and prints the
traced pass's per-layer metrics. Failed ops are printed one per line;
the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

#: Where passes write their artifacts; each pass's directory is
#: removed once its record is read.
OUT = ROOT / ".perfbench-out"
MIN_SETUPS = 3
#: A run must end within 180 s; no pass starts or runs past this.
RUN_LIMIT_SECONDS = 170.0


class PassError(RuntimeError):
    """A pass process failed, timed out or printed no record."""


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one pass in a fresh process and return its record."""
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=OUT))
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--out", str(out_dir),
    ]
    try:
        process = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} {mode} pass ran past the run limit") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if process.returncode != 0 or not process.stdout.strip():
        sys.stderr.write(process.stderr)
        raise PassError(
            f"{workload} {mode} pass exited with code {process.returncode}"
        )
    return json.loads(process.stdout.splitlines()[-1])


def untraced_run(workload: str, seed: int, seconds: float, deadline: float):
    """Passes for ``seconds``, then the end-to-end medians."""
    end = min(time.monotonic() + seconds, deadline)
    passes: list[dict] = []
    longest = 0.0
    # A pass starts only if one as long as the longest so far would
    # still end within the run's time.
    while not passes or time.monotonic() + longest <= end:
        begin = time.monotonic()
        passes.append(run_child(workload, seed, "plain", deadline))
        longest = max(longest, time.monotonic() - begin)
    setups = [(record["setup_s"], record["setup_ref_s"]) for record in passes]
    while len(setups) < MIN_SETUPS:
        record = run_child(workload, seed, "setup", deadline)
        setups.append((record["setup_s"], record["setup_ref_s"]))
    print(
        f"host {workload}: {len(passes)} pass(es), {len(setups)} set-up(s); "
        "medians: wall "
        f"{statistics.median(record['wall_s'] for record in passes):.4f} s, "
        f"set-up {statistics.median(raw for raw, _ in setups):.4f} s, "
        f"probe loop {statistics.median(r['loop_us'] for r in passes):.2f} us"
    )
    metrics = {
        "wall_s": statistics.median(record["wall_ref_s"] for record in passes),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in passes),
    }
    return passes, metrics


def traced_run(workload: str, seed: int, deadline: float):
    """One untraced and one traced pass, then the per-layer metrics.

    Every cell's fingerprint must be identical in the two passes; a
    cell whose fingerprint differs fails in the traced pass, once.
    """
    plain = run_child(workload, seed, "plain", deadline)
    traced = run_child(workload, seed, "traced", deadline)
    metrics = dict(traced["layers"])
    metrics["bench.traced_wall_s"] = traced["wall_s"]
    metrics["bench.untraced_wall_s"] = plain["wall_s"]
    metrics["bench.trace_overhead"] = traced["wall_ref_s"] / plain["wall_ref_s"]
    failures = {failure["op"]: failure for failure in traced["failures"]}
    for op, digest in sorted(plain["fingerprints"].items()):
        traced_digest = traced["fingerprints"].get(op)
        if traced_digest != digest:
            reason = f"traced fingerprint {traced_digest} differs from untraced {digest}"
            if op in failures:
                reason = f"{failures[op]['reason']}; {reason}"
            failures[op] = {"op": op, "reason": reason, "expected": False}
    traced["failures"] = list(failures.values())
    return [plain, traced], metrics


def summarize(workload: str, passes: list[dict], metrics: dict, units: dict) -> dict:
    """Print failed ops and problems; return the result object."""
    failures = [f for record in passes for f in record["failures"]]
    problems = [p for record in passes for p in record["problems"]]
    seen: dict[tuple[str, str, bool], int] = {}
    for failure in failures:
        key = (failure["op"], failure["reason"], failure["expected"])
        seen[key] = seen.get(key, 0) + 1
    for (op, reason, expected), count in seen.items():
        label = "known failure" if expected else "FAILED"
        print(f"{label} {workload} {op} (in {count} pass(es)): {reason}")
    for problem in dict.fromkeys(problems):
        print(f"PROBLEM {workload}: {problem}")
    return {
        "correct": not problems and all(f["expected"] for f in failures),
        "attempted": sum(record["ops"] for record in passes),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_SECONDS
    try:
        if args.trace:
            passes, metrics = traced_run(args.workload, args.seed, deadline)
            units = PER_LAYER
        else:
            passes, metrics = untraced_run(
                args.workload, args.seed, args.seconds, deadline
            )
            units = END_TO_END
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()
    print(json.dumps(summarize(args.workload, passes, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
