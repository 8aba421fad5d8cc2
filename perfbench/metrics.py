"""Names and units of every metric the benchmark prints.

Kept free of the program's imports so `run.py` can print results
without importing the code it measures.
"""

WORKLOAD_NAMES = ("paper-suite", "traversal-dense", "road-sparse", "quality-gate")

#: Printed by untraced runs (``--trace 0``).
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PLATFORMS = ("giraph", "graphlab", "graphx", "mapreduce", "neo4j", "virtuoso")
ALGORITHMS = ("BFS", "CONN", "STATS", "PR", "SSSP")

#: Printed by traced runs (``--trace 1``). A layer a workload
#: bypasses reads 0.
PER_LAYER: dict[str, str] = {
    "datasets.load_s": "s",
    "datasets.edges": "count",
    "etl.s": "s",
    "etl.calls": "count",
    "exec.s": "s",
    "exec.self_s": "s",
    **{f"exec.{platform}.s": "s" for platform in PLATFORMS},
    **{f"exec.{algorithm}.s": "s" for algorithm in ALGORITHMS},
    "exec.calls": "count",
    "exec.useful_ratio": "ratio",
    "exec.rounds": "count",
    "exec.us_per_round": "us",
    "cost.self_s": "s",
    "cost.calls": "count",
    "cost.charges": "count",
    "validate.s": "s",
    "validate.reference_s": "s",
    "validate.calls": "count",
    "validate.useful_ratio": "ratio",
    "harness.self_s": "s",
    "report.s": "s",
    "resultsdb.s": "s",
    "resultsdb.rows": "count",
    "trace.s": "s",
    "trace.spans": "count",
    "trace.bytes": "bytes",
    "analysis.s": "s",
    "analysis.files": "count",
    "analysis.lines": "count",
    "analysis.us_per_line": "us",
    "analysis.nondeterminism-flow.s": "s",
    "analysis.cost-protocol.s": "s",
    "analysis.cost-units.s": "s",
    "analysis.module-rules.s": "s",
    "analysis.other_s": "s",
    "bench.traced_wall_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.trace_overhead": "ratio",
}
