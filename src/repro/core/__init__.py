"""Benchmark harness core (the paper's Figure 2 architecture).

The modules here implement the Benchmark Core and its satellites:

* :mod:`repro.core.platform_api` — the driver API platforms implement
  ("an API that will enable third party developers to port our
  benchmark to their graph processing platforms");
* :mod:`repro.core.workload` — algorithms, graphs, and runs;
* :mod:`repro.core.benchmark` — the Benchmark Core that executes all
  (platform, graph, algorithm) combinations;
* :mod:`repro.core.validation` — the Output Validator;
* :mod:`repro.core.monitor` — the System Monitor;
* :mod:`repro.core.report` — the Report Generator;
* :mod:`repro.core.results_db` — the Results database;
* :mod:`repro.core.metrics` — runtime and (k)TEPS metrics;
* :mod:`repro.core.chokepoints` — choke-point analysis of run profiles;
* :mod:`repro.core.cost` — the simulated-hardware cost model shared by
  every platform simulation;
* :mod:`repro.core.config` — configuration files for graphs and runs.
"""

from repro.core.errors import (
    ConfigurationError,
    GraphalyticsError,
    PlatformFailure,
    ValidationFailure,
)
from repro.core.cost import ClusterSpec, CostMeter, RoundRecord, RunProfile
from repro.core.platform_api import GraphHandle, Platform, PlatformRun
from repro.core.workload import Algorithm, AlgorithmParams, BenchmarkRunSpec, Workload
from repro.core.metrics import kteps, teps
from repro.core.validation import OutputValidator
from repro.core.monitor import SystemMonitor, UtilizationSample
from repro.core.benchmark import BenchmarkCore, BenchmarkResult, BenchmarkSuiteResult
from repro.core.report import ReportGenerator
from repro.core.results_db import ResultsDatabase

__all__ = [
    "GraphalyticsError",
    "PlatformFailure",
    "ValidationFailure",
    "ConfigurationError",
    "ClusterSpec",
    "CostMeter",
    "RoundRecord",
    "RunProfile",
    "GraphHandle",
    "Platform",
    "PlatformRun",
    "Algorithm",
    "AlgorithmParams",
    "Workload",
    "BenchmarkRunSpec",
    "teps",
    "kteps",
    "OutputValidator",
    "SystemMonitor",
    "UtilizationSample",
    "BenchmarkCore",
    "BenchmarkResult",
    "BenchmarkSuiteResult",
    "ReportGenerator",
    "ResultsDatabase",
]
