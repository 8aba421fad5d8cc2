"""The platform driver API.

The paper: "From a high-level perspective, adding a new platform to
Graphalytics consists of implementing the algorithms, adding a dataset
loading method, providing a workload processing interface, and logging
the information required for results reporting."

This module defines that contract. A platform driver implements:

* :meth:`Platform.upload_graph` — the dataset loading method (ETL);
  its cost is reported separately and *not* included in algorithm
  runtimes ("The runtime measures the complete execution of an
  algorithm, from job submission to result availability, but does not
  include ETL");
* :meth:`Platform.run_algorithm` — the workload processing interface;
* the returned :class:`PlatformRun` — the logged information
  (simulated runtime, per-round profile, output).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

from repro.core.cost import ClusterSpec, MemoryBudgetExceeded, RunProfile
from repro.core.errors import PlatformFailure, SimulatedOOM, SimulatedTimeout
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph

__all__ = ["GraphHandle", "PlatformRun", "Platform"]


@dataclass
class GraphHandle:
    """A graph as loaded into a platform (the result of ETL)."""

    name: str
    platform: str
    graph: Graph
    #: Wall-clock seconds the (real) load took.
    etl_seconds: float = 0.0
    #: Simulated seconds the load costs on the platform's cluster —
    #: the paper's "Comparing ETL times of different platforms is
    #: left as future work", implemented (see benchmarks).
    etl_simulated_seconds: float = 0.0
    storage_bytes: float = 0.0
    detail: dict = field(default_factory=dict)

    def adjacency(self) -> dict[int, list[int]]:
        """The loaded graph's :meth:`~repro.graph.graph.Graph.adjacency`.

        Built on first use and kept in :attr:`detail`, so the
        per-record paths that read it build it once per upload and
        the vectorized paths never do. Callers share the lists and do
        not modify them.
        """
        adjacency = self.detail.get("adjacency")
        if adjacency is None:
            adjacency = self.detail["adjacency"] = self.graph.adjacency()
        return adjacency


@dataclass
class PlatformRun:
    """Everything a driver logs about one algorithm execution."""

    platform: str
    graph_name: str
    algorithm: Algorithm
    output: object
    profile: RunProfile
    wall_seconds: float

    @property
    def simulated_seconds(self) -> float:
        """The benchmark's "runtime" metric (simulated makespan)."""
        return self.profile.simulated_seconds


class Platform(abc.ABC):
    """Base class of all platform drivers.

    Subclasses set :attr:`name` and implement :meth:`_load` and
    :meth:`_execute`; the base class wraps them with timing, converts
    memory-budget violations into typed
    :class:`~repro.core.errors.SimulatedOOM` failures, and enforces
    the per-run :attr:`timeout_seconds` budget as a typed
    :class:`~repro.core.errors.SimulatedTimeout` — so the Benchmark
    Core records failures as Figure 4's "missing values" instead of
    crashing, and never sees a bare ``Exception`` for a simulated
    platform limit.
    """

    #: Registry name, e.g. ``"giraph"``.
    name: str = ""
    #: Whether the platform runs on one machine (its driver then has a
    #: built-in default cluster spec and rejects multi-worker specs).
    single_machine: bool = False

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        #: Optional :class:`repro.robustness.faults.FaultInjector`;
        #: drivers hand it to every cost meter they build, and the
        #: base class advances its attempt counter per execution (the
        #: mechanism behind transient faults and bounded retry).
        self.faults = None
        #: Attached :class:`repro.observability.TraceSink` observers;
        #: drivers hand them to every algorithm cost meter they build,
        #: and the base class brackets each execution with
        #: run-begin/run-end events. Empty by default (zero overhead).
        self.sinks: tuple = ()
        #: Simulated-seconds budget per algorithm run; exceeding it
        #: raises a typed :class:`SimulatedTimeout`.
        self.timeout_seconds: float | None = None

    # -- public API --------------------------------------------------

    def upload_graph(self, name: str, graph: Graph) -> GraphHandle:
        """ETL a graph into the platform's storage representation."""
        # Harness-overhead measurement (real seconds spent simulating),
        # reported alongside — never mixed into — simulated time.
        start = time.perf_counter()  # quality: ignore[determinism]
        try:
            handle = self._load(name, graph)
        except MemoryBudgetExceeded as exc:
            raise SimulatedOOM(self.name, str(exc)) from exc
        handle.etl_seconds = time.perf_counter() - start  # quality: ignore[determinism]
        return handle

    def run_algorithm(
        self,
        handle: GraphHandle,
        algorithm: Algorithm,
        params: AlgorithmParams | None = None,
    ) -> PlatformRun:
        """Execute one algorithm; returns the logged run record."""
        if handle.platform != self.name:
            raise ValueError(
                f"graph {handle.name!r} was loaded into {handle.platform!r}, "
                f"not {self.name!r}"
            )
        params = params or AlgorithmParams()
        if self.faults is not None:
            self.faults.begin_attempt()
        if self.sinks:
            for sink in self.sinks:
                sink.on_run_begin(
                    self.name, handle.name, algorithm.value, self.cluster
                )
        # Harness-overhead measurement, as above.
        start = time.perf_counter()  # quality: ignore[determinism]
        try:
            output, profile = self._execute(handle, algorithm, params)
        except MemoryBudgetExceeded as exc:
            self._emit_run_end(None, "out-of-memory")
            raise SimulatedOOM(self.name, str(exc)) from exc
        except PlatformFailure as exc:
            self._emit_run_end(None, exc.reason)
            raise
        wall = time.perf_counter() - start  # quality: ignore[determinism]
        if (
            self.timeout_seconds is not None
            and profile.simulated_seconds > self.timeout_seconds
        ):
            timeout = SimulatedTimeout(
                self.name, profile.simulated_seconds, self.timeout_seconds
            )
            self._emit_run_end(profile, timeout.reason)
            raise timeout
        self._emit_run_end(profile, "success")
        return PlatformRun(
            platform=self.name,
            graph_name=handle.name,
            algorithm=algorithm,
            output=output,
            profile=profile,
            wall_seconds=wall,
        )

    def _emit_run_end(self, profile: RunProfile | None, status: str) -> None:
        if self.sinks:
            for sink in self.sinks:
                sink.on_run_end(profile, status)

    def delete_graph(self, handle: GraphHandle) -> None:
        """Release platform storage for a graph (default: no-op)."""

    def supported_algorithms(self) -> list[Algorithm]:
        """Algorithms this driver implements (default: all five)."""
        return list(Algorithm)

    # -- driver hooks -------------------------------------------------

    @abc.abstractmethod
    def _load(self, name: str, graph: Graph) -> GraphHandle:
        """Build the platform-specific graph representation."""

    @abc.abstractmethod
    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        """Run one algorithm, returning (output, cost profile)."""
