"""The System Monitor (paper Figure 2).

"The System Monitor is responsible for gathering resource utilization
statistics from the SUT." For the simulated platforms the SUT's
resource usage is fully described by the run's
:class:`~repro.core.cost.RunProfile`; the monitor turns it into a
per-round utilization time series (CPU, network, memory) like the one
a real monitor would sample, plus real-process statistics (wall time,
resident memory of the benchmarking process itself).
"""

from __future__ import annotations

import csv
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.cost import RoundRecord, RunProfile
from repro.hardware.models import HardwareProfile

__all__ = ["UtilizationSample", "SystemMonitor", "sample_from_record"]


@dataclass(frozen=True)
class UtilizationSample:
    """Resource utilization during one round of a run."""

    round_name: str
    timestamp: float
    cpu_utilization: float
    network_bytes: float
    active_vertices: int
    skew: float


def sample_from_record(
    record: RoundRecord, clock: float, hardware: HardwareProfile
) -> UtilizationSample:
    """One utilization sample from one round record.

    CPU utilization is the mean worker busy fraction within the
    round: with BSP barriers, stragglers leave other workers idle,
    so utilization is (mean busy time) / (busiest busy time), read
    from the round's :meth:`~HardwareProfile.attribute` split under
    the ``hardware`` that costed it — directly exposing the
    skewed-execution-intensity choke point. ``clock`` is the
    simulated time at which the round *ends*.

    This is the single sample-construction path: the profile-based
    :meth:`SystemMonitor.samples_from_profile` and the live
    :class:`repro.observability.MonitorSink` both build their series
    here, so the CSV export cannot drift from the trace stream.
    """
    parts = hardware.attribute(record)
    mean = parts.compute + parts.locality
    busiest = mean + parts.skew
    return UtilizationSample(
        round_name=record.name,
        timestamp=clock,
        cpu_utilization=mean / busiest if busiest > 0 else 0.0,
        network_bytes=record.remote_bytes,
        active_vertices=record.active_vertices,
        skew=parts.worker_skew,
    )


class SystemMonitor:
    """Collects utilization samples from run profiles and the host."""

    def __init__(self):
        # The monitor measures the *host*, not the simulation; real
        # wall/CPU clocks are its whole point.
        self._start_wall = time.perf_counter()  # quality: ignore[determinism]
        self._start_cpu = time.process_time()  # quality: ignore[determinism]

    # -- simulated SUT ---------------------------------------------------

    def samples_from_profile(self, profile: RunProfile) -> list[UtilizationSample]:
        """One utilization sample per round of a simulated run.

        Rebased on the observability layer: a
        :class:`~repro.observability.MonitorSink` replays the profile's
        rounds through the same ``on_round_end`` hook a live tracing
        run feeds, so this path and the streaming path produce
        identical series by construction.
        """
        # Imported here: the sink module builds on this module's
        # sample format, so the top-level dependency points the other
        # way (observability -> monitor).
        from repro.observability.sinks import MonitorSink

        sink = MonitorSink()
        sink.replay_profile(profile)
        return sink.samples

    def write_csv(
        self, samples: list[UtilizationSample], path: str | Path
    ) -> Path:
        """Export a utilization time series as CSV (for plotting).

        This is the monitor's report artifact: one row per round with
        the columns a resource-utilization plot needs.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "round",
                    "timestamp_s",
                    "cpu_utilization",
                    "network_bytes",
                    "active_vertices",
                    "skew",
                ]
            )
            for sample in samples:
                writer.writerow(
                    [
                        sample.round_name,
                        f"{sample.timestamp:.6f}",
                        f"{sample.cpu_utilization:.4f}",
                        f"{sample.network_bytes:.0f}",
                        sample.active_vertices,
                        f"{sample.skew:.4f}",
                    ]
                )
        return path

    # -- real host ---------------------------------------------------------

    def host_statistics(self) -> dict[str, float]:
        """Wall/CPU time and peak RSS of the benchmarking process."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # getrusage reports ru_maxrss in kilobytes on Linux (and most
        # BSDs) but in *bytes* on macOS; scaling unconditionally would
        # overstate Darwin peaks by 1024x.
        maxrss_unit = 1 if sys.platform == "darwin" else 1024
        return {
            "wall_seconds": time.perf_counter()  # quality: ignore[determinism]
            - self._start_wall,
            "cpu_seconds": time.process_time()  # quality: ignore[determinism]
            - self._start_cpu,
            "max_rss_bytes": float(usage.ru_maxrss * maxrss_unit),
        }
