"""STATS, LCC, EVO, CD and SSSP pinned on every platform, cell by cell.

Every registered platform runs STATS and LCC on ``graph500-8`` and on
the ``amazon`` stand-in (which goes through the rewiring generator),
EVO and CD on ``graph500-8``, and SSSP on ``graph500-8`` and
``road-16``, each weighted with ``with_uniform_weights()`` as
``BenchmarkCore.run`` weights them. Each cell must reproduce the
committed pins in ``triangle_pins.json``: the digest of its
``profile_fingerprint`` (computed as perfbench does), a digest of the
LCC, EVO, CD or SSSP output's sorted items, and the STATS vertex and
edge counts. The STATS mean is
left out on purpose: some platforms fold it with ``sum()``, which
rounds differently across Python versions.

Regenerate the pins (only for an intended change to these cells) with
``PYTHONPATH=src python -m tests.test_triangle_pins``.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.cost import ClusterSpec
from repro.core.workload import Algorithm
from repro.datasets import catalog
from repro.observability import profile_fingerprint
from repro.platforms.registry import available_platforms, create_platform_fleet

PINS_PATH = Path(__file__).with_name("triangle_pins.json")
GRAPHS = ("graph500-8", "amazon")
ALGORITHMS = (Algorithm.STATS, Algorithm.LCC)
GRAPH500_ALGORITHMS = (Algorithm.EVO, Algorithm.CD)
SSSP_GRAPHS = ("graph500-8", "road-16")
CELLS = [
    (platform, graph, algorithm)
    for platform in available_platforms()
    for graph, algorithm in [
        *((graph, algorithm) for graph in GRAPHS for algorithm in ALGORITHMS),
        *(("graph500-8", algorithm) for algorithm in GRAPH500_ALGORITHMS),
        *((graph, Algorithm.SSSP) for graph in SSSP_GRAPHS),
    ]
]


def _digest(value) -> str:
    text = repr(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=None)
def _graph(name: str, weighted: bool):
    graph = catalog.load_dataset(name)
    return graph.with_uniform_weights() if weighted else graph


@lru_cache(maxsize=None)
def _handle(platform_name: str, graph_name: str, weighted: bool):
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[platform_name]
    )
    graph = _graph(graph_name, weighted)
    return platform, platform.upload_graph(graph_name, graph)


def observe(platform_name: str, graph_name: str, algorithm: Algorithm) -> dict:
    """The pinned facts of one cell."""
    platform, handle = _handle(
        platform_name, graph_name, algorithm is Algorithm.SSSP
    )
    run = platform.run_algorithm(handle, algorithm)
    observed = {"profile": _digest(profile_fingerprint(run.profile))}
    if algorithm is Algorithm.STATS:
        observed["vertices"] = run.output.num_vertices
        observed["edges"] = run.output.num_edges
    else:
        observed["output"] = _digest(sorted(run.output.items()))
    return observed


def _key(platform_name: str, graph_name: str, algorithm: Algorithm) -> str:
    return f"{platform_name}/{graph_name}/{algorithm.value}"


@pytest.mark.parametrize(
    "platform_name,graph_name,algorithm",
    CELLS,
    ids=[_key(*cell) for cell in CELLS],
)
def test_cell_matches_its_pin(platform_name, graph_name, algorithm):
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    key = _key(platform_name, graph_name, algorithm)
    assert observe(platform_name, graph_name, algorithm) == pins[key]


def test_every_pin_names_a_cell():
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(_key(*cell) for cell in CELLS)


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps({_key(*cell): observe(*cell) for cell in CELLS}, indent=2)
        + "\n",
        encoding="utf-8",
    )
