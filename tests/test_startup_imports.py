"""Start-up import guard: the entry points import only what they run.

No harness, engine or gate path needs scipy: ``repro.graph.fitting``
(``scipy.stats``, ``scipy.optimize``, and through them
``scipy.special`` and ``scipy.linalg``) serves only the Figure 1
bench's degree fitting, and the engines count links with numpy. A
fresh interpreter that imports the package, the CLI and the analysis
layer, builds the CLI parser and every platform driver, or runs a
STATS and an LCC cell, must load no module under ``scipy``. The
registry imports a driver only when that platform is created or
asked about, so a one-platform fleet loads one driver package and
listing the names loads none. The guard counts modules, not seconds,
since a shared host's speed swings too much for a timing bound.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.platforms import registry

#: Prints every loaded module under ``scipy``, and the fitting module.
REPORT_UNUSED = """
import sys

print(*sorted(
    name for name in sys.modules
    if name.split(".")[0] == "scipy" or name == "repro.graph.fitting"
))
"""

#: Prints the driver packages loaded, e.g. ``pregel``.
REPORT_DRIVERS = """
import sys

print(*sorted({
    name.split(".")[2] for name in sys.modules
    if name.startswith("repro.platforms.") and name != "repro.platforms.registry"
}))
"""

ENTRY_POINTS = """
import repro
import repro.analysis
import repro.cli
from repro.core.cost import ClusterSpec
from repro.platforms.registry import create_platform_fleet

repro.cli._build_parser()
fleet = create_platform_fleet(ClusterSpec.paper_distributed())
assert len(fleet) == 8, [platform.name for platform in fleet]
"""

CELLS = """
import repro

suite = repro.run_benchmark(
    ["graph500-7"], platforms=["giraph"], algorithms=["STATS", "LCC"]
)
assert [result.status for result in suite.results] == ["success"] * 2
repro.render_report(suite)
"""

ONE_DRIVER_FLEET = """
from repro.core.cost import ClusterSpec
from repro.platforms.registry import create_platform_fleet

(platform,) = create_platform_fleet(ClusterSpec.paper_distributed(), names=["giraph"])
assert platform.name == "giraph"
"""

LISTING = """
import repro.cli
from repro.platforms.registry import available_platforms

assert len(available_platforms()) == 8
repro.cli._build_parser()
"""


def _fresh(code: str) -> list[str]:
    """What ``code`` prints, split on whitespace, run in a new interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    probe = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return probe.stdout.split()


def test_entry_points_leave_the_fitting_stack_unimported():
    assert _fresh(ENTRY_POINTS + REPORT_UNUSED) == []


def test_a_stats_and_an_lcc_cell_import_no_scipy():
    assert _fresh(CELLS + REPORT_UNUSED) == []


def test_a_one_driver_fleet_imports_only_that_driver():
    assert _fresh(ONE_DRIVER_FLEET + REPORT_DRIVERS) == ["pregel"]


def test_listing_the_platforms_imports_no_driver():
    assert _fresh(LISTING + REPORT_DRIVERS) == []


@pytest.mark.parametrize("name", sorted(registry._BUILTINS))
def test_builtin_names_match_their_driver_classes(name):
    assert registry._factory(name).name == name
