"""Start-up import guard: the entry points import only what they run.

``repro.graph.fitting`` loads ``scipy.stats`` and ``scipy.optimize``,
and through them ``scipy.special`` and ``scipy.linalg``: about a
second of import on a 2-core host, which only the Figure 1 bench's
degree fitting needs. A fresh interpreter that imports the package,
the CLI and the analysis layer, and builds every platform driver,
must load none of them. The guard counts modules, not seconds, since
a shared host's speed swings too much for a timing bound.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules no harness, engine or gate path may import at start-up.
UNUSED_AT_STARTUP = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.special",
    "scipy.linalg",
    "repro.graph.fitting",
)

PROBE = f"""
import sys

import repro
import repro.analysis
import repro.cli
from repro.core.cost import ClusterSpec
from repro.platforms.registry import create_platform_fleet

fleet = create_platform_fleet(ClusterSpec.paper_distributed())
assert len(fleet) == 8, [platform.name for platform in fleet]
print(*(name for name in {UNUSED_AT_STARTUP!r} if name in sys.modules))
"""


def test_entry_points_leave_the_fitting_stack_unimported():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert probe.stdout.split() == []
