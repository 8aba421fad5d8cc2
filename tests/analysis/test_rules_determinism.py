"""Unit tests for the determinism and cost-accounting rules."""

import textwrap

from repro.analysis import analyze_source

ENGINE_PATH = "src/repro/platforms/fake/engine.py"
CORE_PATH = "src/repro/core/fake.py"
OUT_OF_SCOPE_PATH = "src/repro/datagen/fake.py"


def _rules(code: str, path: str):
    report = analyze_source(textwrap.dedent(code), path)
    return [f.rule for f in report.findings]


class TestDeterminism:
    def test_time_time_flagged_in_platforms(self):
        code = "import time\ndef f():\n    return time.time()\n"
        assert _rules(code, ENGINE_PATH) == ["determinism"]

    def test_perf_counter_from_import_flagged(self):
        code = "from time import perf_counter\ndef f():\n    return perf_counter()\n"
        assert _rules(code, CORE_PATH) == ["determinism"]

    def test_datetime_now_flagged(self):
        code = (
            "from datetime import datetime\n"
            "def f():\n    return datetime.now()\n"
        )
        assert _rules(code, ENGINE_PATH) == ["determinism"]

    def test_module_level_random_flagged(self):
        code = "import random\ndef f():\n    return random.random()\n"
        assert _rules(code, ENGINE_PATH) == ["determinism"]

    def test_unseeded_numpy_random_flagged(self):
        code = "import numpy as np\ndef f():\n    return np.random.rand(3)\n"
        assert _rules(code, ENGINE_PATH) == ["determinism"]

    def test_unseeded_default_rng_flagged(self):
        code = (
            "import numpy as np\n"
            "def f():\n    return np.random.default_rng()\n"
        )
        assert _rules(code, ENGINE_PATH) == ["determinism"]

    def test_seeded_default_rng_allowed(self):
        code = (
            "import numpy as np\n"
            "def f(seed):\n    return np.random.default_rng(seed)\n"
        )
        assert _rules(code, ENGINE_PATH) == []

    def test_seeded_random_instance_allowed(self):
        code = "import random\ndef f(seed):\n    return random.Random(seed)\n"
        assert _rules(code, ENGINE_PATH) == []

    def test_injected_rng_calls_allowed(self):
        code = "def f(rng):\n    return rng.random()\n"
        assert _rules(code, ENGINE_PATH) == []

    def test_out_of_scope_paths_untouched(self):
        code = "import random\ndef f():\n    return random.random()\n"
        assert _rules(code, OUT_OF_SCOPE_PATH) == []
        assert _rules(code, "<string>") == []


UNCHARGED_LOOP = """
def expand(self):
    total = 0
    for neighbor in self.adjacency[0]:
        total += neighbor
    return total
"""

CHARGED_LOOP = """
def expand(self, meter):
    total = 0
    for neighbor in self.adjacency[0]:
        meter.charge_compute(0, 1)
        total += neighbor
    return total
"""


class TestCostAccounting:
    def test_uncharged_adjacency_loop_flagged(self):
        assert _rules(UNCHARGED_LOOP, ENGINE_PATH) == ["cost-accounting"]

    def test_charged_loop_allowed(self):
        assert _rules(CHARGED_LOOP, ENGINE_PATH) == []

    def test_uncharged_message_loop_flagged(self):
        code = """
        def drain(self):
            for message in self.inbox:
                self.handle(message)
        """
        assert _rules(code, "src/repro/platforms/fake/driver.py") == [
            "cost-accounting"
        ]

    def test_memory_accounting_counts(self):
        code = """
        def load(self, meter):
            for vertex, neighbors in self.adjacency.items():
                meter.allocate_memory(0, 56.0)
        """
        assert _rules(code, ENGINE_PATH) == []

    def test_sending_counts_as_accounting(self):
        code = """
        def flood(self, ctx):
            for neighbor in self.adjacency[0]:
                ctx.send(neighbor, 1)
        """
        assert _rules(code, ENGINE_PATH) == []

    def test_init_exempt(self):
        code = """
        class Engine:
            def __init__(self, graph):
                self.adjacency = {}
                for source, target in graph.iter_edges():
                    self.adjacency.setdefault(source, []).append(target)
        """
        assert _rules(code, ENGINE_PATH) == []

    def test_non_engine_modules_untouched(self):
        # Vertex programs loop over messages freely; the engine
        # charges per message digested.
        assert _rules(
            UNCHARGED_LOOP, "src/repro/platforms/fake/programs.py"
        ) == []

    def test_uncosted_loops_untouched(self):
        code = """
        def tally(self):
            for worker in range(self.num_workers):
                self.totals[worker] = 0
        """
        assert _rules(code, ENGINE_PATH) == []

    def test_bulk_charges_count_as_accounting(self):
        # The CostMeter vector entry points discharge the contract
        # exactly like their scalar counterparts.
        code = """
        def expand(self, meter):
            for ops in self.frontier_ops:
                meter.charge_worker_compute(ops)
        """
        assert _rules(code, ENGINE_PATH) == []
        code = """
        def exchange(self, meter):
            for pair in self.message_pairs:
                meter.charge_worker_messages(pair[0], pair[1], 8.0)
        """
        assert _rules(code, ENGINE_PATH) == []

    def test_bulk_modules_in_scope(self):
        # The vectorized kernel modules are engine code: an uncharged
        # frontier loop there is a finding too.
        bulk_path = "src/repro/platforms/fake/bulk.py"
        assert _rules(UNCHARGED_LOOP, bulk_path) == ["cost-accounting"]
        code = """
        def expand(self, meter):
            for chunk in self.frontier_chunks:
                meter.charge_worker_compute(chunk.ops)
        """
        assert _rules(code, bulk_path) == []
