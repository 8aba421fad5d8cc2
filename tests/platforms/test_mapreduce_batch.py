"""Unit tests for the columnar MapReduce data plane.

Covers the :mod:`repro.platforms.mapreduce.batch` primitives —
struct-of-arrays round trips, message gather/combine, repr-order
permutations, the vectorized CRC32 partitioner — and the engine-level
contract: running a batch-capable job over a :class:`RecordBatch`
produces the identical output records, counters, and cost profile as
the scalar path over ``batch.to_pairs()``.
"""

import zlib

import numpy as np
import pytest

from repro.core.cost import ClusterSpec, CostMeter
from repro.graph.graph import Graph
from repro.platforms.mapreduce.batch import (
    RecordBatch,
    combine_min_messages,
    crc32_rows,
    repr_sort_permutation,
    str_key_workers,
)
from repro.platforms.mapreduce.engine import MapReduceEngine
from repro.platforms.mapreduce.jobs import (
    UNREACHABLE,
    BFSIterationJob,
    ConnIterationJob,
)

def make_batch(**columns):
    """Rows 0-4: edges 0-1, 0-2, 1-2, 1-3; vertex 4 is isolated."""
    graph = Graph.from_edges(
        [(0, 1), (0, 2), (1, 2), (1, 3)], vertices=range(5), directed=False
    )
    batch = RecordBatch.from_graph(graph)
    for name, values in columns.items():
        batch.columns[name] = np.asarray(values, dtype=np.int64)
    return batch


class TestRecordBatch:
    def test_round_trip_matches_scalar_records(self):
        batch = make_batch(dist=[0, 1, 1, 2, UNREACHABLE])
        assert batch.to_pairs() == [
            (0, ((1, 2), 0)),
            (1, ((0, 2, 3), 1)),
            (2, ((0, 1), 1)),
            (3, ((1,), 2)),
            (4, ((), UNREACHABLE)),
        ]

    def test_degrees_and_total_adjacency(self):
        batch = make_batch()
        assert batch.degrees.tolist() == [2, 3, 2, 1, 0]
        assert batch.total_adjacency == 8

    def test_adjacency_targets_are_row_positions(self):
        # Keys with gaps: positions must resolve through the key
        # column, not act as vertex ids.
        batch = RecordBatch.from_graph(
            Graph.from_edges([(10, 30)], directed=False)
        )
        assert batch.keys.tolist() == [10, 30]
        assert batch.adj_targets.tolist() == [1, 0]

    def test_gather_messages_broadcasts_per_neighbor(self):
        batch = make_batch()
        emitters = np.array([True, False, False, True, False])
        values = np.array([5, 0, 0, 7, 0], dtype=np.int64)
        targets, payloads = batch.gather_messages(emitters, values)
        # Row 0 (degree 2) sends 5 to rows 1, 2; row 3 sends 7 to row 1.
        assert targets.tolist() == [1, 2, 1]
        assert payloads.tolist() == [5, 5, 7]

    def test_gather_messages_no_emitters(self):
        batch = make_batch()
        targets, payloads = batch.gather_messages(
            np.zeros(len(batch), dtype=bool), np.zeros(len(batch), dtype=np.int64)
        )
        assert targets.size == 0 and payloads.size == 0

    def test_reorder_permutes_rows_and_remaps_adjacency(self):
        batch = make_batch(dist=[0, 1, 1, 2, 3])
        permutation = np.array([4, 3, 2, 1, 0])
        reordered = batch.reorder(permutation)
        assert reordered.keys.tolist() == [4, 3, 2, 1, 0]
        assert reordered.columns["dist"].tolist() == [3, 2, 1, 1, 0]
        # Scalar view is the same records, just in the new order.
        assert sorted(reordered.to_pairs()) == sorted(batch.to_pairs())

    def test_reorder_identity_returns_self(self):
        batch = make_batch()
        assert batch.reorder(np.arange(len(batch))) is batch


class TestCombineMinMessages:
    def test_matches_scalar_min_grouping(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(0, 20, size=200)
        payloads = rng.integers(-50, 50, size=200)
        minimum, has_message = combine_min_messages(20, targets, payloads)
        expected = {}
        for row, value in zip(targets.tolist(), payloads.tolist()):
            expected[row] = min(expected.get(row, value), value)
        for row in range(20):
            assert has_message[row] == (row in expected)
            if row in expected:
                assert minimum[row] == expected[row]

    def test_empty(self):
        minimum, has_message = combine_min_messages(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert minimum.tolist() == [0, 0, 0]
        assert not has_message.any()


class TestReprSortPermutation:
    def test_matches_sorted_by_repr(self):
        keys = np.array([0, 1, 2, 10, 11, 100, 20, 3, 9])
        permutation = repr_sort_permutation(keys)
        assert keys[permutation].tolist() == sorted(
            keys.tolist(), key=repr
        )

    def test_random_keys(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 10**6, size=500)
        assert keys[repr_sort_permutation(keys)].tolist() == sorted(
            keys.tolist(), key=repr
        )

    @staticmethod
    def _assert_string_order(keys):
        # The oracle: a stable sort of the keys' decimal strings.
        keys = np.asarray(keys, dtype=np.int64)
        expected = np.argsort(keys.astype("U"), kind="stable")
        assert repr_sort_permutation(keys).tolist() == expected.tolist()

    def test_empty_and_single_key(self):
        self._assert_string_order([])
        self._assert_string_order([7])

    def test_zero_and_powers_of_ten_beside_their_neighbours(self):
        keys = [0]
        for exponent in range(1, 19):
            power = 10**exponent
            keys += [power - 1, power, power + 1]
        rng = np.random.default_rng(3)
        self._assert_string_order(keys)
        self._assert_string_order(rng.permutation(keys))

    def test_eighteen_and_nineteen_digit_keys(self):
        keys = [
            10**17, 10**18 - 1, 10**18, 10**18 + 1, 2 * 10**18,
            9 * 10**18, 2**63 - 2, 2**63 - 1, 123456789012345678,
            1234567890123456789, 12, 123, 1,
        ]
        self._assert_string_order(keys)
        self._assert_string_order(keys[::-1])

    def test_negative_keys(self):
        keys = [
            -(2**63), -(2**63) + 1, -(10**18), -(10**18) + 1, -101, -100,
            -99, -11, -10, -9, -1, 0, 1, 9, 10, 2**63 - 1,
        ]
        rng = np.random.default_rng(5)
        self._assert_string_order(keys)
        self._assert_string_order(rng.permutation(keys))
        self._assert_string_order(
            rng.integers(-(2**63), 2**63 - 1, size=2000, dtype=np.int64)
        )

    def test_duplicate_keys_keep_their_input_order(self):
        rng = np.random.default_rng(9)
        self._assert_string_order(rng.integers(-30, 120, size=600))
        self._assert_string_order([10, 1, 10, -1, 1, 100, -1, 10, 0, 0])


class TestVectorizedCrc32:
    def test_crc32_rows_matches_zlib(self):
        rows = [b"hello", b"", b"a", b"longer-key-material", b"\x00\x01\xff"]
        width = max(len(r) for r in rows)
        matrix = np.zeros((len(rows), width), dtype=np.uint8)
        for i, row in enumerate(rows):
            matrix[i, : len(row)] = bytearray(row)
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        expected = [zlib.crc32(r) for r in rows]
        assert crc32_rows(matrix, lengths).tolist() == expected

    @pytest.mark.parametrize("num_workers", [1, 3, 10])
    def test_str_key_workers_matches_scalar_partitioner(self, num_workers):
        keys = ["alpha", "beta", "", "vertex-123", "Zz 9~!"]
        workers = str_key_workers(keys, num_workers)
        assert workers is not None
        expected = [
            zlib.crc32(repr(key).encode()) % num_workers for key in keys
        ]
        assert workers.tolist() == expected

    @pytest.mark.parametrize(
        "keys",
        [
            ["fine", "has'quote"],
            ["fine", "back\\slash"],
            ["fine", "unié"],
            ["fine", "tab\there"],
            ["fine", "nul\x00byte"],
            [1, 2],
            [],
        ],
        ids=["quote", "backslash", "non-ascii", "control", "nul", "ints", "empty"],
    )
    def test_str_key_workers_declines_general_repr(self, keys):
        # Anything whose repr is not just '<key>' falls back to the
        # scalar partitioner.
        assert str_key_workers(keys, 4) is None


class TestEngineBatchEquivalence:
    """Job-level contract: batch in == scalar records in, bit for bit."""

    def _engines(self):
        spec = ClusterSpec.paper_distributed()
        bulk_engine = MapReduceEngine(spec, CostMeter(spec), bulk=True)
        scalar_engine = MapReduceEngine(spec, CostMeter(spec), bulk=False)
        return bulk_engine, scalar_engine

    def _profile_key(self, meter):
        profile = meter.profile
        return (
            tuple(
                (
                    record.name,
                    tuple(record.ops_per_worker),
                    record.local_messages,
                    record.remote_messages,
                    record.remote_bytes,
                    record.disk_read_bytes,
                    record.disk_write_bytes,
                    record.seconds,
                )
                for record in profile.rounds
            ),
            profile.simulated_seconds,
            profile.total_messages,
        )

    def _assert_equivalent(self, job_factory, columns):
        bulk_engine, scalar_engine = self._engines()
        batch = make_batch(**columns)
        records = batch.to_pairs()
        bulk_result = bulk_engine.run_job(job_factory(), batch)
        scalar_result = scalar_engine.run_job(job_factory(), records)
        assert isinstance(bulk_result.output, RecordBatch)
        assert bulk_result.output.to_pairs() == scalar_result.output
        assert bulk_result.counters == scalar_result.counters
        assert self._profile_key(bulk_engine.meter) == self._profile_key(
            scalar_engine.meter
        )

    def test_bfs_iteration(self):
        self._assert_equivalent(
            lambda: BFSIterationJob(1),
            {"dist": [0, UNREACHABLE, UNREACHABLE, UNREACHABLE, UNREACHABLE]},
        )

    def test_bfs_iteration_no_frontier(self):
        self._assert_equivalent(
            lambda: BFSIterationJob(5),
            {"dist": [0, 1, 1, 2, UNREACHABLE]},
        )

    def test_conn_iteration(self):
        self._assert_equivalent(
            lambda: ConnIterationJob(1),
            {"label": [0, 1, 2, 3, 4]},
        )

    def test_batch_requires_bulk_engine(self):
        spec = ClusterSpec.paper_distributed()
        engine = MapReduceEngine(spec, CostMeter(spec), bulk=False)
        with pytest.raises(TypeError, match="cannot run columnar"):
            engine.run_job(BFSIterationJob(1), make_batch(dist=[0, 1, 1, 2, 3]))

    def test_batch_requires_batch_capable_job(self):
        from repro.platforms.mapreduce.jobs import StatsTriangleJob

        spec = ClusterSpec.paper_distributed()
        engine = MapReduceEngine(spec, CostMeter(spec), bulk=True)
        with pytest.raises(TypeError, match="cannot run columnar"):
            engine.run_job(StatsTriangleJob(), make_batch())
