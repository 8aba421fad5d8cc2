"""Property tests: the array kernels against plain Python loops."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.kernels import (
    csr_gather,
    group_reduce,
    hash_worker,
    hash_workers,
    ordered_group_sum,
)

#: Row lengths of a CSR, zero-degree rows included.
degree_lists = st.lists(st.integers(0, 6), min_size=1, max_size=30)

#: (key, value) records with few distinct keys, so keys repeat.
int_records = st.lists(
    st.tuples(st.integers(0, 12), st.integers(-1000, 1000)), max_size=80
)
float_records = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    max_size=80,
)


@given(degree_lists, st.data())
@settings(max_examples=100, deadline=None)
def test_csr_gather_walks_each_row_slice_in_turn(degrees, data):
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    rows = data.draw(
        st.lists(st.integers(0, len(degrees) - 1), max_size=40), label="rows"
    )
    positions, counts = csr_gather(offsets, np.array(rows, dtype=np.int64))
    expected = [
        position
        for row in rows
        for position in range(offsets[row], offsets[row + 1])
    ]
    assert positions.tolist() == expected
    assert counts.tolist() == [degrees[row] for row in rows]


@given(int_records)
@settings(max_examples=100, deadline=None)
def test_group_reduce_matches_a_dict_of_minima(records):
    keys = np.array([key for key, _ in records], dtype=np.int64)
    values = np.array([value for _, value in records], dtype=np.int64)
    expected: dict[int, int] = {}
    for key, value in records:
        expected[key] = min(expected.get(key, value), value)
    distinct, minima = group_reduce(np.minimum, keys, values)
    assert distinct.tolist() == sorted(expected)
    assert minima.tolist() == [expected[key] for key in sorted(expected)]


@given(float_records)
@settings(max_examples=100, deadline=None)
def test_ordered_group_sum_folds_in_input_order(records):
    keys = np.array([key for key, _ in records], dtype=np.int64)
    values = np.array([value for _, value in records], dtype=np.float64)
    sums: dict[int, float] = {}
    first: dict[int, int] = {}
    for index, (key, value) in enumerate(records):
        sums[key] = sums.get(key, 0.0) + value
        first.setdefault(key, index)
    distinct, first_index, folded = ordered_group_sum(keys, values)
    assert distinct.tolist() == sorted(sums)
    assert first_index.tolist() == [first[key] for key in sorted(sums)]
    # Exact equality: the same additions in the same order.
    assert folded.tolist() == [sums[key] for key in sorted(sums)]


@given(
    st.lists(st.integers(0, 2 ** 40), max_size=50),
    st.integers(1, 16),
)
@settings(max_examples=100, deadline=None)
def test_hash_forms_agree_elementwise(ids, num_workers):
    vectorized = hash_workers(np.array(ids, dtype=np.int64), num_workers)
    assert vectorized.dtype == np.int64
    assert vectorized.tolist() == [hash_worker(v, num_workers) for v in ids]
