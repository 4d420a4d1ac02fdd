import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilerun.tiles import (
    TileKey,
    accumulate_product,
    as_matrix,
    decode_task,
    partition,
    reassemble,
    reference_gemm,
)


def test_partition_exact_division():
    m = np.arange(16, dtype=float).reshape(4, 4)
    tm = partition(m, 2)
    assert (tm.grid_rows, tm.grid_cols) == (2, 2)
    for i in range(2):
        for j in range(2):
            assert tm.tile(i, j).shape == (2, 2)


def test_partition_ragged_edges():
    m = np.arange(25, dtype=float).reshape(5, 5)
    tm = partition(m, 2)
    assert (tm.grid_rows, tm.grid_cols) == (3, 3)
    # 4 square 2x2 tiles, 5 ragged ones on the edges
    shapes = [tm.tile(i, j).shape for i in range(3) for j in range(3)]
    assert shapes.count((2, 2)) == 4
    assert tm.tile(0, 2).shape == (2, 1)
    assert tm.tile(2, 0).shape == (1, 2)
    assert tm.tile(2, 2).shape == (1, 1)


def test_partition_rectangular_and_reassemble():
    m = np.arange(21, dtype=float).reshape(3, 7)
    tm = partition(m, 3)
    assert (tm.grid_rows, tm.grid_cols) == (1, 3)
    assert tm.tile(0, 0).shape == (3, 3)
    assert tm.tile(0, 1).shape == (3, 3)
    assert tm.tile(0, 2).shape == (3, 1)
    assert np.array_equal(reassemble(tm), m)


def test_partition_rejects_zero_tile_size():
    with pytest.raises(ValueError):
        partition(np.ones((2, 2)), 0)


def test_partition_preserves_values():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((11, 13))
    tm = partition(m, 4)
    for i in range(tm.grid_rows):
        for j in range(tm.grid_cols):
            r0, c0 = i * 4, j * 4
            t = tm.tile(i, j)
            assert np.array_equal(t, m[r0 : r0 + t.shape[0], c0 : c0 + t.shape[1]])


def test_reassemble_identity_roundtrip():
    m = np.eye(4)
    assert np.array_equal(reassemble(partition(m, 2)), m)


def test_reassemble_random_roundtrip():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((5, 5))
    assert np.array_equal(reassemble(partition(m, 2)), m)


def test_reassemble_degenerate_tile():
    m = np.array([[3.5]])
    assert np.array_equal(reassemble(partition(m, 7)), m)


def test_roundtrip_many_shapes_and_sizes():
    rng = np.random.default_rng(123)
    for _ in range(40):
        rows = int(rng.integers(1, 30))
        cols = int(rng.integers(1, 30))
        t = int(rng.integers(1, 12))
        m = rng.standard_normal((rows, cols))
        tm = partition(m, t)
        assert np.array_equal(reassemble(tm), m)
        assert (tm.grid_rows, tm.grid_cols) == (-(-rows // t), -(-cols // t))


def test_tile_census_square_matrices():
    # ceil(n/t)^2 - floor(n/t)^2 ragged tiles on an n x n matrix, each as
    # wide as what is left of the matrix past its grid position
    for n in range(1, 20):
        for t in range(1, n + 2):
            tm = partition(np.zeros((n, n)), t)
            floor, ceil = n // t, -(-n // t)
            assert (tm.grid_rows, tm.grid_cols) == (ceil, ceil)
            shapes = [tm.tile(i, j).shape for i in range(ceil) for j in range(ceil)]
            assert shapes == [(min(t, n - i * t), min(t, n - j * t))
                              for i in range(ceil) for j in range(ceil)]
            assert shapes.count((t, t)) == floor * floor
            assert len(shapes) - shapes.count((t, t)) == ceil * ceil - floor * floor


def test_encode_decode_origin():
    # task ids are row-major: tile (row, col) is task row * grid_cols + col
    assert decode_task(0, 1, 1) == (0, 0)


def test_encode_decode_2x3_grid():
    assert decode_task(5, 3, grid_rows=2) == (1, 2)
    seen = set()
    for i in range(2):
        for j in range(3):
            tid = i * 3 + j
            assert decode_task(tid, 3, grid_rows=2) == (i, j)
            seen.add(tid)
    assert seen == set(range(6))


def test_encode_decode_exhaustive_4x4():
    assert decode_task(15, 4, grid_rows=4) == (3, 3)
    cells = {decode_task(tid, 4, grid_rows=4) for tid in range(16)}
    assert cells == {(i, j) for i in range(4) for j in range(4)}


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_task(6, 3, grid_rows=2)
    with pytest.raises(ValueError):
        decode_task(-1, 3, 2)
    with pytest.raises(ValueError):
        decode_task(0, 0, 1)


def test_encode_decode_bijection_random_grids():
    rng = np.random.default_rng(5)
    for _ in range(30):
        gr = int(rng.integers(1, 12))
        gc = int(rng.integers(1, 12))
        ids = [i * gc + j for i in range(gr) for j in range(gc)]
        assert sorted(ids) == list(range(gr * gc))
        for tid in ids:
            i, j = decode_task(tid, gc, grid_rows=gr)
            assert 0 <= i < gr and 0 <= j < gc
            assert i * gc + j == tid


def test_accumulate_product_identity():
    a = np.eye(2)
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(accumulate_product(a, b, np.zeros((2, 2))), b)


def test_accumulate_product_hand_computed():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    expected = np.array([[19.0, 22.0], [43.0, 50.0]])
    assert np.array_equal(accumulate_product(a, b, np.zeros((2, 2))), expected)


def test_accumulate_product_accumulates_in_place():
    a = np.array([[1.0, 1.0]])
    b = np.array([[2.0], [3.0]])
    c = np.array([[10.0]])
    assert accumulate_product(a, b, c) is c
    assert np.array_equal(c, [[15.0]])
    # the operands are only read
    assert np.array_equal(a, [[1.0, 1.0]]) and np.array_equal(b, [[2.0], [3.0]])


def test_accumulate_product_rejects_mismatch():
    with pytest.raises(ValueError):
        accumulate_product(np.ones((2, 3)), np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        accumulate_product(np.ones((2, 3)), np.ones((3, 2)), np.zeros((3, 3)))


def test_reference_gemm_identity_and_zeros():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3))
    assert np.array_equal(reference_gemm(np.eye(3), m), m)
    z = reference_gemm(np.zeros((2, 3)), rng.standard_normal((3, 4)))
    assert np.array_equal(z, np.zeros((2, 4)))


def test_reference_matches_scalar_triple_loop():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(5):
                acc += a[i, k] * b[k, j]
            expected[i, j] = acc
    assert np.array_equal(reference_gemm(a, b), expected)


def test_tiled_product_equals_reference_for_every_tile_size():
    rng = np.random.default_rng(3)
    a = rng.integers(-9, 10, size=(7, 5)).astype(float)
    b = rng.integers(-9, 10, size=(5, 3)).astype(float)
    ref = reference_gemm(a, b)
    for t in (1, 2, 3, 5, 8):
        ta, tb = partition(a, t), partition(b, t)
        out = partition(np.zeros((7, 3)), t)
        for i in range(out.grid_rows):
            for j in range(out.grid_cols):
                for k in range(ta.grid_cols):
                    accumulate_product(ta.tile(i, k), tb.tile(k, j), out.tile(i, j))
        assert np.array_equal(reassemble(out), ref), f"T={t}"


def test_tiled_float_product_is_bitwise_equal_too():
    # fixed accumulation order makes even float results identical
    rng = np.random.default_rng(4)
    a = rng.standard_normal((9, 11))
    b = rng.standard_normal((11, 6))
    ref = reference_gemm(a, b)
    for t in (2, 4, 7):
        ta, tb = partition(a, t), partition(b, t)
        out = partition(np.zeros((9, 6)), t)
        for i in range(out.grid_rows):
            for j in range(out.grid_cols):
                for k in range(ta.grid_cols):
                    accumulate_product(ta.tile(i, k), tb.tile(k, j), out.tile(i, j))
        assert np.array_equal(reassemble(out), ref), f"T={t}"


def test_subblocked_kernel_is_bitwise_invariant():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 10))
    b = rng.standard_normal((10, 9))
    base = accumulate_product(a, b, np.zeros((12, 9)))
    for f in (1, 2, 3, 4, 16):
        out = accumulate_product(a, b, np.zeros((12, 9)), sub_blocks=f)
        assert np.array_equal(out, base), f"f={f}"


def _rank1_loop(a, b, out):
    for kk in range(a.shape[1]):
        out += np.multiply.outer(a[:, kk], b[kk, :])
    return out


def _operand(rng, shape, dtype, layout, magnitude, zero_share):
    x = rng.standard_normal(shape) * magnitude
    zeros = rng.random(shape) < zero_share
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    x = x.astype(dtype)
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":
        big = np.zeros((2 * shape[0], 3 * shape[1]), dtype=dtype)
        big[::2, ::3] = x
        return big[::2, ::3]
    return x


_layouts = st.sampled_from(["c", "fortran", "strided"])


@settings(max_examples=300, deadline=None)
@given(
    mkn=st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)),
        st.tuples(st.just(1), st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(20, 40), st.integers(41, 200), st.integers(20, 40)),
    ),
    dtypes=st.sampled_from([(np.float64, np.float64), (np.float32, np.float64),
                            (np.float32, np.float32), (np.float64, np.float32)]),
    layouts=st.tuples(_layouts, _layouts, _layouts),
    exponents=st.tuples(*[st.integers(-8, 8)] * 3),
    zero_share=st.sampled_from([0.0, 0.1, 1.0]),  # share of ±0.0 entries
    sub_blocks=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_rank1_loop_bitwise(mkn, dtypes, layouts, exponents, zero_share,
                                          sub_blocks, seed):
    # The kernel folds chunks of k in with one reduction; every output
    # element must still see the rank-1 loop's exact operation sequence.
    m, k, n = mkn
    dt_in, dt_out = dtypes
    rng = np.random.default_rng(seed)
    a = _operand(rng, (m, k), dt_in, layouts[0], 10.0 ** exponents[0], zero_share)
    b = _operand(rng, (k, n), dt_in, layouts[1], 10.0 ** exponents[1], zero_share)
    out = _operand(rng, (m, n), dt_out, layouts[2], 10.0 ** exponents[2], zero_share)
    expected = _rank1_loop(a, b, np.array(out))
    got = accumulate_product(a, b, out, sub_blocks=sub_blocks)
    assert got is out
    assert got.dtype == expected.dtype
    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("m,k", [(96, 600), (64, 1500)])
def test_kernel_scratch_memory_is_bounded(m, k):
    # One buffer for all of k would take (k + 1) * m * m * 8 bytes: 44 MB
    # and 49 MB here.
    rng = np.random.default_rng(8)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, m))
    out = np.zeros((m, m))
    tracemalloc.start()
    try:
        accumulate_product(a, b, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert np.array_equal(out, reference_gemm(a, b))


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


def test_tile_key_hashable_and_distinct():
    k1 = TileKey("A", 0, 1)
    k2 = TileKey("B", 0, 1)
    assert k1 != k2
    assert len({k1, k2, TileKey("A", 0, 1)}) == 2
