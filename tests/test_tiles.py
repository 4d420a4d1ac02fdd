import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tile_grid
from tilerun.scheduler import Operand, _extents, _shape_key, _template
from tilerun.tiles import (
    TileKey,
    accumulate_product,
    as_matrix,
    as_tile_size,
    reference_gemm,
)


def shapes(m, t):
    """The tile shapes of ``m`` cut by ``t``, by the slicing oracle, after
    checking that ``_extents`` gives the same extents."""
    grid = tile_grid(m, t)
    rows, cols = _extents(m.shape[0], t), _extents(m.shape[1], t)
    got = [[tile.shape for tile in row] for row in grid]
    assert got == [[(r, c) for c in cols] for r in rows]
    return [shape for row in got for shape in row]


def reassembled(m, t):
    """The tiles of ``m`` whose extents ``_extents`` gives, stacked back."""
    shapes(m, t)
    return np.block(tile_grid(m, t))


def test_partition_exact_division():
    m = np.arange(16, dtype=float).reshape(4, 4)
    assert _extents(4, 2) == [2, 2]
    assert shapes(m, 2) == [(2, 2)] * 4


def test_partition_ragged_edges():
    m = np.arange(25, dtype=float).reshape(5, 5)
    assert _extents(5, 2) == [2, 2, 1]
    grid = shapes(m, 2)
    # 4 square 2x2 tiles, 5 ragged ones on the edges
    assert grid.count((2, 2)) == 4
    assert (grid[2], grid[6], grid[8]) == ((2, 1), (1, 2), (1, 1))


def test_partition_rectangular_and_reassemble():
    m = np.arange(21, dtype=float).reshape(3, 7)
    assert (_extents(3, 3), _extents(7, 3)) == ([3], [3, 3, 1])
    assert shapes(m, 3) == [(3, 3), (3, 3), (3, 1)]
    assert np.array_equal(reassembled(m, 3), m)


def test_partition_rejects_zero_tile_size():
    with pytest.raises(ValueError):
        as_tile_size(0)


def test_partition_preserves_values():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((11, 13))
    rows, cols = _extents(11, 4), _extents(13, 4)
    grid = tile_grid(m, 4)
    for i, height in enumerate(rows):
        for j, width in enumerate(cols):
            r0, c0 = i * 4, j * 4
            assert np.array_equal(grid[i][j], m[r0 : r0 + height, c0 : c0 + width])


def test_reassemble_identity_roundtrip():
    m = np.eye(4)
    assert np.array_equal(reassembled(m, 2), m)


def test_reassemble_random_roundtrip():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((5, 5))
    assert np.array_equal(reassembled(m, 2), m)


def test_reassemble_degenerate_tile():
    m = np.array([[3.5]])
    assert _extents(1, 7) == [1]
    assert np.array_equal(reassembled(m, 7), m)


def test_roundtrip_many_shapes_and_sizes():
    rng = np.random.default_rng(123)
    for _ in range(40):
        rows = int(rng.integers(1, 30))
        cols = int(rng.integers(1, 30))
        t = int(rng.integers(1, 12))
        m = rng.standard_normal((rows, cols))
        assert np.array_equal(reassembled(m, t), m)
        assert (len(_extents(rows, t)), len(_extents(cols, t))) == (-(-rows // t), -(-cols // t))


def test_tile_census_square_matrices():
    # ceil(n/t)^2 - floor(n/t)^2 ragged tiles on an n x n matrix, each as
    # wide as what is left of the matrix past its grid position
    for n in range(1, 20):
        for t in range(1, n + 2):
            floor, ceil = n // t, -(-n // t)
            grid = shapes(np.zeros((n, n)), t)
            assert grid == [(min(t, n - i * t), min(t, n - j * t))
                            for i in range(ceil) for j in range(ceil)]
            assert grid.count((t, t)) == floor * floor
            assert len(grid) - grid.count((t, t)) == ceil * ceil - floor * floor


def tasks(m, k, n, t, dtypes=(np.float64, np.float64)):
    """The task table of the template of an (m, k) x (k, n) product."""
    a, b = np.zeros((m, k), dtypes[0]), np.zeros((k, n), dtypes[1])
    return _template(_shape_key(Operand(a, "A"), Operand(b, "B"), t)).tasks


def test_encode_decode_origin():
    # task ids are row-major: tile (row, col) is task row * grid_cols + col
    assert tasks(1, 1, 1, 1) == [(0, 0, 8)]


def test_encode_decode_2x3_grid():
    table = tasks(4, 2, 6, 2)
    assert table[5][:2] == (1, 2)
    assert [task[:2] for task in table] == [(i, j) for i in range(2) for j in range(3)]


def test_encode_decode_exhaustive_4x4():
    table = tasks(16, 4, 16, 4)
    assert table[15][:2] == (3, 3)
    cells = [task[:2] for task in table]
    assert len(cells) == 16 and set(cells) == {(i, j) for i in range(4) for j in range(4)}


def test_encode_decode_bijection_random_grids():
    # the table holds each output tile (i, j) once, at id i * grid_cols + j,
    # with the writeback bytes of its extents and the output's itemsize
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, k, n = (int(x) for x in rng.integers(1, 40, size=3))
        t = int(rng.integers(1, 12))
        dtypes = [(np.float32, np.float64)[x] for x in rng.integers(2, size=2)]
        rows, cols = _extents(m, t), _extents(n, t)
        itemsize = np.result_type(*dtypes).itemsize
        assert tasks(m, k, n, t, dtypes) == [(i, j, rows[i] * cols[j] * itemsize)
                                             for i in range(len(rows)) for j in range(len(cols))]


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


def test_reference_gemm_rejects_unequal_inner_dimensions():
    with pytest.raises(ValueError, match="inner dimensions differ"):
        reference_gemm(np.ones((2, 3)), np.ones((2, 3)))


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
        ta, tb = tile_grid(a, t), tile_grid(b, t)
        out = np.zeros((7, 3))
        for i, row in enumerate(tile_grid(out, t)):
            for j, tile in enumerate(row):
                for k in range(len(ta[0])):
                    accumulate_product(ta[i][k], tb[k][j], tile)
        assert np.array_equal(out, ref), f"T={t}"


def test_tiled_float_product_is_bitwise_equal_too():
    # fixed accumulation order makes even float results identical
    rng = np.random.default_rng(4)
    a = rng.standard_normal((9, 11))
    b = rng.standard_normal((11, 6))
    ref = reference_gemm(a, b)
    for t in (2, 4, 7):
        ta, tb = tile_grid(a, t), tile_grid(b, t)
        out = np.zeros((9, 6))
        for i, row in enumerate(tile_grid(out, t)):
            for j, tile in enumerate(row):
                for k in range(len(ta[0])):
                    accumulate_product(ta[i][k], tb[k][j], tile)
        assert np.array_equal(out, ref), f"T={t}"


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
