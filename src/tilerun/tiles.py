"""Tile keys, matrix and tile-size checks, and the fixed-order GEMM kernels.

Every kernel in this module accumulates over the contraction index in
strictly ascending order.  ``accumulate_product`` folds a chunk of
indices in with one ordered reduction, or with one rank-1 update per
index where the shapes make that exact or cheaper; ``reference_gemm``
keeps the rank-1 loop as the independent oracle.  Because the
per-element operation sequence is then independent of how the operands
are tiled, sub-blocked, or scheduled across devices, a full runtime
product is bit-identical to the dense product computed by
``reference_gemm`` -- not merely close.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np


class TileKey(NamedTuple):
    """Globally unique tile identifier: owning matrix uid + grid coordinate."""

    matrix: str
    row: int
    col: int


def as_tile_size(tile_size) -> int:
    """``tile_size`` as a Python ``int`` >= 1.  Any integer is accepted,
    numpy's included; a bool, a float or any other non-integer is a
    ``TypeError``, so a grid is never sized by one value and sliced by
    another."""
    try:
        if isinstance(tile_size, bool):
            raise TypeError
        t = operator.index(tile_size)
    except TypeError:
        raise TypeError(f"tile_size must be an integer, got {tile_size!r}") from None
    if t < 1:
        raise ValueError(f"tile_size must be >= 1, got {t}")
    return t


def as_matrix(x, dtype=np.float64) -> np.ndarray:
    """Coerce to a 2-D float array with at least one row and column."""
    m = np.asarray(x, dtype=dtype)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    return m


def _block_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    # <= parts contiguous chunks covering range(n), each of near-equal size
    step = math.ceil(n / max(parts, 1))
    return [(s, min(s + step, n)) for s in range(0, n, step)]


# Size in elements of accumulate_product's scratch buffer (512 KiB of
# float64); it bounds how many contraction indices one reduction folds in.
_CHUNK_ELEMENTS = 1 << 16


def accumulate_product(a, b, out, sub_blocks: int = 1) -> np.ndarray:
    """``out += a @ b`` with the contraction index strictly ascending.

    Every output element computes ``((out + p0) + p1) + ...`` with
    ``p_k = a[i, k] * b[k, j]``, so its floating-point operation sequence
    is the same no matter how callers block the operands.  A chunk of
    contraction indices is one broadcast multiply into a buffer whose
    slice 0 is a copy of ``out``, folded in by one ``np.add.reduce`` over
    that leading axis: numpy reduces a non-inner axis strictly in order.
    The reduction starts from ``-0.0``, the exact identity of ``+``, so
    signed zeros come out as the rank-1 loop leaves them.

    The shapes select the rank-1 loop (one ``out += outer`` per index):
    for a 1x1 output, whose only axis becomes numpy's inner loop and is
    summed pairwise; for k <= 2, where the loop's two calls per index
    cost less than building the buffer; for tiles above an eighth of the
    buffer, where a chunk holds so few products that the copy of ``out``
    costs more than the calls it saves; and when ``out`` is narrower than
    the products, whose every step the loop rounds to ``out``'s dtype.

    ``sub_blocks`` splits the rows and columns into that many contiguous
    chunks (the host-worker's factorized tile processing), each sent
    through this kernel; the result is bit-identical for every factor.
    """
    m, k = a.shape
    kb, n = b.shape
    if k != kb:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    if out.shape != (m, n):
        raise ValueError(f"accumulator shape {out.shape}, expected {(m, n)}")
    if sub_blocks > 1:
        for r0, r1 in _block_ranges(m, sub_blocks):
            for c0, c1 in _block_ranges(n, sub_blocks):
                accumulate_product(a[r0:r1], b[:, c0:c1], out[r0:r1, c0:c1])
        return out
    mn = m * n
    if (k <= 2 or mn == 1 or 8 * mn > _CHUNK_ELEMENTS
            or out.dtype != np.result_type(a, b, out)):
        for kk in range(k):
            out += np.multiply.outer(a[:, kk], b[kk, :])
        return out
    w = min(k, _CHUNK_ELEMENTS // mn - 1)
    buf = np.empty((w + 1, m, n), dtype=out.dtype)
    for k0 in range(0, k, w):
        part = buf[: min(w, k - k0) + 1]
        part[0] = out
        np.multiply(a[:, k0 : k0 + w].T[:, :, None], b[k0 : k0 + w, None, :],
                    out=part[1:])
        np.add.reduce(part, axis=0, out=out, initial=-0.0)
    return out


def reference_gemm(a, b) -> np.ndarray:
    """Dense ground-truth product with the fixed k-ascending order.

    Equivalent to the scalar triple loop with the contraction innermost:
    every element accumulates ``a[i, k] * b[k, j]`` for k = 0, 1, ...
    Exact on integer-valued inputs (within f64 range), and the comparison
    baseline for every runtime equivalence test.
    """
    a = as_matrix(a, dtype=np.asarray(a).dtype)
    b = as_matrix(b, dtype=np.asarray(b).dtype)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out
