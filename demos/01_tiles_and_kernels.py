#!/usr/bin/env python3
# Tiles and the fixed-order kernel.
#
# Shows: the ragged edge tiles a tile size cuts, the tile census, and
# why every scheduled product in this library is BIT-identical to the
# dense reference even for floats: all kernels accumulate the contraction
# index in the same ascending order.  A tile is a plain slice of an array.

import numpy as np

from tilerun import accumulate_product, reference_gemm

rng = np.random.default_rng(0)


def tile(x, t, i, j):
    """Tile (i, j) of ``x`` cut by tile size ``t``: a view, ragged at the edges."""
    return x[i * t : (i + 1) * t, j * t : (j + 1) * t]


def grid(x, t):
    """The tile grid of ``x``: (rows, cols) of tiles."""
    return tuple(-(-n // t) for n in x.shape)


print("== tiling a 10x7 matrix with tile size 4 ==")
m, t = rng.standard_normal((10, 7)), 4
rows, cols = grid(m, t)
print(f"grid: {rows} x {cols} tiles")
shapes = []
for i in range(rows):
    for j in range(cols):
        shapes.append(tile(m, t, i, j).shape)
        print(f"  tile ({i},{j}) shape {shapes[-1]}")
full = shapes.count((t, t))
print(f"full {t}x{t} tiles: {full}, ragged edge tiles: {len(shapes) - full}")

print()
print("== tile census on an N x N matrix ==")
n, t = 13, 4
z = np.zeros((n, n))
rows, cols = grid(z, t)
floor, ceil = n // t, -(-n // t)
shapes = [tile(z, t, i, j).shape for i in range(rows) for j in range(cols)]
full = shapes.count((t, t))
print(f"N={n} T={t}: {floor}^2 = {full} square tiles, "
      f"{ceil}^2 - {floor}^2 = {len(shapes) - full} ragged ones")

print()
print("== the fixed-order kernel makes tiling invisible, bit for bit ==")
a = rng.standard_normal((9, 11))
b = rng.standard_normal((11, 6))
ref = reference_gemm(a, b)
for t in (1, 2, 3, 5):
    out = np.zeros((9, 6))
    rows, cols = grid(out, t)
    for i in range(rows):
        for j in range(cols):
            for k in range(grid(a, t)[1]):
                accumulate_product(tile(a, t, i, k), tile(b, t, k, j), tile(out, t, i, j))
    print(f"  T={t}: tiled == dense bitwise -> {np.array_equal(out, ref)}")

print()
print("== sub-blocking the kernel (the host-worker path) changes nothing ==")
base = accumulate_product(a, b, np.zeros((9, 6)))
for f in (1, 2, 4):
    sub = accumulate_product(a, b, np.zeros((9, 6)), sub_blocks=f)
    print(f"  sub_blocks={f}: bitwise equal -> {np.array_equal(sub, base)}")
