#!/usr/bin/env python3
# Tile partitioning and the fixed-order kernel.
#
# Shows: ragged-edge partitioning, exact reassembly, the tile census, and
# why every scheduled product in this library is BIT-identical to the
# dense reference even for floats: all kernels accumulate the contraction
# index in the same ascending order.

import numpy as np

from tilerun import accumulate_product, partition, reassemble, reference_gemm

rng = np.random.default_rng(0)

print("== partitioning a 10x7 matrix with tile size 4 ==")
m = rng.standard_normal((10, 7))
tm = partition(m, 4)
print(f"grid: {tm.grid_rows} x {tm.grid_cols} tiles")
shapes = []
for i in range(tm.grid_rows):
    for j in range(tm.grid_cols):
        shapes.append(tm.tile(i, j).shape)
        print(f"  tile ({i},{j}) shape {shapes[-1]}")
full = shapes.count((tm.tile_size, tm.tile_size))
print(f"full {tm.tile_size}x{tm.tile_size} tiles: {full}, "
      f"ragged edge tiles: {len(shapes) - full}")
print("reassemble == original:", np.array_equal(reassemble(tm), m))

print()
print("== tile census on an N x N matrix ==")
n, t = 13, 4
tm = partition(np.zeros((n, n)), t)
floor, ceil = n // t, -(-n // t)
shapes = [tm.tile(i, j).shape for i in range(tm.grid_rows) for j in range(tm.grid_cols)]
full = shapes.count((t, t))
print(f"N={n} T={t}: {floor}^2 = {full} square tiles, "
      f"{ceil}^2 - {floor}^2 = {len(shapes) - full} ragged ones")

print()
print("== the fixed-order kernel makes tiling invisible, bit for bit ==")
a = rng.standard_normal((9, 11))
b = rng.standard_normal((11, 6))
ref = reference_gemm(a, b)
for t in (1, 2, 3, 5):
    ta, tb = partition(a, t), partition(b, t)
    out = partition(np.zeros((9, 6)), t)
    for i in range(out.grid_rows):
        for j in range(out.grid_cols):
            for k in range(ta.grid_cols):
                accumulate_product(ta.tile(i, k), tb.tile(k, j), out.tile(i, j))
    print(f"  T={t}: tiled == dense bitwise -> {np.array_equal(reassemble(out), ref)}")

print()
print("== sub-blocking the kernel (the host-worker path) changes nothing ==")
base = accumulate_product(a, b, np.zeros((9, 6)))
for f in (1, 2, 4):
    sub = accumulate_product(a, b, np.zeros((9, 6)), sub_blocks=f)
    print(f"  sub_blocks={f}: bitwise equal -> {np.array_equal(sub, base)}")
