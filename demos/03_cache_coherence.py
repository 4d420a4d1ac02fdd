#!/usr/bin/env python3
# The two-level tile cache, measured.
#
# A g x g tiled product touches 2g^2 distinct input tiles but makes 2g^3
# input requests.  With the directory on, each distinct tile crosses the
# host link exactly once -- everything else is a local (L1) or peer (L2)
# hit.  With the directory bypassed every request goes to host.  Bounded
# capacity forces LRU evictions yet results stay exact.

import numpy as np

from tilerun import Runtime, homogeneous_machine, reference_gemm, run

rng = np.random.default_rng(0)
g, tile = 8, 8
size = g * tile
a = rng.integers(-4, 5, size=(size, size)).astype(float)
b = rng.integers(-4, 5, size=(size, size)).astype(float)
machine = homogeneous_machine(2)

print(f"== {g}x{g} task grid ({g}^3 = {g**3} k-steps, 2 devices) ==")
for coherence in (True, False):
    c, stats = run(machine, a, b, tile_size=tile, mode="sim", coherence=coherence)
    s = stats.cache
    label = "coherence ON " if coherence else "coherence OFF"
    print(f"{label}: host_fetches={s.host_fetches:5d}  l1_hits={s.l1_hits:5d}  "
          f"l2_hits={s.l2_hits:4d}  host bytes={s.bytes_host:8d}  "
          f"peer bytes={s.bytes_peer:7d}")
    assert np.array_equal(c, reference_gemm(a, b))

print(f"\ndistinct input tiles: 2g^2 = {2 * g * g}; "
      f"total input requests: 2g^3 = {2 * g**3}")
print(f"the directory removes a {g}x factor of redundant host traffic")

print()
print("== squeezing through capacity_tiles=3 (one A + one B + one C) ==")
tight = homogeneous_machine(2, capacity_tiles=3)
rt = Runtime(tight, tile_size=tile, mode="sim")
c, stats = rt.multiply(a, b)
rt.directory.check_invariants()  # no device holds more inputs than capacity - 1
print(f"result exact: {np.array_equal(c, reference_gemm(a, b))}, "
      f"evictions: {stats.cache.evictions}, "
      f"host_fetches: {stats.cache.host_fetches} (reuse mostly gone)")

print()
print("== proximity: peer fetches come from the closest owner ==")
# device 2 is 1 hop from device 0; device 1 is 3 hops away
from tilerun import DeviceSpec, Machine, ProximityMatrix
from tilerun.coherence import CacheDirectory
from tilerun.tiles import TileKey

hops = np.array([[0, 3, 1], [3, 0, 1], [1, 1, 0]])
prox = ProximityMatrix(hops, np.full((3, 3), 1e6))
m3 = Machine([DeviceSpec(i) for i in range(3)], prox)
directory = CacheDirectory(m3)
key = TileKey("A", 0, 0)
# each call is one transaction over an ordered list of (key, nbytes)
# requests; a task sends the A and B tiles of each of its contraction
# steps in turn in one call.  Here every call is one tile
for holder in (1, 2):
    directory.acquire_input(holder, [(key, 8)])
(picked,) = directory.acquire_input(0, [(key, 8)])
print(f"tile held by devices 1 (3 hops) and 2 (1 hop); device 0 fetches from: "
      f"device {picked.source}")
