#!/usr/bin/env python3
# The scaling story: simulated speedup vs problem size.
#
# Small problems cannot hide transfer time or fill four devices, so the
# 4-device speedup starts low, climbs with the matrix size, and plateaus
# near 4x once compute dominates.  Same thing the `tilerun sweep`
# subcommand tabulates.

import numpy as np

from tilerun import DeviceSpec, Machine, ProximityMatrix, homogeneous_machine, run

tile = 16
sizes = [32, 64, 128, 256, 320]
print(f"{'size':>6} {'grid':>6} {'makespan(1)':>12} {'makespan(4)':>12} {'speedup':>8}")
for size in sizes:
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, size=(size, size))
    b = rng.uniform(0.0, 1.0, size=(size, size))
    mk = {}
    for n in (1, 4):
        machine = homogeneous_machine(n, flops_per_unit=1000.0,
                                      host_bandwidth=256.0, peer_bandwidth=32768.0)
        _, stats = run(machine, a, b, tile_size=tile, mode="sim")
        mk[n] = stats.makespan
    g = -(-size // tile)
    print(f"{size:>6} {g:>3}x{g:<2} {mk[1]:>12.1f} {mk[4]:>12.1f} {mk[1] / mk[4]:>8.3f}")

# Unequal devices: flops 1000:2000:3000:4000 on the same host links.  Each
# device fetches its next task while the current one computes, so faster
# devices pull more tasks.  The ideal column is each device's share of the
# summed flops; the host links, not the flops, bound the fastest device here,
# so it falls short of that share.
flops = [1000.0, 2000.0, 3000.0, 4000.0]
machine = Machine([DeviceSpec(i, flops_per_unit=f, host_bandwidth=256.0)
                   for i, f in enumerate(flops)],
                  ProximityMatrix.uniform(len(flops), bandwidth=32768.0))
rng = np.random.default_rng(0)
a = rng.uniform(0.0, 1.0, size=(256, 256))
b = rng.uniform(0.0, 1.0, size=(256, 256))
_, stats = run(machine, a, b, tile_size=tile, mode="sim")
print()
print(f"unequal devices, 256x256 at tile {tile}: makespan {stats.makespan:.1f}")
print(f"{'device':>6} {'flops':>6} {'tasks':>6} {'ideal':>6}")
for d, f in enumerate(flops):
    ideal = stats.total_tasks * f / sum(flops)
    print(f"{d:>6} {f:>6.0f} {stats.tasks_by_device[d]:>6} {ideal:>6.1f}")

print()
print("equivalent CLI:")
print("  tilerun sweep --sizes 32,64,128,256,320 --device-counts 1,4 \\")
print("                --tile-size 16 --out sweep.csv")
