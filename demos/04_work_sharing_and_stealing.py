#!/usr/bin/env python3
# Demand-driven work sharing and work stealing.
#
# Nobody assigns tasks to devices: stations refill from the global queue
# as they empty, so faster devices simply come back for more.  When the
# queue runs dry, an idle device steals a reserved task from the most
# loaded peer station.

import numpy as np

from tilerun import DeviceSpec, Machine, ProximityMatrix, homogeneous_machine, reference_gemm, run

rng = np.random.default_rng(1)
tile = 4
size = 20 * tile  # 400 tasks
a = rng.integers(-4, 5, size=(size, size)).astype(float)
b = rng.integers(-4, 5, size=(size, size)).astype(float)

print("== homogeneous devices split the work evenly ==")
_, stats = run(homogeneous_machine(4, host_bandwidth=1e9, peer_bandwidth=1e9),
               a, b, tile_size=tile, mode="sim")
print("tasks per device:", stats.tasks_by_device, f"(of {stats.total_tasks})")

print()
print("== throughputs 1:2:3:4 pull work in proportion ==")
flops = [250.0, 500.0, 750.0, 1000.0]
devs = [DeviceSpec(i, flops_per_unit=f, host_bandwidth=1e9) for i, f in enumerate(flops)]
m = Machine(devs, ProximityMatrix.uniform(4, bandwidth=1e9))
_, stats = run(m, a, b, tile_size=tile, mode="sim")
for i, f in enumerate(flops):
    share = stats.devices[i].tasks_completed / stats.total_tasks
    print(f"  device {i} (throughput {f:6.0f}): {stats.devices[i].tasks_completed:3d} "
          f"tasks = {share:5.1%}  (ideal {f / sum(flops):5.1%})")

print()
print("== a starved fast device steals from a slow one ==")
small = rng.integers(-4, 5, size=(12, 12)).astype(float)
small_b = rng.integers(-4, 5, size=(12, 12)).astype(float)
devs = [
    DeviceSpec(0, flops_per_unit=10.0, host_bandwidth=1e9),    # slow, hoards its RS
    DeviceSpec(1, flops_per_unit=1000.0, host_bandwidth=1e9),  # fast, drains the queue
]
m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=1e9))
c, stats = run(m, small, small_b, tile_size=4, mode="sim")
print("tasks per device:", stats.tasks_by_device)
for ev in stats.steal_events:
    print(f"  steal: device {ev.thief} took task {ev.task_id} from device "
          f"{ev.victim}'s station at t={ev.time:.3f}")
print("result still exact:", np.array_equal(c, reference_gemm(small, small_b)))

print()
print("== same run with stealing disabled ==")
c, stats = run(m, small, small_b, tile_size=4, mode="sim", steal=False)
print("tasks per device:", stats.tasks_by_device, "steals:", len(stats.steal_events))
print("the slow device now grinds through everything it reserved")
