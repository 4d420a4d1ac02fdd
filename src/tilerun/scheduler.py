"""Task planning and the two execution engines.

One task per output tile.  The task's contraction steps, in ascending
order, are accounting only: one cache-directory transaction resolves the
input tiles of all of them, read from a step table the plan builds once,
and the ``sim`` engine then prices each step's fetch and compute from
per-device tables that the session fills as prices are first met.  The
data never passes through the directory.  The fixed-order kernel
accumulates the contraction index in ascending order however its
operands are blocked, so the product's bits do not depend on the
schedule: the ``sim`` engine computes the whole product with one kernel
call before it claims any task, and the ``threaded`` engine makes one
call per task, which multiplies the A row panel by the B column panel
into the task's output tile.  Because every output tile has exactly one
owner and the accumulation order is fixed, the numerical result is
bit-identical across device counts, steal interleavings, and engine
choice.

Engines:

* ``sim`` -- deterministic discrete-event replay of the model only: its
  tasks run the directory and the pricing, never the kernel.  Each
  device has a compute engine and a transfer engine; within a task the
  fetch for the next contraction step overlaps the current compute.  The
  device whose compute engine frees earliest claims the next task
  (demand-driven work sharing), so faster devices naturally pull more
  work.
* ``threaded`` -- one real worker thread per device, sharing the global
  queue, the directory, and each other's reservation stations.  Wall
  clock replaces simulated time; all counters stay exact because the
  shared structures are linearizable.

Both engines claim tasks through ``_claim``: refill the device's
station, run its oldest reservation, and if the station is empty steal
from the most-loaded peer station (ties to the lowest device id).  A
device that finds nothing to claim retires.  The engines keep no
counters: per-device task counts come from ``Completion``, steal counts
from the steal events.
"""

from __future__ import annotations

import csv
import heapq
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .coherence import AcquireResult, CacheDirectory, CacheStats
from .devices import HOST, DeviceSpec, Machine, compute_cost, transfer_cost
from .msqueue import MichaelScottQueue
from .tiles import (
    TiledMatrix,
    TileKey,
    accumulate_product,
    decode_task,
    partition,
    reassemble,  # noqa: F401 -- see below
)

# ``reassemble`` stays importable from here, and ``multiply`` keeps its
# ``CacheDirectory.stats_per_device`` snapshot and ``CacheStats.__sub__``
# diff: the benchmark's tracer wraps all three by name, and
# tests/test_benchmark_hooks.py looks them up.  Their removal waits for
# ROADMAP #1.

SCHEMA_VERSION = 1


class Completion:
    """Exactly-once execution record: the device that ran each task.
    Marking a task twice is an error."""

    def __init__(self, n_tasks: int):
        self.ran_on: list[int | None] = [None] * n_tasks
        self._lock = threading.Lock()

    def mark(self, task_id: int, device: int) -> None:
        with self._lock:
            if self.ran_on[task_id] is not None:
                raise RuntimeError(f"task {task_id} executed twice")
            self.ran_on[task_id] = device

    def all_done(self) -> bool:
        return None not in self.ran_on


@dataclass
class Operand:
    """A tiled matrix as seen by the planner, optionally transposed.

    Transposition is a view mapping: tile (i, k) of the transposed
    operand is tile (k, i) of the stored one, and the cache key names the
    stored coordinates.  The same tiles therefore keep the same identity
    whether a pass reads the matrix straight or transposed, which is what
    lets the cache see reuse between the two.
    """

    tiled: TiledMatrix
    uid: str
    transposed: bool = False

    @property
    def grid_rows(self) -> int:
        return self.tiled.grid_cols if self.transposed else self.tiled.grid_rows

    @property
    def grid_cols(self) -> int:
        return self.tiled.grid_rows if self.transposed else self.tiled.grid_cols

    @property
    def element_shape(self) -> tuple[int, int]:
        r, c = self.tiled.shape
        return (c, r) if self.transposed else (r, c)

    def tile_view(self, i: int, j: int) -> np.ndarray:
        if self.transposed:
            return self.tiled.tile(j, i).T
        return self.tiled.tile(i, j)

    @property
    def matrix(self) -> np.ndarray:
        """The whole operand as one view of the stored matrix."""
        return self.tiled.base.T if self.transposed else self.tiled.base

    def row_panel(self, i: int) -> np.ndarray:
        """Tile row ``i`` as one view: the ``hstack`` of its tiles."""
        t = self.tiled.tile_size
        return self.matrix[i * t : (i + 1) * t]

    def col_panel(self, j: int) -> np.ndarray:
        """Tile column ``j`` as one view: the ``vstack`` of its tiles."""
        t = self.tiled.tile_size
        return self.matrix[:, j * t : (j + 1) * t]

    def key(self, i: int, j: int) -> TileKey:
        r, c = (j, i) if self.transposed else (i, j)
        return TileKey(self.uid, r, c)


@dataclass
class Plan:
    """The tasks of one product.

    ``a_rows[i]`` lists tile row ``i`` of A and ``b_cols[j]`` tile column
    ``j`` of B, in contraction order, as ``(key, elements, shape)``: the
    step table task ``(i, j)`` reads its inputs from.
    """

    a: Operand
    b: Operand
    c: Operand
    tile_size: int
    grid_rows: int
    grid_cols: int
    k_steps: int
    queue: MichaelScottQueue
    completion: Completion
    a_rows: list
    b_cols: list

    @property
    def total_tasks(self) -> int:
        return self.grid_rows * self.grid_cols


def plan(a: Operand, b: Operand, c_uid: str = "C") -> Plan:
    """Build one task per output tile and enqueue them all (row-major).

    The output is allocated as zeros of the operands' result dtype and
    partitioned with their tile size.  Its uid may be any string, an
    operand's included: an output tile takes its device's reserved slot
    and never enters a residency set, so its key meets no input's.
    """
    if a.tiled.tile_size != b.tiled.tile_size:
        raise ValueError(
            f"tile sizes differ: {a.tiled.tile_size} vs {b.tiled.tile_size}"
        )
    am, ak = a.element_shape
    bk, bn = b.element_shape
    if ak != bk:
        raise ValueError(f"inner dimensions differ: {a.element_shape} x {b.element_shape}")
    t = a.tiled.tile_size
    out = partition(np.zeros((am, bn), dtype=np.result_type(a.tiled.base, b.tiled.base)), t)
    c = Operand(out, c_uid)
    grid_rows, grid_cols = c.grid_rows, c.grid_cols
    k_steps = a.grid_cols
    assert k_steps == b.grid_rows  # forced by equal element dims and tile size
    n_tasks = grid_rows * grid_cols
    queue = MichaelScottQueue()
    for tid in range(n_tasks):
        queue.enqueue(tid)

    def entry(op: Operand, i: int, j: int):
        key = op.key(i, j)
        rows, cols = op.tiled.tile_shape(key.row, key.col)
        return key, rows * cols, (cols, rows) if op.transposed else (rows, cols)

    return Plan(
        a=a, b=b, c=c, tile_size=t,
        grid_rows=grid_rows, grid_cols=grid_cols, k_steps=k_steps,
        queue=queue, completion=Completion(n_tasks),
        a_rows=[[entry(a, i, k) for k in range(k_steps)] for i in range(grid_rows)],
        b_cols=[[entry(b, k, j) for k in range(k_steps)] for j in range(grid_cols)],
    )


class ReservationStation:
    """Fixed-width buffer of upcoming task ids for one device.

    The owner serves slots FIFO; a thief removes from the opposite end.
    One lock serializes owner, thieves, and refills, so a task is
    obtained by exactly one of them.
    """

    def __init__(self, width: int):
        self.width = width
        self._slots: list[int] = []
        self._lock = threading.Lock()

    def refill(self, queue: MichaelScottQueue) -> list[int]:
        """Fill empty slots from the global queue; returns the ids taken."""
        pulled = []
        with self._lock:
            while len(self._slots) < self.width:
                tid = queue.dequeue()
                if tid is None:
                    break
                self._slots.append(tid)
                pulled.append(tid)
        return pulled

    def pop_for_run(self) -> int | None:
        with self._lock:
            return self._slots.pop(0) if self._slots else None

    def try_steal(self) -> int | None:
        with self._lock:
            return self._slots.pop() if self._slots else None

    def reserved_count(self) -> int:
        with self._lock:
            return len(self._slots)


def steal_task(thief: int, stations: dict[int, ReservationStation]) -> tuple[int | None, int | None]:
    """Steal one reserved task: victim is the most-loaded station, ties to
    the lowest device id.  Returns (task_id, victim) or (None, None)."""
    counts = [(s.reserved_count(), did) for did, s in stations.items() if did != thief]
    for count, victim in sorted(counts, key=lambda cv: (-cv[0], cv[1])):
        if count == 0:
            break
        tid = stations[victim].try_steal()
        if tid is not None:
            return tid, victim
    return None, None


@dataclass
class StealEvent:
    thief: int
    victim: int
    task_id: int
    time: float | None = None


@dataclass
class DeviceStats:
    device_id: int
    kind: str
    tasks_completed: int = 0
    steals_performed: int = 0
    steals_suffered: int = 0


@dataclass
class RunStats:
    mode: str
    tile_size: int
    grid_rows: int
    grid_cols: int
    k_steps: int
    total_tasks: int
    steal_enabled: bool
    coherence_enabled: bool
    seed: int | None
    devices: dict[int, DeviceStats]
    cache: CacheStats
    cache_per_device: dict[int, CacheStats]
    makespan: float | None
    wall_elapsed: float
    steal_events: list[StealEvent] = field(default_factory=list)

    @property
    def tasks_by_device(self) -> dict[int, int]:
        return {d: s.tasks_completed for d, s in self.devices.items()}

    def to_report_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "tile_size": self.tile_size,
            "grid": {
                "rows": self.grid_rows,
                "cols": self.grid_cols,
                "k_steps": self.k_steps,
            },
            "total_tasks": self.total_tasks,
            "steal": self.steal_enabled,
            "coherence": self.coherence_enabled,
            "seed": self.seed,
            "makespan": self.makespan,
            "wall_elapsed": self.wall_elapsed,
            "steals": len(self.steal_events),
            "devices": [
                {
                    "device_id": s.device_id,
                    "kind": s.kind,
                    "tasks_completed": s.tasks_completed,
                    "steals_performed": s.steals_performed,
                    "steals_suffered": s.steals_suffered,
                }
                for s in self.devices.values()
            ],
            "cache": {
                **self.cache.as_dict(),
                "per_device": {
                    str(d): s.as_dict() for d, s in self.cache_per_device.items()
                },
            },
        }


def write_report_json(stats: RunStats, path) -> None:
    with open(path, "w") as f:
        json.dump(stats.to_report_dict(), f, indent=2)
        f.write("\n")


_CSV_FIELDS = [
    "device_id", "kind", "tasks_completed", "steals_performed", "steals_suffered",
    "l1_hits", "l2_hits", "host_fetches", "bytes_host", "bytes_peer",
    "evictions", "writebacks", "bytes_writeback",
]


def write_report_csv(stats: RunStats, path) -> None:
    """One row per device plus a summary row."""
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=_CSV_FIELDS)
        w.writeheader()
        for did, ds in sorted(stats.devices.items()):
            cs = stats.cache_per_device.get(did, CacheStats())
            w.writerow({
                "device_id": did, "kind": ds.kind,
                "tasks_completed": ds.tasks_completed,
                "steals_performed": ds.steals_performed,
                "steals_suffered": ds.steals_suffered,
                **{k: v for k, v in cs.as_dict().items() if k in _CSV_FIELDS},
            })
        w.writerow({
            "device_id": "total", "kind": "",
            "tasks_completed": sum(d.tasks_completed for d in stats.devices.values()),
            "steals_performed": sum(d.steals_performed for d in stats.devices.values()),
            "steals_suffered": sum(d.steals_suffered for d in stats.devices.values()),
            **{k: v for k, v in stats.cache.as_dict().items() if k in _CSV_FIELDS},
        })


# -- task execution ------------------------------------------------------


def _begin_task(machine: Machine, plan_: Plan, directory: CacheDirectory,
                did: int, i: int, j: int) -> list[AcquireResult]:
    """The directory side of task ``(i, j)`` on device ``did`` up to its
    data.

    The output tile takes the device's reserved output slot until
    ``_end_task`` writes it back; the device's set holds input tiles
    only.  The contraction steps are accounting only, read from the
    plan's step table: one directory transaction resolves the requests
    A, B of each step in turn, so B is admitted while its step's A is
    the most recent input, and LRU with room for at least two inputs
    keeps that A beside it.  The task holds no input once the
    transaction returns.  If anything raises, the task aborts the output
    tile, so it leaves no output tile behind.

    Returns the directory's results, A and B per step in step order.
    """
    eb = machine.element_bytes
    c_key = plan_.c.key(i, j)
    directory.admit_output(did, c_key)
    try:
        return directory.acquire_input(did, [(key, n * eb)
                                             for step in zip(plan_.a_rows[i], plan_.b_cols[j])
                                             for key, n, _ in step])
    except BaseException:
        directory.abort_output(did, c_key)
        raise


def _end_task(machine: Machine, plan_: Plan, directory: CacheDirectory,
              did: int, task_id: int, i: int, j: int) -> int:
    """Write task ``(i, j)``'s output tile back to host, release it and
    record the task as run on ``did``; returns the bytes written back."""
    rows, cols = plan_.c.tiled.tile_shape(i, j)
    wb_bytes = rows * cols * machine.element_bytes
    directory.release_output(did, plan_.c.key(i, j), wb_bytes)
    plan_.completion.mark(task_id, did)
    return wb_bytes


def _execute_task(machine: Machine, plan_: Plan, directory: CacheDirectory,
                  dev: DeviceSpec, task_id: int) -> None:
    """Run one task to completion on ``dev``, data included: the threaded
    engine's task.  (The ``sim`` engine computes the whole product with
    one kernel call up front, and its tasks are ``_begin_task`` and
    ``_end_task`` only.)

    Between the two, while the output tile is held, one kernel call
    multiplies the A row panel by the B column panel into the output
    tile; the kernel's ascending order makes that bit-identical to one
    call per step, and to the ``sim`` engine's one call.  A host worker's
    call is sub-blocked by its ``subtile_factor``.  If the kernel raises,
    the output tile is aborted as in ``_begin_task``.
    """
    did = dev.device_id
    i, j = decode_task(task_id, plan_.grid_cols, plan_.grid_rows)
    _begin_task(machine, plan_, directory, did, i, j)
    try:
        accumulate_product(plan_.a.row_panel(i), plan_.b.col_panel(j), plan_.c.tile_view(i, j),
                           sub_blocks=dev.subtile_factor if dev.is_host_worker else 1)
    except BaseException:
        directory.abort_output(did, plan_.c.key(i, j))
        raise
    _end_task(machine, plan_, directory, did, task_id, i, j)


# -- engines --------------------------------------------------------------


def _claim(did: int, stations: dict[int, ReservationStation], queue: MichaelScottQueue,
           steal_enabled: bool) -> tuple[int | None, int | None]:
    """The next task for device ``did`` as ``(task_id, victim)``; victim is
    None for a task of its own station.

    A station comes up empty after a refill only once the queue has
    drained, and ``plan`` enqueues every task before a run, so
    ``(None, None)`` means nothing is left to claim, now or later.
    """
    st = stations[did]
    st.refill(queue)
    tid = st.pop_for_run()
    if tid is None and steal_enabled:
        return steal_task(did, stations)
    return tid, None


class _PriceTable(dict):
    """Prices memoised by their arguments: a missing key is priced once,
    by ``price(*key)``, and kept."""

    def __init__(self, price):
        super().__init__()
        self.price = price

    def __missing__(self, key):
        cost = self[key] = self.price(*key)
        return cost


def _price_tables(machine: Machine) -> dict[int, tuple[_PriceTable, _PriceTable]]:
    """Per device: its transfer prices by ``(source, nbytes)`` (an
    :class:`AcquireResult` is that key) and its compute prices by
    ``(a_shape, b_shape)``.  ``transfer_cost`` and ``compute_cost`` are
    looked up when a price is first missed, and a table only stores what
    they return, so every price is the float they give."""
    return {
        d.device_id: (
            _PriceTable(lambda src, nbytes, did=d.device_id:
                        transfer_cost(machine, src, did, nbytes)),
            _PriceTable(lambda a_shape, b_shape, dev=d: compute_cost(dev, a_shape, b_shape)),
        )
        for d in machine.devices
    }


def _run_sim(machine, plan_, directory, clocks, prices, events, steal_enabled):
    """Compute the product with one kernel call, then replay the model.

    The data step runs before the first claim, so a kernel fault leaves
    the directory, the clocks and the completion record untouched.  Each
    task's directory results are priced from its device's tables in
    ``prices`` (see :func:`_price_tables`) as the device's clocks fold
    them.  Both engine times in ``clocks[device]`` only move forward,
    because every cost is >= 0."""
    accumulate_product(plan_.a.matrix, plan_.b.matrix, plan_.c.tiled.base)
    stations = {d.device_id: ReservationStation(d.slots) for d in machine.devices}
    heap = [(clocks[d.device_id][0], d.device_id) for d in machine.devices]
    heapq.heapify(heap)
    while heap:
        t, did = heapq.heappop(heap)
        tid, victim = _claim(did, stations, plan_.queue, steal_enabled)
        if tid is None:
            continue  # the device retires
        if victim is not None:
            events.append(StealEvent(did, victim, tid, time=t))
        i, j = decode_task(tid, plan_.grid_cols, plan_.grid_rows)
        got = iter(_begin_task(machine, plan_, directory, did, i, j))
        wb = _end_task(machine, plan_, directory, did, tid, i, j)
        fetch, compute = prices[did]
        # no transfer of this task predates its claim: the claim time t is
        # co, and every task ends with tr = max(tr, co) + writeback >= co
        co, tr = clocks[did]
        # zip(got, got) pairs each step's A and B results
        for ra, rb, (_, _, a_shape), (_, _, b_shape) in zip(got, got, plan_.a_rows[i],
                                                             plan_.b_cols[j]):
            tr += fetch[ra] + fetch[rb]
            co = max(co, tr) + compute[a_shape, b_shape]  # fetch k+1 overlaps compute k
        # the writeback waits for the last compute; a host link costs the
        # same either way, so it is priced as a host fetch of its bytes
        tr = max(tr, co) + fetch[HOST, wb]
        clocks[did] = [co, tr]
        heapq.heappush(heap, (co, did))


def _run_threaded(machine, plan_, directory, events, steal_enabled):
    stations = {d.device_id: ReservationStation(d.slots) for d in machine.devices}
    shared_lock = threading.Lock()
    abort = threading.Event()
    errors: list[BaseException] = []

    def worker(dev: DeviceSpec):
        did = dev.device_id
        while not abort.is_set():
            tid, victim = _claim(did, stations, plan_.queue, steal_enabled)
            if tid is None:
                return  # the device retires
            if victim is not None:
                with shared_lock:
                    events.append(StealEvent(did, victim, tid))
            try:
                _execute_task(machine, plan_, directory, dev, tid)
            except BaseException as exc:  # surface worker failures to the caller
                with shared_lock:
                    errors.append(exc)
                abort.set()
                return

    threads = [
        threading.Thread(target=worker, args=(d,), name=f"device-{d.device_id}")
        for d in machine.devices
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]


# -- the runtime ----------------------------------------------------------


def _device_stats(machine: Machine, completion: Completion,
                  events: list[StealEvent]) -> dict[int, DeviceStats]:
    """Per-device counts of a finished run, from ``Completion.ran_on`` and
    the steal events."""
    ran_on = completion.ran_on
    stats = {d.device_id: DeviceStats(d.device_id, d.kind, ran_on.count(d.device_id))
             for d in machine.devices}
    for ev in events:
        stats[ev.thief].steals_performed += 1
        stats[ev.victim].steals_suffered += 1
    return stats


class Runtime:
    """A session: one machine, one directory, any number of products.

    Device clocks and cache residency persist across ``multiply`` calls,
    so back-to-back products (e.g. the passes of a training step) see
    each other's cached tiles.  Per-call statistics are deltas against
    the session counters.

    A session prices and ranks peers from the machine it was built with.
    The directory fixes each device's capacity and peer ranking at
    construction, and the sim engine's price tables keep each transfer
    and compute price from the first time it is asked for, so the
    machine must not change during a session.  A table holds one price
    per distinct ``(source, bytes)`` or ``(a_shape, b_shape)`` its device
    has met, which a session of same-shaped products keeps at a fixed
    size.
    """

    def __init__(self, machine: Machine, tile_size: int, mode: str = "sim",
                 steal: bool = True, coherence: bool = True, seed: int | None = None):
        if mode not in ("sim", "threaded"):
            raise ValueError(f"unknown mode {mode!r}")
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        self.machine = machine
        self.tile_size = tile_size
        self.mode = mode
        self.steal = steal
        self.coherence = coherence
        self.seed = seed
        self.directory = CacheDirectory(machine, enabled=coherence)
        # per device: [compute, transfer] engine time of the sim engine,
        # and the price tables it folds into them
        self.clocks = {d.device_id: [0.0, 0.0] for d in machine.devices}
        self.prices = _price_tables(machine)
        self._uid_n = 0

    def fresh_uid(self, prefix: str = "m") -> str:
        self._uid_n += 1
        return f"{prefix}#{self._uid_n}"

    def sim_now(self) -> float:
        return max(max(c) for c in self.clocks.values())

    def operand(self, m, uid: str | None = None, transposed: bool = False) -> Operand:
        return Operand(partition(m, self.tile_size), uid or self.fresh_uid(), transposed)

    def multiply(self, a, b, transpose_a: bool = False, transpose_b: bool = False,
                 a_uid: str | None = None, b_uid: str | None = None,
                 c_uid: str | None = None):
        """Full scheduled product of two dense arrays, each optionally
        transposed; returns ``(C, RunStats)``.

        ``C`` is the output array the plan zeroed for this call alone, not
        a copy: the caller owns it, and no later product reads it.  The
        stats are deltas of the session's counters."""
        plan_ = plan(self.operand(a, a_uid, transpose_a), self.operand(b, b_uid, transpose_b),
                     c_uid=c_uid or self.fresh_uid("c"))
        events: list[StealEvent] = []
        cache_before = self.directory.stats_per_device()
        sim_before = self.sim_now()
        t0 = time.perf_counter()
        if self.mode == "sim":
            _run_sim(self.machine, plan_, self.directory, self.clocks, self.prices, events,
                     self.steal)
        else:
            _run_threaded(self.machine, plan_, self.directory, events, self.steal)
        wall = time.perf_counter() - t0
        if not plan_.completion.all_done():
            raise RuntimeError(
                f"run incomplete: {plan_.completion.ran_on.count(None)} of "
                f"{plan_.total_tasks} tasks not run"
            )
        cache_after = self.directory.stats_per_device()
        cache_per_device = {d: cache_after[d] - cache_before[d] for d in cache_after}
        stats = RunStats(
            mode=self.mode,
            tile_size=self.tile_size,
            grid_rows=plan_.grid_rows,
            grid_cols=plan_.grid_cols,
            k_steps=plan_.k_steps,
            total_tasks=plan_.total_tasks,
            steal_enabled=self.steal,
            coherence_enabled=self.coherence,
            seed=self.seed,
            devices=_device_stats(self.machine, plan_.completion, events),
            cache=sum(cache_per_device.values(), CacheStats()),
            cache_per_device=cache_per_device,
            makespan=(self.sim_now() - sim_before) if self.mode == "sim" else None,
            wall_elapsed=wall,
            steal_events=events,
        )
        return plan_.c.tiled.base, stats


def run(machine: Machine, a, b, tile_size: int, mode: str = "sim",
        steal: bool = True, coherence: bool = True, seed: int | None = None):
    """One-shot product of two dense matrices through the full runtime."""
    rt = Runtime(machine, tile_size, mode=mode, steal=steal, coherence=coherence, seed=seed)
    return rt.multiply(a, b, a_uid="A", b_uid="B", c_uid="C")
