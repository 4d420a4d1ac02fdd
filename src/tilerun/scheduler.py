"""Task planning and the two execution engines.

One task per output tile.  The task's contraction steps, in ascending
order, are accounting only: one cache-directory transaction resolves the
input tiles of all of them, read as ``(key, nbytes)`` requests from a
step table that a session builds once per product shape and binds to
each call's uids, and counts the output tile's writeback; the ``sim``
engine then prices each step's fetch and compute from per-device tables
that the session fills as prices are first met.  Compute is priced per
task: the tile extents the template keeps give each task's list of step
prices.  The data, plain arrays that the tile size slices, never passes
through the directory.  The fixed-order kernel accumulates the contraction index in
ascending order however its operands are blocked, so the product's bits
do not depend on the schedule: the ``sim`` engine computes the whole
product before it claims any task, in one kernel call or, from
``_SPLIT_FLOPS`` flops, one per block of output rows and CPU; the
``threaded`` engine makes one call per task, which multiplies the A row
panel by the B column panel into the task's output tile.  Because every
output tile has exactly one owner and the accumulation order is fixed,
the numerical result is bit-identical across device counts, steal
interleavings, and engine choice.

Engines:

* ``sim`` -- deterministic discrete-event replay of the model only: its
  tasks run the directory and the pricing, never the kernel.  Each
  device has three clocks: compute, fetch (host->device and
  peer->device) and writeback (device->host, a full-duplex host link).
  Within a task the fetch for the next contraction step overlaps the
  current compute; across tasks a device fetches one task ahead, so a
  task from its own station moves its data while the previous task
  computes.  Prefetched tiles take no extra capacity.  The device whose
  compute engine frees earliest claims the next task (demand-driven work
  sharing), so faster devices naturally pull more work.
* ``threaded`` -- one real worker thread per device, sharing the global
  queue, the directory, and each other's reservation stations.  Wall
  clock replaces simulated time; all counters stay exact because the
  shared structures are linearizable.

Both engines claim tasks by one rule: refill the device's station from
the global queue up to its width, run its oldest reservation, and if the
station is empty steal the newest reservation of the most-loaded peer
station (ties to the lowest device id, an order :func:`_victims` writes
once).  A device that finds nothing to claim retires.  The ``sim``
engine replays the rule on one thread over plain data (``_sim_claim``):
each station is a ``deque`` and the global queue an iterator over the
task ids, so a replay takes no lock; it ends a product at its last
claim, since every claim after it would find nothing.  The ``threaded``
engine runs the rule concurrently (``_claim``) over a filled
:class:`MichaelScottQueue` and locked reservation stations.
Both hand out the tasks in the same order (:func:`_task_order`), and
both run each claimed task through ``_run_task``, the one task function:
the ``sim`` engine passes no kernel, the ``threaded`` engine its panel
kernel, which runs before the task's one directory call.  The engines
keep no counters: a product's ``RunStats`` derives them from
``Completion`` and the steal events, and the directory counts its cache
traffic as the product runs.
"""

from __future__ import annotations

import csv
import heapq
import json
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain, count, islice

import numpy as np

from .coherence import CacheDirectory, CacheStats, Memo
from .devices import HOST, DeviceSpec, Machine, compute_cost, transfer_cost
from .msqueue import MichaelScottQueue
from .tiles import (
    TileKey,
    _block_ranges,
    accumulate_product,
    as_matrix,
    as_tile_size,
)

SCHEMA_VERSION = 2


def partition(matrix, tile_size: int) -> None:
    """Does nothing: no product builds a tile object, and :func:`plan`
    reads the tile extents from the shapes.  Kept only as a name the
    benchmark's tracer wraps."""


def reassemble(tm) -> None:
    """Does nothing: every engine writes its product into one plain array.
    Kept only as a name the benchmark's tracer wraps."""


class Completion:
    """Exactly-once execution record: the device that ran each task.
    Marking a task twice is an error; ``_run_task`` checks the id."""

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
    """A matrix as a product reads it, optionally transposed.

    ``matrix`` is the matrix as read: for a transposed operand, the
    transpose view of the stored matrix.  Its tile (i, k) is then tile
    (k, i) of the stored matrix, transposed, and the cache key names the
    stored coordinates.  The same tiles therefore keep the same identity
    whether a pass reads the matrix straight or transposed, which is what
    lets the cache see reuse between the two.
    """

    matrix: np.ndarray
    uid: str
    transposed: bool = False

    @property
    def element_shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _extents(n: int, t: int) -> list[int]:
    """The extents of the tiles that split ``n`` elements by ``t``: ``t``
    each, and what is left in a ragged last tile."""
    return [min(t, n - s) for s in range(0, n, t)]


@dataclass(frozen=True)
class PlanTemplate:
    """What the plan of a product derives from its shapes alone.

    ``row_extents``, ``col_extents`` and ``step_extents`` (a tuple, so it
    keys the sim engine's task prices as it is) are the tile extents of
    the output's rows and columns and of the contraction steps, as read:
    step ``k`` of task ``(i, j)`` multiplies an ``(row_extents[i],
    step_extents[k])`` tile of A by a ``(step_extents[k],
    col_extents[j])`` tile of B.  ``a_rows[i]`` lists
    tile row ``i`` of A and ``b_cols[j]`` tile column ``j`` of B, in
    contraction order, as ``(row, col, nbytes)``: the tile's stored
    coordinates (swapped, once, for a transposed operand) and its bytes.
    Its bytes are its elements times the operand's itemsize; input and
    output tiles alike follow this rule.  ``tasks[task_id]`` is ``(i, j,
    writeback bytes)``.
    """

    tile_size: int
    out_shape: tuple[int, int]
    out_dtype: np.dtype
    row_extents: list
    col_extents: list
    step_extents: tuple
    a_rows: list
    b_cols: list
    tasks: list


def _shape_key(a: Operand, b: Operand, tile_size: int) -> tuple:
    """Everything a plan template depends on: the tile size, and per
    operand its shape as read, whether it is transposed, and its dtype
    (the output's dtype is their result type)."""
    return (tile_size,
            (a.element_shape, a.transposed, a.matrix.dtype),
            (b.element_shape, b.transposed, b.matrix.dtype))


def _template(key: tuple) -> PlanTemplate:
    """The template of a :func:`_shape_key`, built from the key alone."""
    t, (a_shape, a_transposed, a_dtype), (b_shape, b_transposed, b_dtype) = key
    rows, cols = _extents(a_shape[0], t), _extents(b_shape[1], t)
    steps = tuple(_extents(a_shape[1], t))

    def tile(i, j, height, width, itemsize, transposed):
        r, c = (j, i) if transposed else (i, j)
        return r, c, height * width * itemsize

    out_dtype = np.result_type(a_dtype, b_dtype)
    return PlanTemplate(
        tile_size=t, out_shape=(a_shape[0], b_shape[1]), out_dtype=out_dtype,
        row_extents=rows, col_extents=cols, step_extents=steps,
        a_rows=[[tile(i, k, m, s, a_dtype.itemsize, a_transposed) for k, s in enumerate(steps)]
                for i, m in enumerate(rows)],
        b_cols=[[tile(k, j, s, n, b_dtype.itemsize, b_transposed) for k, s in enumerate(steps)]
                for j, n in enumerate(cols)],
        tasks=[(i, j, m * n * out_dtype.itemsize)
               for i, m in enumerate(rows) for j, n in enumerate(cols)],
    )


class _Grid:
    """A product's tile and grid sizes, read from its ``template``."""

    @property
    def tile_size(self) -> int:
        return self.template.tile_size

    @property
    def grid_rows(self) -> int:
        return len(self.template.row_extents)

    @property
    def grid_cols(self) -> int:
        return len(self.template.col_extents)

    @property
    def k_steps(self) -> int:
        return len(self.template.step_extents)

    @property
    def total_tasks(self) -> int:
        return len(self.template.tasks)


@dataclass
class Plan(_Grid):
    """The tasks of one product: a template bound to its operands' uids.

    ``a_rows`` and ``b_cols`` are the template's step tables with each
    tile's coordinates turned into its :class:`TileKey`, as
    ``(key, nbytes)``: the requests task ``(i, j)`` sends the directory,
    A then B for each step.  ``template`` is the shape's
    :class:`PlanTemplate`, whose tile extents price the steps and whose
    task table gives each task's output tile ``(i, j)`` in ``c``.
    """

    a: Operand
    b: Operand
    c: np.ndarray
    template: PlanTemplate
    completion: Completion
    a_rows: list
    b_cols: list


def plan(a: Operand, b: Operand, tile_size: int, templates: Memo | None = None) -> Plan:
    """Build one task per output tile of ``tile_size``; the engines hand
    them out in :func:`_task_order`.

    The template comes from ``templates``, a session's memo of templates
    by shape key (a :class:`Runtime` passes its own), or is built for this
    call alone; either way it is bound the same way, so the two give equal
    plans.  The output is allocated as zeros of the operands' result
    dtype.
    """
    t = as_tile_size(tile_size)
    if a.element_shape[1] != b.element_shape[0]:
        raise ValueError(f"inner dimensions differ: {a.element_shape} x {b.element_shape}")
    key = _shape_key(a, b, t)
    tmpl = _template(key) if templates is None else templates[key]
    a_uid, b_uid = a.uid, b.uid
    # tuple.__new__ makes the same TileKey as TileKey(uid, r, c) without
    # the NamedTuple constructor's keyword handling, at about 2/5 the cost
    new = tuple.__new__
    return Plan(
        a=a, b=b,
        c=np.zeros(tmpl.out_shape, tmpl.out_dtype),
        template=tmpl, completion=Completion(len(tmpl.tasks)),
        a_rows=[[(new(TileKey, (a_uid, r, c)), nbytes) for r, c, nbytes in row]
                for row in tmpl.a_rows],
        b_cols=[[(new(TileKey, (b_uid, r, c)), nbytes) for r, c, nbytes in col]
                for col in tmpl.b_cols],
    )


def _task_order(plan_: Plan) -> range:
    """The order in which both engines' global queue hands out a product's
    tasks: by task id, which the template's task table makes row-major."""
    return range(plan_.total_tasks)


class ReservationStation:
    """Fixed-width buffer of upcoming task ids for one device, as the
    threaded engine keeps it.

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


def _victims(thief: int, loads: dict[int, int]) -> list[int]:
    """The stations ``thief`` may steal from, given each station's number
    of reserved tasks: every other non-empty one, most loaded first, ties
    to the lowest device id.  The one statement of the victim rule."""
    return sorted((d for d, n in loads.items() if n and d != thief),
                  key=lambda d: (-loads[d], d))


def steal_task(thief: int, stations: dict[int, ReservationStation]) -> tuple[int | None, int | None]:
    """Steal one reserved task, walking :func:`_victims` under the station
    locks.  Returns (task_id, victim) or (None, None)."""
    loads = {did: s.reserved_count() for did, s in stations.items()}
    for victim in _victims(thief, loads):
        tid = stations[victim].try_steal()
        if tid is not None:
            return tid, victim
    return None, None


@dataclass(slots=True)
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
class RunStats(_Grid):
    """One product's facts, from which every count is derived; ``machine``,
    ``template`` and ``ran_on`` (the :class:`Completion` list) are shared."""

    mode: str
    steal_enabled: bool
    coherence_enabled: bool
    machine: Machine = field(compare=False, repr=False)
    template: PlanTemplate = field(repr=False)
    ran_on: list[int] = field(repr=False)
    cache_per_device: dict[int, CacheStats]
    makespan: float | None
    wall_elapsed: float
    steal_events: list[StealEvent]

    @property
    def tasks_by_device(self) -> dict[int, int]:
        return {d: s.tasks_completed for d, s in self.devices.items()}

    @cached_property
    def devices(self) -> dict[int, DeviceStats]:
        """Each device's task count and the steals it made and suffered."""
        stats = {d.device_id: DeviceStats(d.device_id, d.kind, self.ran_on.count(d.device_id))
                 for d in self.machine.devices}
        for ev in self.steal_events:
            stats[ev.thief].steals_performed += 1
            stats[ev.victim].steals_suffered += 1
        return stats

    @cached_property
    def cache(self) -> CacheStats:
        return sum(self.cache_per_device.values(), CacheStats())

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
            "makespan": self.makespan,
            "wall_elapsed": self.wall_elapsed,
            "steals": len(self.steal_events),
            "devices": [asdict(s) for s in self.devices.values()],
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


_CSV_FIELDS = [f.name for f in fields(DeviceStats) + fields(CacheStats)]


def write_report_csv(stats: RunStats, path) -> None:
    """One row per device plus a summary row, which sums the counters that
    follow ``device_id`` and ``kind``."""
    devices = stats.devices
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=_CSV_FIELDS)
        w.writeheader()
        w.writerows({**asdict(ds), **stats.cache_per_device[did].as_dict()}
                    for did, ds in sorted(devices.items()))
        w.writerow({"device_id": "total", "kind": "",
                    **{f.name: sum(getattr(ds, f.name) for ds in devices.values())
                       for f in fields(DeviceStats)[2:]},
                    **stats.cache.as_dict()})


# -- task execution ------------------------------------------------------


def _run_task(plan_: Plan, directory: CacheDirectory, did: int, task_id: int,
              kernel=None) -> tuple[int, int, list, int]:
    """Run task ``task_id`` on device ``did``: the one task of both engines.

    The task's output tile and its writeback bytes are read from the
    template's task table; an id outside it is a ``ValueError``, raised
    before anything else.  Given a ``kernel`` (the threaded engine's),
    ``kernel(i, j)`` then computes output tile ``(i, j)``; the sim engine
    has computed the whole product before its first claim and passes none.

    The contraction steps are accounting only, read from the plan's step
    table: one directory transaction (:meth:`CacheDirectory.acquire_input`)
    resolves the requests A, B of each step in turn, then counts the
    output tile's writeback.  B is admitted while its step's A is the most
    recent input, so LRU with room for at least two inputs keeps that A
    beside it.  So every task, in either engine, makes one locked
    directory call, after its kernel: a kernel that raises leaves the
    directory untouched.  A task that ends is recorded as run on ``did``.

    Returns ``(i, j, results, writeback bytes)``, where ``results`` are
    the directory's results, A and B per step in step order.
    """
    tasks = plan_.template.tasks
    if not 0 <= task_id < len(tasks):
        raise ValueError(f"task id {task_id} outside 0..{len(tasks) - 1}")
    i, j, wb_bytes = tasks[task_id]
    if kernel is not None:
        kernel(i, j)
    requests = list(chain.from_iterable(zip(plan_.a_rows[i], plan_.b_cols[j])))
    got = directory.acquire_input(did, requests, wb_bytes)
    plan_.completion.mark(task_id, did)
    return i, j, got, wb_bytes


# -- engines --------------------------------------------------------------


def _claim(did: int, stations: dict[int, ReservationStation], queue: MichaelScottQueue,
           steal_enabled: bool) -> tuple[int | None, int | None]:
    """The threaded engine's claim: the next task for device ``did`` as
    ``(task_id, victim)``; victim is None for a task of its own station.

    A station comes up empty after a refill only once the queue has
    drained, and the engine enqueues every task before a run, so
    ``(None, None)`` means nothing is left to claim, now or later.
    """
    st = stations[did]
    st.refill(queue)
    tid = st.pop_for_run()
    if tid is None and steal_enabled:
        return steal_task(did, stations)
    return tid, None


def _sim_claim(did: int, width: int, stations: dict[int, deque], tasks,
               steal_enabled: bool) -> tuple[int | None, int | None]:
    """:func:`_claim`'s rule on one thread, over plain data.

    ``stations`` maps each device to its FIFO of reserved task ids, and
    ``tasks`` is the iterator the global queue has become.  Device
    ``did`` refills its FIFO from ``tasks`` up to ``width`` and pops the
    front; if the FIFO is still empty and stealing is on, it pops the
    back of the first of :func:`_victims`.  ``(None, None)`` means
    nothing is left to claim, now or later.
    """
    st = stations[did]
    room = width - len(st)
    if room:
        st.extend(islice(tasks, room))
    if st:
        return st.popleft(), None
    if steal_enabled:
        victims = _victims(did, {d: len(s) for d, s in stations.items()})
        if victims:
            return stations[victims[0]].pop(), victims[0]
    return None, None


def _price_tables(machine: Machine) -> dict[int, tuple[Memo, Memo, Memo]]:
    """Per device: its transfer prices by ``(source, nbytes)`` (an
    :class:`AcquireResult` is that key), its compute prices by
    ``(a_shape, b_shape)``, and its task prices by ``(m, n, steps)``: the
    list of compute prices of the steps of an ``m x n`` output tile whose
    contraction steps have the extents ``steps``, read through the
    compute table.  ``transfer_cost`` and ``compute_cost`` are looked up
    when a price is first missed, and a table only stores what they
    return, so every price is the float they give."""
    tables = {}
    for d in machine.devices:
        compute = Memo(lambda shapes, dev=d: compute_cost(dev, *shapes))
        tables[d.device_id] = (
            Memo(lambda key, did=d.device_id: transfer_cost(machine, key[0], did, key[1])),
            compute,
            Memo(lambda key, compute=compute: [compute[(key[0], s), (s, key[1])] for s in key[2]]),
        )
    return tables


# A sim product of at least this many flops (2*m*k*n) splits its kernel
# into row blocks.  Split time over one call's, median of 21 interleaved
# n x n float64 products on 2 idle vCPUs, two runs, bits equal: n 64:
# 1.43/1.53, 96: 0.62/0.63, 128: 0.64/0.75, 160: 0.72/0.67, 192: 0.59/0.58,
# 256: 0.56/0.55.  The margin above break-even allows for a busy 2nd CPU.
_SPLIT_FLOPS = 2 * 128**3


def _run_sim(plan_, directory, clocks, prices, widths, events, steal_enabled) -> float:
    """Compute the product, then replay the model.

    The data step is one kernel call, or from ``_SPLIT_FLOPS`` one per
    block of ``c``'s rows and CPU, the first on this thread; every block
    ends before the first claim, and only then is the first failed
    block's error raised, so a kernel fault leaves the directory, the
    clocks and the completion record untouched.  Each
    task's directory results are priced from its device's tables in
    ``prices`` (see :func:`_price_tables`) as the device's clocks fold
    them.  Compute is priced per task, from the device's task prices
    for the task's tile extents in the template.  Claims follow
    :func:`_sim_claim`, over per-product FIFOs of each device's
    ``widths`` entry (its ``slots``) and an iterator over
    :func:`_task_order`.  The product ends at its last claim: once every
    task is claimed, every later claim would find nothing, so no device
    claims again.  Returns the latest writeback clock the product set,
    or 0.0 if it ran no task.

    ``clocks[device]`` is ``[compute, fetch, writeback]``.  A device
    claims when its compute clock is the earliest, so the claim time is
    its compute clock.  Host->device and peer->device fetches run on the
    fetch clock; the device->host writeback has its own clock, as on a
    full-duplex host link, and starts once both it and the last compute
    are done.  A task from the device's own station starts its first
    fetch at the device's previous claim in this product, or when the
    fetch clock frees if that is later: one task of lookahead, so its
    fetches overlap the previous task's compute.  A stolen task, or a
    device's first task in the product, fetches no earlier than its own
    claim.  The directory still resolves every task at its claim, in
    claim order, and a prefetched tile takes no extra capacity; within a
    task, step k+1's fetch may run any number of steps ahead of compute
    k on the same terms.  Every clock only moves forward, because every
    cost is >= 0.  So after each task its device's compute clock is at
    least its fetch clock (a task has at least one step, whose compute
    waits for its data) and its writeback clock at least its compute
    clock: the writeback clock is the device's latest."""
    a, b, c = plan_.a.matrix, plan_.b.matrix, plan_.c
    if 2 * a.size * c.shape[1] < _SPLIT_FLOPS:
        accumulate_product(a, b, c)
    else:  # one block of c's rows per CPU; sim-kernel threads take all but the first
        from concurrent.futures import ThreadPoolExecutor  # imported here: it loads logging
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        first, *rest = (slice(*r) for r in _block_ranges(len(a), min(cpus or 1, len(a))))
        with ThreadPoolExecutor(max(len(rest), 1), "sim-kernel") as pool:
            helpers = [pool.submit(accumulate_product, a[r], b, c[r]) for r in rest]
            accumulate_product(a[first], b, c[first])
        for h in helpers:  # every block has ended: raise the first failed block's error
            h.result()
    stations = {did: deque() for did in widths}
    tasks = iter(_task_order(plan_))
    heap = [(clocks[did][0], did) for did in widths]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    claimed = {}  # each device's previous claim time in this product
    tmpl = plan_.template
    row_extents, col_extents, steps = tmpl.row_extents, tmpl.col_extents, tmpl.step_extents
    unclaimed = plan_.total_tasks
    while unclaimed and heap:  # an empty heap leaves the run incomplete, which multiply reports
        t, did = heappop(heap)
        tid, victim = _sim_claim(did, widths[did], stations, tasks, steal_enabled)
        if tid is None:
            continue  # the device retires
        unclaimed -= 1
        if victim is not None:
            events.append(StealEvent(did, victim, tid, time=t))
            lead = t
        else:
            lead = claimed.get(did, t)
        claimed[did] = t
        i, j, got, wb = _run_task(plan_, directory, did, tid)
        got = iter(got)
        fetch, _, step_prices = prices[did]
        co, tr, wr = clocks[did]
        if lead > tr:
            tr = lead
        # zip(got, got) pairs each step's A and B results
        for ra, rb, c in zip(got, got, step_prices[row_extents[i], col_extents[j], steps]):
            tr += fetch[ra] + fetch[rb]
            if tr > co:  # compute k waits for its data; fetch k+1 overlaps it
                co = tr
            co += c
        # a host link costs the same either way, so the writeback is priced
        # as a host fetch of its bytes
        clocks[did] = [co, tr, (co if co > wr else wr) + fetch[HOST, wb]]
        heappush(heap, (co, did))
    return max([clocks[did][2] for did in claimed], default=0.0)


def _run_threaded(machine, plan_, directory, events, steal_enabled):
    queue = MichaelScottQueue()
    for tid in _task_order(plan_):
        queue.enqueue(tid)
    stations = {d.device_id: ReservationStation(d.slots) for d in machine.devices}
    shared_lock = threading.Lock()
    abort = threading.Event()
    errors: list[BaseException] = []

    a, b, c = plan_.a.matrix, plan_.b.matrix, plan_.c
    t = plan_.tile_size

    def worker(dev: DeviceSpec):
        did = dev.device_id
        sub_blocks = dev.subtile_factor if dev.is_host_worker else 1

        def kernel(i, j):
            # A's tile row i times B's tile column j into C's tile (i, j): the
            # kernel's ascending order makes one call bit-identical to one
            # call per step, and to the sim engine's one call
            rows, cols = slice(i * t, (i + 1) * t), slice(j * t, (j + 1) * t)
            accumulate_product(a[rows], b[:, cols], c[rows, cols], sub_blocks=sub_blocks)

        while not abort.is_set():
            tid, victim = _claim(did, stations, queue, steal_enabled)
            if tid is None:
                return  # the device retires
            if victim is not None:
                with shared_lock:
                    events.append(StealEvent(did, victim, tid))
            try:
                _run_task(plan_, directory, did, tid, kernel)
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


class Runtime:
    """A session: one machine, one directory, any number of products.

    Device clocks and cache residency persist across ``multiply`` calls,
    so back-to-back products (e.g. the passes of a training step) see
    each other's cached tiles.  A call's :class:`RunStats` keeps that
    product's facts; its cache counts are the per-device counters the
    directory kept for that product alone while it ran
    (:meth:`CacheDirectory.open_product`) and then added into the
    session's counters in place, which no later request moves.  Either
    engine runs every task of a product through ``_run_task``, and every
    task makes one locked directory call, ``acquire_input(device,
    requests, writeback)``, its whole transaction.

    A sim product reads the session's clocks once, before it runs: after
    each task its device's writeback clock is that device's latest, so
    the latest clock after the product is the later of that and the
    latest writeback clock the product set (:func:`_run_sim`'s result).
    The session keeps each device's station width (``widths``), so a
    replay sets up its stations from it.

    A session prices and ranks peers from the machine it was built with.
    The directory fixes each device's capacity and peer ranking at
    construction, and the sim engine's price tables keep each transfer
    and compute price from the first time it is asked for, so the
    machine must not change during a session.  A table holds one price
    per distinct ``(source, bytes)`` or ``(a_shape, b_shape)`` its device
    has met, which a session of same-shaped products keeps at a fixed
    size.

    A session plans each product shape once: ``templates`` keeps one
    :class:`PlanTemplate` per distinct shape key (the tile size, and per
    operand its shape as read, transposition and dtype), and each
    ``multiply`` binds the template to its operands' uids.  Like the price
    tables, it stops growing once the session has met each shape.

    The directory evicts only for want of room, so an unbounded set keeps
    every tile it admits until the session retires the tile's uid
    (:meth:`retire`): a session that keeps naming new matrices retires
    those no later product reads.
    """

    def __init__(self, machine: Machine, tile_size: int, mode: str = "sim",
                 steal: bool = True, coherence: bool = True):
        if mode not in ("sim", "threaded"):
            raise ValueError(f"unknown mode {mode!r}")
        self.tile_size = as_tile_size(tile_size)
        self.machine = machine
        self.mode = mode
        self.steal = steal
        self.coherence = coherence
        self.directory = CacheDirectory(machine, enabled=coherence)
        # per device: [compute, fetch, writeback] engine time of the sim
        # engine, the price tables it folds into them, and its station width
        self.clocks = {d.device_id: [0.0, 0.0, 0.0] for d in machine.devices}
        self.prices = _price_tables(machine)
        self.widths = {d.device_id: d.slots for d in machine.devices}
        self.templates = Memo(_template)

    _uids = count(1)  # shared by every session

    def fresh_uid(self) -> str:
        """A uid no other call returns in this process, whatever the session."""
        return f"m#{next(Runtime._uids)}"

    def retire(self, uids) -> None:
        """Drop the cached tiles of the matrices ``uids``, which no later
        product reads (see :meth:`CacheDirectory.retire`)."""
        self.directory.retire(uids)

    def sim_now(self) -> float:
        """The latest compute, fetch or writeback clock of any device."""
        return max(map(max, self.clocks.values()))

    def operand(self, m, uid: str | None = None, transposed: bool = False) -> Operand:
        """``m`` as a product reads it: ``m.T`` when ``transposed``."""
        m = np.asarray(m)
        return Operand(as_matrix(m.T if transposed else m, m.dtype), uid or self.fresh_uid(),
                       transposed)

    def multiply(self, a, b, transpose_a: bool = False, transpose_b: bool = False,
                 a_uid: str | None = None, b_uid: str | None = None):
        """Full scheduled product of two dense arrays, each optionally
        transposed; returns ``(C, RunStats)``.

        ``C`` is the output array the plan zeroed for this call alone, not
        a copy: the caller owns it, and no later product reads it."""
        plan_ = plan(self.operand(a, a_uid, transpose_a), self.operand(b, b_uid, transpose_b),
                     self.tile_size, self.templates)
        events: list[StealEvent] = []
        cache = self.directory.open_product()
        t0 = time.perf_counter()
        try:
            if self.mode == "sim":
                # every device's latest clock is its writeback clock, and a
                # device the product left alone is no later than before
                before = self.sim_now()
                makespan = max(_run_sim(plan_, self.directory, self.clocks, self.prices,
                                        self.widths, events, self.steal), before) - before
            else:
                _run_threaded(self.machine, plan_, self.directory, events, self.steal)
                makespan = None
        finally:
            self.directory.close_product()
        wall = time.perf_counter() - t0
        if not plan_.completion.all_done():
            raise RuntimeError(
                f"run incomplete: {plan_.completion.ran_on.count(None)} of "
                f"{plan_.total_tasks} tasks not run"
            )
        stats = RunStats(
            mode=self.mode,
            steal_enabled=self.steal,
            coherence_enabled=self.coherence,
            machine=self.machine,
            template=plan_.template,
            ran_on=plan_.completion.ran_on,
            cache_per_device=cache,
            makespan=makespan,
            wall_elapsed=wall,
            steal_events=events,
        )
        return plan_.c, stats


def run(machine: Machine, a, b, tile_size: int, mode: str = "sim",
        steal: bool = True, coherence: bool = True):
    """One-shot product of two dense matrices through the full runtime."""
    rt = Runtime(machine, tile_size, mode=mode, steal=steal, coherence=coherence)
    return rt.multiply(a, b, a_uid="A", b_uid="B")
