"""Two-level tile cache: per-device residency with LRU eviction, peer (L2)
hits, host fallback, and transfer statistics.

Input tiles are immutable, so there is nothing to invalidate; "coherence"
reduces to residency.  Each cached device keeps one LRU set of the tiles
it holds (its L1), and the L2 "directory" is simply the union of those
sets: a tile's owners are the devices whose set holds it.  A single lock
makes every public operation atomic with respect to every other, which
is all the runtime's correctness argument needs.

Hit taxonomy for a requesting accelerator:

* L1 hit  -- tile already resident locally; free.
* L2 hit  -- tile resident on a peer; copied from the closest peer by hop
  count into the requester's cache (peer bytes).
* miss    -- tile resident nowhere; fetched from host memory (host bytes).

Which devices cache is decided when the directory is built.  Host
workers have no set: their tiles are host tiles, so every request they
make is a free host fetch.  With ``enabled=False`` no device has a set,
and every accelerator request is a host fetch, which is the baseline for
measuring how much traffic the protocol removes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from itertools import filterfalse
from typing import NamedTuple

from .devices import HOST, Machine, closest_owner
from .tiles import TileKey


class AcquireResult(NamedTuple):
    """Outcome of resolving one input tile for one device.

    ``source`` gives the hit level: the requester itself is an L1 hit,
    another device an L2 hit, and ``HOST`` a miss.
    """

    source: object  # device id the bytes came from, or HOST
    nbytes_moved: int


@dataclass
class CacheStats:
    l1_hits: int = 0
    l2_hits: int = 0
    host_fetches: int = 0
    bytes_host: int = 0
    bytes_peer: int = 0
    evictions: int = 0
    writebacks: int = 0
    bytes_writeback: int = 0

    def copy(self) -> "CacheStats":
        return CacheStats(**self.as_dict())

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{f.name: getattr(self, f.name) - getattr(other, f.name) for f in fields(self)}
        )

    @property
    def input_requests(self) -> int:
        return self.l1_hits + self.l2_hits + self.host_fetches


class CacheDirectory:
    """Per-device LRU residency sets, whose union is the L2 directory, and
    the output tile each device is building.

    Which devices cache is fixed at construction: every accelerator when
    ``enabled``, none otherwise.  Only those devices have an LRU set, so
    an uncached device fetches every tile from host.  Every hit refreshes
    the tile's recency.  The victim is the least recently used tile that
    is neither the device's current output tile nor a tile the admitting
    step has already resolved.  A step has at most two tiles and a
    bounded capacity is at least 3, so every admission finds a victim.
    The counters are kept per device only; :meth:`stats` is their sum.
    """

    def __init__(self, machine: Machine, enabled: bool = True):
        self.machine = machine
        self._lock = threading.Lock()
        cached = [d for d in machine.devices if enabled and not d.is_host_worker]
        self._order: dict[int, OrderedDict] = {d.device_id: OrderedDict() for d in cached}
        # the output tile each cached device is building, or None
        self._output: dict[int, TileKey | None] = {d.device_id: None for d in cached}
        self._capacity: dict[int, int | None] = {d.device_id: d.capacity_tiles for d in cached}
        self._host_workers = frozenset(d.device_id for d in machine.devices if d.is_host_worker)
        self._dev_stats = {d.device_id: CacheStats() for d in machine.devices}

    def _admit_locked(self, device: int, key: TileKey, keep=()) -> None:
        """Make ``key`` resident on ``device``, evicting the least recently
        used tile not in ``keep`` if the device is full."""
        order = self._order[device]
        if key in order:
            raise ValueError(f"{key} already resident on device {device}")
        cap = self._capacity[device]
        if cap is not None and len(order) >= cap:  # never above cap: one victim
            # the scan stops at the victim, at most len(keep) tiles in
            victim = next(filterfalse(keep.__contains__, order))
            del order[victim]
            self._dev_stats[device].evictions += 1
        order[key] = None

    def _drop_output_locked(self, device: int, key: TileKey) -> None:
        if self._output[device] != key:
            raise ValueError(f"{key} is not the output tile of device {device}")
        self._output[device] = None
        del self._order[device][key]

    def residents(self, device: int) -> list[TileKey]:
        """Keys resident on ``device``, least recently used first."""
        with self._lock:
            return list(self._order.get(device, ()))

    # -- the runtime-facing operations ----------------------------------
    #
    # Resolving an input tile is lookup + transfer accounting + admit.  A
    # task resolves all of its contraction steps as one call under one
    # lock acquisition, which makes the whole task's input accounting
    # linearizable: the hit counters stay exact even with racing worker
    # threads (e.g. two devices missing on the same tile at the same
    # instant still produce exactly one host fetch).

    def acquire_input(self, requester: int, steps) -> list[list[AcquireResult]]:
        """Resolve a task's input tiles for ``requester`` under one lock
        hold.  ``steps`` is a sequence of steps, each one or two
        ``(key, nbytes)`` pairs (a contraction step's A and B tiles);
        returns one list of :class:`AcquireResult` per step.

        Steps resolve in order, and so do the tiles of a step.  While a
        step resolves, its admissions evict neither the tiles it has
        already resolved nor the device's output tile, so B's admission
        cannot evict A.  Nothing is held once the call returns: residency
        and counters end as a one-step call per step would leave them.
        A step of any other length raises :class:`ValueError` before any
        counter or residency moves.
        """
        if any(len(step) not in (1, 2) for step in steps):
            raise ValueError("each step must be one or two tiles")
        with self._lock:
            ds = self._dev_stats[requester]
            order = self._order.get(requester)
            out = []
            if order is None:
                # host workers' tiles are already local: a fetch in name only
                free = requester in self._host_workers
                for step in steps:
                    results = []
                    for _key, nbytes in step:
                        moved = 0 if free else nbytes
                        ds.host_fetches += 1
                        ds.bytes_host += moved
                        results.append(AcquireResult(HOST, moved))
                    out.append(results)
                return out
            c_key = self._output[requester]
            l1_hit = AcquireResult(requester, 0)
            for step in steps:
                keep = (c_key,)
                results = []
                for key, nbytes in step:
                    if key in order:
                        ds.l1_hits += 1
                        order.move_to_end(key)
                        res = l1_hit
                    else:
                        # owners are collected before the admit, so the
                        # requester is never its own source
                        owners = [d for d, o in self._order.items() if key in o]
                        self._admit_locked(requester, key, keep)
                        if owners:
                            ds.l2_hits += 1
                            ds.bytes_peer += nbytes
                            res = AcquireResult(
                                closest_owner(requester, owners, self.machine.proximity),
                                nbytes)
                        else:
                            ds.host_fetches += 1
                            ds.bytes_host += nbytes
                            res = AcquireResult(HOST, nbytes)
                    keep = (c_key, key)
                    results.append(res)
                out.append(results)
            return out

    def release_input(self, device: int, keys) -> None:
        """Does nothing: :meth:`acquire_input` holds no tile once it
        returns.  Kept only as a name the benchmark's tracer wraps."""

    def admit_output(self, device: int, key: TileKey) -> None:
        """Make ``key`` resident as the output tile ``device`` is building;
        no admission evicts it until :meth:`release_output` or
        :meth:`abort_output`.  Raises :class:`ValueError` while the device
        still holds an unfinished output tile."""
        if device not in self._order:
            return
        with self._lock:
            if self._output[device] is not None:
                raise ValueError(
                    f"device {device} still holds unfinished output tile {self._output[device]}")
            self._admit_locked(device, key)
            self._output[device] = key

    def release_output(self, device: int, key: TileKey, nbytes: int) -> None:
        """Output tile written back to host: drop its residency and count
        the writeback traffic.  Not an eviction (it is a completion).  An
        uncached accelerator writes back too; a host worker's output is
        already in host memory.  Raises :class:`ValueError` if ``key`` is
        not the device's current output tile."""
        if device in self._host_workers:
            return
        with self._lock:
            if device in self._order:
                self._drop_output_locked(device, key)
            ds = self._dev_stats[device]
            ds.writebacks += 1
            ds.bytes_writeback += nbytes

    def abort_output(self, device: int, key: TileKey) -> None:
        """Output tile of a failed task: drop its residency.  Nothing was
        written back, so no counter moves.  Raises :class:`ValueError` if
        ``key`` is not the device's current output tile."""
        if device not in self._order:
            return
        with self._lock:
            self._drop_output_locked(device, key)

    # -- observability ---------------------------------------------------

    def stats(self) -> CacheStats:
        """Session totals: the sum of the per-device counters."""
        with self._lock:
            return sum(self._dev_stats.values(), CacheStats())

    def stats_per_device(self) -> dict[int, CacheStats]:
        with self._lock:
            return {d: s.copy() for d, s in self._dev_stats.items()}

    def used_tiles(self, device: int) -> int:
        with self._lock:
            return len(self._order.get(device, ()))

    def check_invariants(self) -> None:
        with self._lock:
            for d, order in self._order.items():
                cap = self._capacity[d]
                assert cap is None or len(order) <= cap, f"device {d} over capacity"
                c_key = self._output[d]
                assert c_key is None or c_key in order, f"output tile {c_key} not resident on {d}"
