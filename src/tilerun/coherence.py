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


class CapacityError(RuntimeError):
    """A device cannot hold a task's working set (everything is pinned)."""


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
    """Per-device LRU residency sets and pin counts; their union is the
    L2 directory.

    Which devices cache is fixed at construction: every accelerator when
    ``enabled``, none otherwise.  Only those devices have an LRU set, so
    an uncached device fetches every tile from host.  Every hit refreshes
    the tile's recency; the victim is always the least recently used
    unpinned tile.  The counters are kept per device only; :meth:`stats`
    is their sum.
    """

    def __init__(self, machine: Machine, enabled: bool = True):
        self.machine = machine
        self._lock = threading.Lock()
        cached = [d for d in machine.devices if enabled and not d.is_host_worker]
        self._order: dict[int, OrderedDict] = {d.device_id: OrderedDict() for d in cached}
        # pin counts; a tile with no pin has no entry
        self._pins: dict[int, dict] = {d.device_id: {} for d in cached}
        self._capacity: dict[int, int | None] = {d.device_id: d.capacity_tiles for d in cached}
        self._host_workers = frozenset(d.device_id for d in machine.devices if d.is_host_worker)
        self._dev_stats = {d.device_id: CacheStats() for d in machine.devices}

    def _admit_locked(self, device: int, key: TileKey) -> None:
        """Make ``key`` resident on ``device``, evicting the least recently
        used unpinned tile if the device is full.  Raises
        :class:`CapacityError` (leaving the directory unchanged) when every
        resident tile is pinned."""
        order = self._order[device]
        if key in order:
            raise ValueError(f"{key} already resident on device {device}")
        cap = self._capacity[device]
        if cap is not None and len(order) >= cap:  # never above cap: one victim
            # absence from the pin counts means unpinned;
            # the scan stops at the victim
            victim = next(filterfalse(self._pins[device].__contains__, order), None)
            if victim is None:
                raise CapacityError(
                    f"device {device}: capacity {cap} exhausted and all resident "
                    f"tiles pinned; working set does not fit"
                )
            del order[victim]
            self._dev_stats[device].evictions += 1
        order[key] = None

    def _unpin_locked(self, device: int, keys) -> None:
        pins = self._pins[device]
        for key in keys:
            n = pins.get(key, 0)
            if n < 1:
                raise ValueError(f"unpin below zero for {key} on device {device}")
            if n == 1:
                del pins[key]
            else:
                pins[key] = n - 1

    def residents(self, device: int) -> list[TileKey]:
        """Keys resident on ``device``, least recently used first."""
        with self._lock:
            return list(self._order.get(device, ()))

    # -- the runtime-facing operations ----------------------------------
    #
    # Resolving an input tile is lookup + transfer accounting + admit +
    # pin.  A task resolves all of its contraction steps as one call under
    # one lock acquisition, which makes the whole task's input accounting
    # linearizable: the hit counters stay exact even with racing worker
    # threads (e.g. two devices missing on the same tile at the same
    # instant still produce exactly one host fetch).

    def acquire_input(self, requester: int, steps) -> list[list[AcquireResult]]:
        """Resolve a task's input tiles for ``requester`` under one lock
        hold.  ``steps`` is a sequence of steps, each a sequence of
        ``(key, nbytes)``; returns one list of :class:`AcquireResult` per
        step.

        Steps resolve in order, and so do the tiles of a step.  Each tile
        is pinned as soon as it is resolved, so a later admission in the
        same step cannot evict an earlier tile.  A step's pins are dropped
        when the next step begins; the last step's tiles stay pinned until
        :meth:`release_input`.  Residency, counters and pins therefore end
        as a one-step call per step would leave them, each step released
        before the next begins.  If a request raises, the pins its step
        took are dropped before the error propagates.
        """
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
            pins = self._pins[requester]
            l1_hit = AcquireResult(requester, 0)
            held = []  # keys the current step has pinned
            try:
                for step in steps:
                    self._unpin_locked(requester, held)  # the previous step's pins
                    held = []
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
                            self._admit_locked(requester, key)
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
                        pins[key] = pins.get(key, 0) + 1
                        held.append(key)
                        results.append(res)
                    out.append(results)
            except BaseException:
                self._unpin_locked(requester, held)
                raise
            return out

    def release_input(self, device: int, keys) -> None:
        """Unpin each of ``keys`` on ``device`` under one lock hold."""
        if device not in self._pins:
            return
        with self._lock:
            self._unpin_locked(device, keys)

    def admit_output(self, device: int, key: TileKey) -> None:
        """Reserve a pinned residency slot for an output tile being built."""
        if device not in self._pins:
            return
        with self._lock:
            self._admit_locked(device, key)  # raises unless key was absent, so unpinned
            self._pins[device][key] = 1

    def release_output(self, device: int, key: TileKey, nbytes: int) -> None:
        """Output tile written back to host: unpin, drop residency, count
        the writeback traffic.  Not an eviction (it is a completion).  An
        uncached accelerator writes back too; a host worker's output is
        already in host memory."""
        if device in self._host_workers:
            return
        with self._lock:
            if device in self._pins:
                self._unpin_locked(device, (key,))
                del self._order[device][key]
            ds = self._dev_stats[device]
            ds.writebacks += 1
            ds.bytes_writeback += nbytes

    def abort_output(self, device: int, key: TileKey) -> None:
        """Output tile of a failed task: unpin it and drop its residency.
        Nothing was written back, so no counter moves."""
        if device not in self._pins:
            return
        with self._lock:
            self._unpin_locked(device, (key,))
            del self._order[device][key]

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
                for key, count in self._pins[d].items():
                    assert count > 0, f"non-positive pin count for {key} on {d}"
                    assert key in order, f"pinned tile {key} not resident on {d}"
