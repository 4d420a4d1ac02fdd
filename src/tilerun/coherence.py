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
from itertools import filterfalse, islice

from .devices import HOST, Machine, closest_owner
from .tiles import TileKey


class CapacityError(RuntimeError):
    """A device cannot hold a task's working set (everything is pinned)."""


@dataclass(frozen=True)
class AcquireResult:
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
        """Make ``key`` resident on ``device``, evicting least recently used
        unpinned tiles until it fits.  Raises :class:`CapacityError`
        (leaving the directory unchanged) when every resident tile is
        pinned."""
        order = self._order[device]
        if key in order:
            raise ValueError(f"{key} already resident on device {device}")
        cap = self._capacity[device]
        if cap is not None and len(order) >= cap:
            need = len(order) + 1 - cap
            # absence from the pin counts means unpinned;
            # the scan stops at the last victim
            victims = list(islice(filterfalse(self._pins[device].__contains__, order), need))
            if len(victims) < need:
                raise CapacityError(
                    f"device {device}: capacity {cap} exhausted and all resident "
                    f"tiles pinned; working set does not fit"
                )
            for v in victims:
                del order[v]
            self._dev_stats[device].evictions += len(victims)
        order[key] = None

    def _unpin_locked(self, device: int, key: TileKey) -> None:
        pins = self._pins[device]
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
    # pin.  A contraction step resolves its tiles as one batch under one
    # lock acquisition, which makes the whole step linearizable: the hit
    # counters stay exact even with racing worker threads (e.g. two
    # devices missing on the same tile at the same instant still produce
    # exactly one host fetch).

    def acquire_input(self, requester: int, requests) -> list[AcquireResult]:
        """Resolve each ``(key, nbytes)`` of the sequence ``requests``, in
        order, for ``requester`` and pin it there until
        :meth:`release_input`.

        Each tile is pinned as soon as it is resolved, so a later
        admission in the batch cannot evict an earlier tile.  If a request
        raises, the pins the batch took are dropped before the error
        propagates; residency and counters are left as acquiring the
        tiles one at a time, then releasing the ones acquired, would
        leave them.
        """
        with self._lock:
            ds = self._dev_stats[requester]
            order = self._order.get(requester)
            results = []
            if order is None:
                # host workers' tiles are already local: a fetch in name only
                free = requester in self._host_workers
                for _key, nbytes in requests:
                    moved = 0 if free else nbytes
                    ds.host_fetches += 1
                    ds.bytes_host += moved
                    results.append(AcquireResult(HOST, moved))
                return results
            pins = self._pins[requester]
            try:
                for key, nbytes in requests:
                    if key in order:
                        ds.l1_hits += 1
                        order.move_to_end(key)
                        res = AcquireResult(requester, 0)
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
                    results.append(res)
            except BaseException:
                for key, _nbytes in requests[:len(results)]:
                    self._unpin_locked(requester, key)
                raise
            return results

    def release_input(self, device: int, keys) -> None:
        """Unpin each of ``keys`` on ``device`` under one lock hold."""
        if device not in self._pins:
            return
        with self._lock:
            for key in keys:
                self._unpin_locked(device, key)

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
                self._unpin_locked(device, key)
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
            self._unpin_locked(device, key)
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
