"""Two-level tile cache: per-device residency with LRU eviction, peer (L2)
hits, host fallback, and transfer statistics.

Input tiles are immutable, so there is nothing to invalidate; "coherence"
reduces to residency.  Each cached device keeps one LRU set of the input
tiles it holds (its L1), and the L2 "directory" is simply the union of those
sets: a tile's owners are the devices whose set holds it.  A single lock
makes every public operation atomic with respect to every other, which
is all the runtime's correctness argument needs.

A task's directory transaction is one :meth:`CacheDirectory.acquire_input`
call under one lock hold, the same in both engines, which have computed
the tile before it: it resolves the task's input requests and counts
the output tile's writeback.

Hit taxonomy for a requesting accelerator:

* L1 hit  -- tile already resident locally; free.
* L2 hit  -- tile resident on a peer; copied from the closest peer by hop
  count into the requester's cache (peer bytes).
* miss    -- tile resident nowhere; fetched from host memory (host bytes).

"Closest" is fixed when the directory is built: each cached device keeps
its peers' sets ranked by ``(hops, device id)``, itself left out, so a
miss's source is the first peer in its ranking whose set holds the tile,
and ``HOST`` when none does.  The fewest hops win, and a tie goes to the
lowest id.

Nothing is evicted for being dead, only for lack of room.  A session
whose matrices die (a training step's activations, gradients and
pre-update weights) retires their uids, which drops their tiles from
every set, so its sets hold only what may still be read.

A bounded device keeps one of its ``capacity_tiles`` slots for the output
tile it is building, so its set holds input tiles only, up to
``capacity_tiles - 1`` of them, and an admission into a full set evicts
its least recently used tile.  A task's requests come A, B per
contraction step, and a bounded capacity is at least 3, so when a step's
B is admitted into a full set its A is the most recent input and some
older one is there to go: LRU alone keeps a step's A beside its B.

Which devices cache is decided when the directory is built.  Host
workers have no set: their tiles are host tiles, so every request they
make is a free host fetch.  With ``enabled=False`` no device has a set,
and every accelerator request is a host fetch, which is the baseline for
measuring how much traffic the protocol removes.

A request's result is a shared immutable :class:`AcquireResult`: the
directory builds one per ``(source, bytes moved)`` the first time it
returns that pair and returns the same object ever after, so resolving a
request allocates nothing.  A session meets few distinct pairs (one per
source and tile size), so the tables stay small.
"""

from __future__ import annotations

import operator
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import NamedTuple

from .devices import HOST, Machine
from .tiles import TileKey


class AcquireResult(NamedTuple):
    """Outcome of resolving one input tile for one device.

    ``source`` gives the hit level: the requester itself is an L1 hit,
    another device an L2 hit, and ``HOST`` a miss.
    """

    source: object  # device id the bytes came from, or HOST
    nbytes_moved: int


class Memo(dict):
    """A dict that makes a missing value once, by ``make(key)``, and keeps
    it: the directory's shared results and the sim engine's price tables."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass(slots=True)
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
        return CacheStats(*_stats_values(self))

    def as_dict(self) -> dict:
        return dict(zip(_STATS_FIELDS, _stats_values(self)))

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(*map(operator.add, _stats_values(self), _stats_values(other)))

    def __iadd__(self, other: "CacheStats") -> "CacheStats":
        # field by field: a product's close folds into the session's
        # counters in place, and a loop over the fields costs as much as
        # building a new object
        self.l1_hits += other.l1_hits
        self.l2_hits += other.l2_hits
        self.host_fetches += other.host_fetches
        self.bytes_host += other.bytes_host
        self.bytes_peer += other.bytes_peer
        self.evictions += other.evictions
        self.writebacks += other.writebacks
        self.bytes_writeback += other.bytes_writeback
        return self

    # no caller in the package; kept for the benchmark's tracer, which
    # wraps it by name (see scheduler.py)
    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(*map(operator.sub, _stats_values(self), _stats_values(other)))

    @property
    def input_requests(self) -> int:
        return self.l1_hits + self.l2_hits + self.host_fetches


# the counters in field order, read by one C call instead of dataclasses.fields
_STATS_FIELDS = tuple(f.name for f in fields(CacheStats))
_stats_values = operator.attrgetter(*_STATS_FIELDS)


class _DeviceCache(NamedTuple):
    """A cached device's side of the directory, read by one lookup per
    transaction: its LRU set of input tiles, the number of input tiles
    the set may hold (``capacity_tiles - 1``, or ``sys.maxsize`` when
    unbounded), its peers as ``(peer's set, peer's results)`` ranked
    fewest hops first, then lowest id, and its shared L1-hit result."""

    order: OrderedDict
    room: int
    peers: list
    l1_hit: AcquireResult


class CacheDirectory:
    """Per-device LRU sets of input tiles, whose union is the L2
    directory.

    Which devices cache is fixed at construction: every accelerator when
    ``enabled``, none otherwise.  Only those devices have an LRU set, so
    an uncached device fetches every tile from host.  Every hit refreshes
    the tile's recency.  A bounded set's room is ``capacity_tiles - 1``,
    the last slot being the output tile's; the victim is the set's least
    recently used tile, and a bounded capacity is at least 3, so LRU
    keeps a step's A beside its B.

    Each cached device ranks its peers once, from the machine's hop
    counts: the other cached devices' sets, fewest hops first, then the
    lowest id.  A local miss is served by the first peer in that ranking
    whose set holds the tile, or by host.  The counters are kept per
    device only, and a transaction adds to them once; :meth:`stats` is
    their sum.  While a product is open (:meth:`open_product`) a
    transaction adds to that product's counters instead, and closing the
    product adds them into the session's counters in place (a field-by-
    field ``+=``), so the product's own counters never move again.  The
    session's readers include an open product's counts, so every reader
    sees what counting each transaction into both would give, and a
    product's counts need no snapshot of the session's.
    """

    def __init__(self, machine: Machine, enabled: bool = True):
        self._lock = threading.Lock()
        cached = {d.device_id: d for d in machine.devices if enabled and not d.is_host_worker}
        # _results[source][nbytes]: the one shared result for that pair,
        # made when first returned and kept for the directory's life
        self._results: dict[object, Memo] = {
            src: Memo(lambda nbytes, src=src: AcquireResult(src, nbytes))
            for src in (HOST, *(d.device_id for d in machine.devices))}
        hops = machine.proximity.hops
        sets = {d: OrderedDict() for d in cached}
        self._caches: dict[int, _DeviceCache] = {
            d: _DeviceCache(
                sets[d],
                sys.maxsize if dev.capacity_tiles is None else dev.capacity_tiles - 1,
                [(sets[p], self._results[p])
                 for p in sorted(cached, key=lambda p: (hops[d, p], p)) if p != d],
                self._results[d][0])
            for d, dev in cached.items()}
        self._host_workers = frozenset(d.device_id for d in machine.devices if d.is_host_worker)
        self._dev_stats = {d.device_id: CacheStats() for d in machine.devices}
        # the per-device counters a transaction adds to: the open
        # product's, or the session's when no product is open
        self._counts = self._dev_stats

    def residents(self, device: int) -> list[TileKey]:
        """Keys resident on ``device``, least recently used first."""
        with self._lock:
            cache = self._caches.get(device)
            return [] if cache is None else list(cache.order)

    # -- the runtime-facing operations ----------------------------------
    #
    # Resolving an input tile is lookup + transfer accounting + admit.  A
    # task resolves all of its input tiles, and counts its output tile's
    # writeback, as one call under one lock acquisition, which makes the
    # whole task's accounting linearizable: the hit counters stay exact
    # even with racing worker threads (e.g. two devices missing on the
    # same tile at the same instant still produce exactly one host fetch).

    def acquire_input(self, requester: int, requests, writeback: int) -> list[AcquireResult]:
        """A task's whole directory transaction, in either engine, under
        one lock hold.  ``requests`` is an ordered sequence of ``(key,
        nbytes)`` pairs (a task sends A, B for each contraction step in
        turn); returns one :class:`AcquireResult` per request, in order.
        A result is shared, not built for the call: every request with
        the same source and bytes moved gets the same immutable object.

        Requests resolve in order, each exactly as a one-request call
        would, and nothing is held once the call returns.  Then the call
        counts one writeback of ``writeback`` bytes, the task's output
        tile, unless ``requester`` is a host worker, whose output is
        already in host memory.  A request that raises counts no
        writeback; the requests resolved before it stay counted and
        admitted.
        """
        with self._lock:
            ds = self._counts[requester]
            cache = self._caches.get(requester)
            from_host = self._results[HOST]
            if cache is None:
                # host workers' tiles are already local: a fetch in name only
                free = requester in self._host_workers
                out = [from_host[0 if free else nbytes] for _key, nbytes in requests]
                ds.host_fetches += len(out)
                ds.bytes_host += sum(res.nbytes_moved for res in out)
            else:
                order, room, peers, l1_hit = cache
                out = []
                append, move_to_end, popitem = out.append, order.move_to_end, order.popitem
                l1 = l2 = bytes_peer = bytes_host = evictions = 0
                fill = len(order)  # len(order), kept as each miss admits its tile
                try:
                    for key, nbytes in requests:
                        if key in order:
                            l1 += 1
                            move_to_end(key)
                            append(l1_hit)
                            continue
                        for held, sent in peers:
                            if key in held:
                                l2 += 1
                                bytes_peer += nbytes
                                append(sent[nbytes])
                                break
                        else:
                            bytes_host += nbytes
                            append(from_host[nbytes])
                        if fill < room:
                            fill += 1
                        else:  # never above room: one victim
                            popitem(False)
                            evictions += 1
                        order[key] = None
                finally:  # the requests resolved so far, even if one raised
                    ds.l1_hits += l1
                    ds.l2_hits += l2
                    ds.host_fetches += len(out) - l1 - l2
                    ds.bytes_peer += bytes_peer
                    ds.bytes_host += bytes_host
                    ds.evictions += evictions
            if requester not in self._host_workers:
                ds.bytes_writeback += writeback
                ds.writebacks += 1
            return out

    def retire(self, uids) -> None:
        """Drop every input tile of the matrices ``uids``, which no later
        request reads, from every device's set.  Not an eviction, so no
        counter moves, and a uid with no resident tile (``None``
        included) is ignored."""
        dead = set(uids)
        with self._lock:
            for cache in self._caches.values():
                order = cache.order
                for key in [key for key in order if key.matrix in dead]:
                    del order[key]

    def release_input(self, device: int, keys) -> None:
        """Does nothing: :meth:`acquire_input` holds no tile once it
        returns.  Kept only as a name the benchmark's tracer wraps."""

    def admit_output(self, device: int, key: TileKey) -> None:
        """Does nothing: a device keeps no output slot beyond the room its
        set leaves.  Kept only as a name the benchmark's tracer wraps."""

    def release_output(self, device: int, key: TileKey, nbytes: int) -> None:
        """Does nothing: :meth:`acquire_input` counts a task's writeback.
        Kept only as a name the benchmark's tracer wraps."""

    # -- observability ---------------------------------------------------

    def open_product(self) -> dict[int, CacheStats]:
        """Count a product: until :meth:`close_product`, every transaction
        adds to the returned per-device counters, which start at zero.
        Opening a product closes the one before it."""
        with self._lock:
            self._close_locked()
            self._counts = {d: CacheStats() for d in self._dev_stats}
            return self._counts

    def close_product(self) -> None:
        """Add the open product's counts into the session's counters in
        place; later transactions leave the product's counters as they
        are."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._counts is not self._dev_stats:
            for d, s in self._dev_stats.items():
                s += self._counts[d]
            self._counts = self._dev_stats

    def _session_locked(self) -> dict[int, CacheStats]:
        """The session's per-device counts, an open product's included."""
        if self._counts is self._dev_stats:
            return self._dev_stats
        return {d: s + self._counts[d] for d, s in self._dev_stats.items()}

    def stats(self) -> CacheStats:
        """Session totals: the sum of the per-device counters."""
        with self._lock:
            return sum(self._session_locked().values(), CacheStats())

    def stats_per_device(self) -> dict[int, CacheStats]:
        with self._lock:
            return {d: s.copy() for d, s in self._session_locked().items()}

    def used_tiles(self, device: int) -> int:
        with self._lock:
            cache = self._caches.get(device)
            return 0 if cache is None else len(cache.order)

    def check_invariants(self) -> None:
        with self._lock:
            for d, cache in self._caches.items():
                assert len(cache.order) <= cache.room, f"device {d} over capacity"
