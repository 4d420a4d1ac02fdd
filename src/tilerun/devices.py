"""Simulated heterogeneous devices: capability specs, interconnect
proximity, and the linear cost model.

Costs are deliberately simple: compute time is flops / throughput and
transfer time is bytes / bandwidth plus an optional fixed per-transfer
latency (default 0).  That is enough structure to make communication /
computation overlap and proximity-based peer fetches observable without
pretending to model real silicon.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from typing import Sequence

import numpy as np

KIND_ACCELERATOR = "accelerator"
KIND_HOST_WORKER = "host-worker"

#: transfer endpoint naming host memory (as opposed to a device id)
HOST = "host"


class ConfigError(ValueError):
    """Invalid device / machine configuration."""


def _real(name: str, v) -> float:
    """``v`` as a Python float, so no numpy scalar reaches the prices or a
    saved config; a bool or a non-number is a :class:`ConfigError`."""
    if not isinstance(v, Real) or isinstance(v, bool):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    return float(v)


@dataclass(frozen=True)
class DeviceSpec:
    """One simulated device.

    ``capacity_tiles`` is the L1 tile-cache size; ``None`` means
    unbounded.  One slot is reserved for the output tile the device is
    building, and the rest hold input tiles under plain LRU.  A bounded
    capacity must be at least 3, so the inputs have room for two: LRU
    then keeps a step's A beside its B, since A is the most recent input
    when B is admitted.
    ``slots`` is the reservation-station width; 4 mirrors the point
    where extra per-device concurrency stops paying off.
    ``subtile_factor`` only matters for host workers under the threaded
    engine, whose per-task kernel call further factorizes the output
    tile into that many sub-blocks per dimension; the sim engine makes
    no per-task call.  The bits are the same either way.
    """

    device_id: int
    kind: str = KIND_ACCELERATOR
    capacity_tiles: int | None = None
    flops_per_unit: float = 1.0
    host_bandwidth: float = 1.0
    slots: int = 4
    subtile_factor: int = 1

    def __post_init__(self):
        if self.kind not in (KIND_ACCELERATOR, KIND_HOST_WORKER):
            raise ConfigError(f"unknown device kind {self.kind!r}")
        for name in ("device_id", "slots", "capacity_tiles", "subtile_factor"):
            v = getattr(self, name)
            if name == "capacity_tiles" and v is None:
                continue
            if not isinstance(v, Integral) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        for name in ("flops_per_unit", "host_bandwidth"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.device_id < 0:
            raise ConfigError(f"device_id must be >= 0, got {self.device_id}")
        # written as not (0 < x < inf) so that NaN fails too
        if not 0 < self.flops_per_unit < math.inf:
            raise ConfigError("flops_per_unit must be finite and > 0")
        if not 0 < self.host_bandwidth < math.inf:
            raise ConfigError("host_bandwidth must be finite and > 0")
        if self.slots < 1:
            raise ConfigError("slots must be >= 1")
        if self.subtile_factor < 1:
            raise ConfigError("subtile_factor must be >= 1")
        if self.capacity_tiles is not None:
            if self.kind == KIND_HOST_WORKER:
                raise ConfigError("host workers use host memory; capacity must be unbounded")
            if self.capacity_tiles < 3:
                raise ConfigError(
                    f"capacity_tiles must be >= 3 (A+B+C working set), got {self.capacity_tiles}"
                )

    @property
    def is_host_worker(self) -> bool:
        return self.kind == KIND_HOST_WORKER


@dataclass
class ProximityMatrix:
    """Pairwise hop counts and peer-link bandwidths between devices.

    Hop count decides which peer is "closest"; peer bandwidth prices the
    transfer.  If a configuration makes those two disagree, hops win the
    selection.
    """

    hops: np.ndarray
    peer_bandwidth: np.ndarray

    def __post_init__(self):
        hops = np.asarray(self.hops, dtype=object)
        if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in hops.flat):
            raise ConfigError(f"hop counts must be integers, got {self.hops!r}")
        self.hops = hops.astype(np.int64)
        bw = np.asarray(self.peer_bandwidth, dtype=object)
        if not all(isinstance(v, Real) and not isinstance(v, bool) for v in bw.flat):
            raise ConfigError(f"peer bandwidths must be numbers, got {self.peer_bandwidth!r}")
        self.peer_bandwidth = bw.astype(np.float64)
        h, bw = self.hops, self.peer_bandwidth
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ConfigError(f"hops must be square, got shape {h.shape}")
        if bw.shape != h.shape:
            raise ConfigError("peer_bandwidth shape must match hops")
        if (h < 0).any():
            raise ConfigError("hop counts must be non-negative")
        if (np.diag(h) != 0).any():
            raise ConfigError("hops diagonal must be zero")
        if (h != h.T).any():
            raise ConfigError("hops must be symmetric")
        n = h.shape[0]
        off = ~np.eye(n, dtype=bool)
        if n > 1 and not ((0 < bw[off]) & (bw[off] < np.inf)).all():
            raise ConfigError("peer bandwidths must be finite and > 0")

    def __eq__(self, other):  # the dataclass == would ask numpy for a truth value
        if not isinstance(other, ProximityMatrix):
            return NotImplemented
        return (np.array_equal(self.hops, other.hops)
                and np.array_equal(self.peer_bandwidth, other.peer_bandwidth))

    @property
    def n_devices(self) -> int:
        return self.hops.shape[0]

    @classmethod
    def uniform(cls, n: int, bandwidth: float = 1.0) -> "ProximityMatrix":
        """``n`` devices, each one hop from every other."""
        hops = np.ones((n, n), dtype=np.int64)
        np.fill_diagonal(hops, 0)
        bw = np.full((n, n), bandwidth, dtype=np.float64)
        return cls(hops, bw)


@dataclass
class Machine:
    """The full simulated platform: devices and interconnect."""

    devices: Sequence[DeviceSpec]
    proximity: ProximityMatrix
    transfer_latency: float = 0.0

    def __post_init__(self):
        self.devices = tuple(self.devices)
        if not self.devices:
            raise ConfigError("machine needs at least one device")
        ids = [d.device_id for d in self.devices]
        if ids != list(range(len(ids))):
            raise ConfigError(f"device ids must be 0..{len(ids) - 1} in order, got {ids}")
        if self.proximity.n_devices != len(self.devices):
            raise ConfigError(
                f"proximity is {self.proximity.n_devices}x{self.proximity.n_devices} "
                f"but there are {len(self.devices)} devices"
            )
        self.transfer_latency = _real("transfer_latency", self.transfer_latency)
        if not 0 <= self.transfer_latency < math.inf:
            raise ConfigError("transfer_latency must be finite and >= 0")

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def device(self, device_id: int) -> DeviceSpec:
        if (isinstance(device_id, Integral) and not isinstance(device_id, bool)
                and 0 <= device_id < len(self.devices)):
            return self.devices[device_id]
        raise ConfigError(f"unknown device id {device_id!r}")

    def to_dict(self) -> dict:
        return {
            "devices": [
                {"id" if k == "device_id" else k: v for k, v in asdict(d).items()}
                for d in self.devices
            ],
            "proximity": {
                "hops": self.proximity.hops.tolist(),
                "peer_bandwidth": self.proximity.peer_bandwidth.tolist(),
            },
            "transfer_latency": self.transfer_latency,
        }

    @classmethod
    def from_dict(cls, cfg: dict) -> "Machine":
        """Load a config; a key it does not know is a :class:`ConfigError`."""
        try:
            _check_keys("machine config", cfg, {"devices", "proximity", "transfer_latency"})
            for d in cfg["devices"]:
                _check_keys("device", d, _DEVICE_KEYS)
            devices = [
                DeviceSpec(device_id=d["id"], **{k: v for k, v in d.items() if k != "id"})
                for d in cfg["devices"]
            ]
            prox = cfg.get("proximity")
            if prox is None:
                proximity = ProximityMatrix.uniform(
                    len(devices), bandwidth=max(d.host_bandwidth for d in devices)
                )
            else:
                _check_keys("proximity", prox, {"hops", "peer_bandwidth"})
                proximity = ProximityMatrix(prox["hops"], prox["peer_bandwidth"])
            return cls(
                devices=devices,
                proximity=proximity,
                transfer_latency=cfg.get("transfer_latency", 0.0),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed machine config: {exc}") from exc


# a device is written with its device_id as "id"
_DEVICE_KEYS = {"id"} | {f.name for f in fields(DeviceSpec)} - {"device_id"}


def _check_keys(what: str, cfg, known: set) -> None:
    unknown = set(cfg) - known  # a config that is not an object fails here or on lookup
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {sorted(map(str, unknown))}")


def load_machine(path) -> Machine:
    with open(path) as f:
        return Machine.from_dict(json.load(f))


def save_machine(path, machine: Machine) -> None:
    with open(path, "w") as f:
        json.dump(machine.to_dict(), f, indent=2)
        f.write("\n")


def homogeneous_machine(
    n_devices: int,
    flops_per_unit: float = 1000.0,
    host_bandwidth: float = 8192.0,
    peer_bandwidth: float = 32768.0,
    capacity_tiles: int | None = None,
    slots: int = 4,
    transfer_latency: float = 0.0,
) -> Machine:
    """n identical accelerators on a flat one-hop interconnect."""
    devices = [
        DeviceSpec(
            device_id=i,
            capacity_tiles=capacity_tiles,
            flops_per_unit=flops_per_unit,
            host_bandwidth=host_bandwidth,
            slots=slots,
        )
        for i in range(n_devices)
    ]
    prox = ProximityMatrix.uniform(n_devices, bandwidth=peer_bandwidth)
    return Machine(devices, prox, transfer_latency=transfer_latency)


def compute_cost(dev: DeviceSpec, a_shape, b_shape) -> float:
    """Simulated time for one tile GEMM: 2*m*k*n flops over throughput."""
    m, k = a_shape
    kb, n = b_shape
    if k != kb:
        raise ValueError(f"inner dimensions differ: {a_shape} x {b_shape}")
    return 2.0 * m * k * n / dev.flops_per_unit


def transfer_cost(machine: Machine, src, dst, nbytes: float) -> float:
    """Simulated time to move ``nbytes`` between endpoints.

    Endpoints are device ids or ``HOST``.  Same endpoint means zero.
    Host workers exchange data with host memory for free: their tiles
    already live there.  The price is a Python ``float``, never a numpy
    scalar, so the clocks it is added to stay plain floats.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if src == dst:
        return 0.0
    if src == HOST or dst == HOST:
        dev = machine.device(dst if src == HOST else src)
        if dev.is_host_worker:
            return 0.0
        return nbytes / dev.host_bandwidth + machine.transfer_latency
    s = machine.device(src).device_id
    d = machine.device(dst).device_id
    return nbytes / float(machine.proximity.peer_bandwidth[s, d]) + machine.transfer_latency

