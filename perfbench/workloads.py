"""The benchmark's workloads.

Each workload separates four things so that only the program's own work
is timed:

* ``setup_program(seed)`` -- the program's set-up (machine, session,
  network) up to the point where the first op is ready.  ``setup_probe.py``
  times this in fresh processes, together with ``import tilerun``.
* ``prepare(seed, workdir)`` -- inputs made from the seed and the
  reference results the checks compare against.  Untimed.
* ``op()`` -- one closed-loop operation through the public API.  Timed.
* ``check(raw)`` -- verifies the op's output bit for bit and the cache
  counter identity.  Untimed.

The module imports ``tilerun``, so the caller must put the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tilerun
from tilerun.devices import DeviceSpec, Machine, ProximityMatrix

CACHE_FIELDS = ("l1_hits", "l2_hits", "host_fetches", "bytes_host", "bytes_peer",
                "evictions", "writebacks", "bytes_writeback")


@dataclass
class OpResult:
    """What one op produced, as far as the checks and metrics need it."""

    ok: bool
    reason: str = ""
    cache: dict = field(default_factory=dict)  # CacheStats fields of this op
    tasks_by_device: dict = field(default_factory=dict)
    steals: int = 0
    makespan: float | None = None  # simulated units
    output_sha256: str = ""  # of the output bytes, for the fingerprint


def failure(reason: str) -> OpResult:
    return OpResult(False, reason)


def check_identity(cache: dict, total_tasks: int, k_steps: int) -> str:
    """Every task step resolves exactly one A and one B tile."""
    got = cache["l1_hits"] + cache["l2_hits"] + cache["host_fetches"]
    want = 2 * total_tasks * k_steps
    return "" if got == want else f"counter identity broken: {got} requests, want {want}"


def check_bits(got: np.ndarray, want: np.ndarray) -> str:
    if got.shape != want.shape or got.dtype != want.dtype:
        return f"output {got.dtype}{got.shape}, want {want.dtype}{want.shape}"
    if got.tobytes() != want.tobytes():
        bad = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
        return f"output differs from the reference in {bad} element(s)"
    return ""


def uniform_pair(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, n)), rng.uniform(size=(n, n))


def stats_result(c: np.ndarray, stats, expected: np.ndarray) -> OpResult:
    cache = stats.cache.as_dict()
    reason = check_bits(c, expected) or check_identity(cache, stats.total_tasks, stats.k_steps)
    return OpResult(
        ok=not reason, reason=reason, cache=cache,
        tasks_by_device={str(d): n for d, n in stats.tasks_by_device.items()},
        steals=len(stats.steal_events), makespan=stats.makespan,
        output_sha256=hashlib.sha256(c.tobytes()).hexdigest(),
    )


class Workload:
    name = ""
    sim = True  # has a simulated makespan of its own
    # op_tail_ref is this nearest-rank percentile: of p50, p75 and p99 the
    # highest that leaves ten ops beyond it in a run of BENCHMARK.json's
    # length on the reference box.  Fixed, so that runs with more or fewer
    # ops stay comparable.
    TAIL_PCT = 50
    ROOT_SPAN = "scheduler.run"  # traced-run name of the op: the layer whose code it runs

    def setup_program(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed work between ops."""

    def op(self):
        raise NotImplementedError

    def check(self, raw) -> OpResult:
        raise NotImplementedError

    def can_stop(self) -> bool:
        return True

    def makespan_per_op(self, results: list[OpResult]) -> float:
        return results[0].makespan

    def model(self, results: list[OpResult]) -> dict:
        """The simulated outcome that must not move unless the model changes."""
        r = results[0]
        return {"makespan": r.makespan, "cache": r.cache,
                "tasks_by_device": r.tasks_by_device, "steals": r.steals,
                "output_sha256": r.output_sha256}

    def session_facts(self) -> dict:
        return {}

    def io_bytes(self) -> int:
        """Matrix bytes an op reads and writes through tilerun.matio."""
        return 0


class GemmCli(Workload):
    name = "gemm-cli-t16"
    N, TILE, DEVICES = 256, 16, 4
    TAIL_PCT = 75
    ROOT_SPAN = "cli.main"

    def setup_program(self, seed):
        import tilerun.cli

        self.cli = tilerun.cli

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        a, b = uniform_pair(seed, self.N)
        self.paths = {k: str(workdir / f) for k, f in
                      (("a", "a.txt"), ("b", "b.txt"), ("out", "c.bin"),
                       ("report", "report.json"), ("devices", "devices.json"))}
        for key, m in (("a", a), ("b", b)):
            write_text_matrix(self.paths[key], m)
        tilerun.save_machine(self.paths["devices"],
                             tilerun.homogeneous_machine(self.DEVICES))
        ref = tilerun.reference_gemm(a, b)
        self.expected = struct.pack("<QQ", *ref.shape) + ref.astype("<f8").tobytes()
        p = self.paths
        self.argv = ["gemm", "--a", p["a"], "--b", p["b"], "--out", p["out"],
                     "--tile-size", str(self.TILE), "--devices", p["devices"],
                     "--mode", "sim", "--report", p["report"]]

    def before_op(self):
        for key in ("out", "report"):
            Path(self.paths[key]).unlink(missing_ok=True)

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv)

    def check(self, code):
        if code != 0:
            return failure(f"CLI exit code {code}")
        got = Path(self.paths["out"]).read_bytes()
        if got != self.expected:
            return failure("c.bin differs from the reference product")
        with open(self.paths["report"]) as f:
            rep = json.load(f)
        cache = {k: rep["cache"][k] for k in CACHE_FIELDS}
        reason = check_identity(cache, rep["total_tasks"], rep["grid"]["k_steps"])
        return OpResult(
            ok=not reason, reason=reason, cache=cache,
            tasks_by_device={str(d["device_id"]): d["tasks_completed"]
                             for d in rep["devices"]},
            steals=rep["steals"], makespan=rep["makespan"],
            output_sha256=hashlib.sha256(got).hexdigest(),
        )

    def io_bytes(self):
        return sum(Path(self.paths[k]).stat().st_size for k in ("a", "b", "out"))


class GemmRun(Workload):
    """``tilerun.run`` on two uniform N x N matrices."""

    N = TILE = 0
    MODE = "sim"

    def build_machine(self) -> Machine:
        raise NotImplementedError

    def setup_program(self, seed):
        self.machine_ = self.build_machine()

    def prepare(self, seed, workdir):
        self.a, self.b = uniform_pair(seed, self.N)
        self.expected = tilerun.reference_gemm(self.a, self.b)

    def op(self):
        return tilerun.run(self.machine_, self.a, self.b, tile_size=self.TILE,
                           mode=self.MODE)

    def check(self, raw):
        return stats_result(*raw, self.expected)


class GemmEvictHetero(GemmRun):
    name = "gemm-evict-hetero"
    N, TILE = 96, 4

    def build_machine(self):
        devices = [DeviceSpec(i, capacity_tiles=52, flops_per_unit=f, host_bandwidth=512.0)
                   for i, f in enumerate((250.0, 500.0, 750.0))]
        devices.append(DeviceSpec(3, kind="host-worker", flops_per_unit=200.0,
                                  subtile_factor=2))
        hops = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
        bandwidth = [[0.0 if h == 0 else 4096.0 if h == 1 else 1024.0 for h in row]
                     for row in hops]
        return Machine(devices, ProximityMatrix(hops, bandwidth))


class GemmThreaded(GemmRun):
    name = "gemm-threaded"
    sim = False
    N, TILE, MODE = 192, 8, "threaded"

    def build_machine(self):
        return tilerun.homogeneous_machine(2)

    def prepare(self, seed, workdir):
        super().prepare(seed, workdir)
        # The threaded engine keeps no simulated clock; the makespan of the
        # modelled machine comes from a sim replay of the same product.
        _, stats = tilerun.run(self.machine_, self.a, self.b, tile_size=self.TILE,
                               mode="sim")
        self.sim_makespan = stats.makespan

    def makespan_per_op(self, results):
        return self.sim_makespan


class AnnXorTrain(Workload):
    name = "ann-xor-train"
    SIZES, LR, TILE, DEVICES = [2, 8, 1], 0.5, 2, 2
    SESSION_STEPS = 1000  # long enough for resident keys to grow visibly
    TAIL_PCT = 99
    ROOT_SPAN = "ann.train_step"

    def setup_program(self, seed):
        self.machine_ = tilerun.homogeneous_machine(self.DEVICES)
        self.x, self.target = tilerun.xor_dataset()
        self.init = tilerun.Network.from_sizes(self.SIZES, np.random.default_rng(seed),
                                               activation="sigmoid")
        self.sessions = []  # facts of each completed session
        self._new_session()

    def _new_session(self):
        self.net = copy.deepcopy(self.init)
        self.backend = tilerun.TiledBackend(self.machine_, tile_size=self.TILE)
        self.step = 0
        self.losses = []

    def prepare(self, seed, workdir):
        net = tilerun.Network.from_sizes(self.SIZES, np.random.default_rng(seed),
                                         activation="sigmoid")
        dense = tilerun.DenseBackend()
        self.expected = [tilerun.train_step(net, self.x, self.target, self.LR, dense)
                         for _ in range(self.SESSION_STEPS)]
        self.requests_per_step = 2 * sum(
            _tasks_times_k(*shape, self.TILE) for shape in _step_products(
                self.x.shape[0], self.SIZES))

    def before_op(self):
        if self.step == self.SESSION_STEPS:
            self.sessions.append(self._facts())
            self._new_session()
        self.cache_before = self.backend.runtime.directory.stats().as_dict()
        self.calls_before = len(getattr(self.backend, "call_stats", ()))

    def op(self):
        return tilerun.train_step(self.net, self.x, self.target, self.LR, self.backend)

    def check(self, loss):
        want = self.expected[self.step]
        self.step += 1
        self.losses.append(loss)
        after = self.backend.runtime.directory.stats().as_dict()
        cache = {k: after[k] - self.cache_before[k] for k in CACHE_FIELDS}
        if np.float64(loss).tobytes() != np.float64(want).tobytes():
            return failure(f"loss {loss!r} at step {self.step - 1}, dense gives {want!r}")
        got = cache["l1_hits"] + cache["l2_hits"] + cache["host_fetches"]
        if got != self.requests_per_step:
            return failure(f"counter identity broken: {got} requests in a step, "
                           f"want {self.requests_per_step}")
        calls = getattr(self.backend, "call_stats", [])[self.calls_before:]
        return OpResult(True, cache=cache, steals=sum(len(s.steal_events) for s in calls))

    def can_stop(self):
        return bool(self.sessions) or self.step == self.SESSION_STEPS

    def _facts(self) -> dict:
        rt = self.backend.runtime
        call_stats = getattr(self.backend, "call_stats", [])
        tasks: dict[str, int] = {}
        for s in call_stats:
            for d, n in s.tasks_by_device.items():
                tasks[str(d)] = tasks.get(str(d), 0) + n
        return {
            "makespan": self.backend.sim_time(),
            "cache": rt.directory.stats().as_dict(),
            "tasks_by_device": tasks,
            "steals": sum(len(s.steal_events) for s in call_stats),
            "output_sha256": hashlib.sha256(np.array(self.losses).tobytes()).hexdigest(),
            "resident_keys": sum(rt.directory.used_tiles(d.device_id)
                                 for d in self.machine_.devices),
            "call_stats_len": len(call_stats),
        }

    def session_facts(self):
        return self.sessions[0] if self.sessions else self._facts()

    def makespan_per_op(self, results):
        return self.session_facts()["makespan"] / self.SESSION_STEPS

    def model(self, results):
        facts = self.session_facts()
        return {k: facts[k] for k in
                ("makespan", "cache", "tasks_by_device", "steals", "output_sha256")}


def _step_products(batch: int, sizes: list[int]):
    """(m, k, n) of the six products of one training step of a 2-layer net."""
    out = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        out.append((batch, fan_in, fan_out))   # forward X @ W
        out.append((fan_in, batch, fan_out))   # dW = X^T @ dY
        out.append((batch, fan_out, fan_in))   # dX = dY @ W^T
    return out


def _tasks_times_k(m: int, k: int, n: int, t: int) -> int:
    ceil = lambda v: -(-v // t)  # noqa: E731
    return ceil(m) * ceil(n) * ceil(k)


def write_text_matrix(path, m: np.ndarray) -> None:
    """The text format of the README, written independently of tilerun.matio."""
    with open(path, "w") as f:
        f.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


WORKLOADS = {w.name: w for w in (GemmCli, GemmEvictHetero, AnnXorTrain, GemmThreaded)}
