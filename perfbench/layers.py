"""Where the traced run wraps tilerun, and the per-layer metrics it derives.

Names a module imports from another are wrapped where the caller looks
them up (``tilerun.scheduler.accumulate_product``, ``tilerun.cli.run``);
methods are wrapped on their classes.  Span names are
``<defining module>.<function>``, so a module's self time is the sum over
the names that start with it.
"""

from __future__ import annotations

import tilerun.cli
import tilerun.coherence
import tilerun.msqueue
import tilerun.scheduler

from tracer import Tracer

MODULES = ("tiles", "coherence", "scheduler", "msqueue", "devices", "ann", "matio", "cli")

_GLOBALS = [
    (tilerun.scheduler, {
        "accumulate_product": "tiles.accumulate_product",
        "partition": "tiles.partition",
        "reassemble": "tiles.reassemble",
        "plan": "scheduler.plan",
        "steal_task": "scheduler.steal_task",
        "_run_sim": "scheduler._run_sim",
        "_run_threaded": "scheduler._run_threaded",
        "compute_cost": "devices.compute_cost",
        "transfer_cost": "devices.transfer_cost",
    }),
    (tilerun.cli, {
        "load_matrix": "matio.load_matrix",
        "save_matrix": "matio.save_matrix",
        "run": "scheduler.run",
        "write_report_json": "scheduler.write_report_json",
    }),
]

_METHODS = [
    (tilerun.coherence.CacheDirectory, "coherence.CacheDirectory",
     ("acquire_input", "release_input", "admit_output", "release_output",
      "stats", "stats_per_device")),
    (tilerun.coherence.CacheStats, "coherence.CacheStats", ("__sub__",)),
    (tilerun.scheduler.ReservationStation, "scheduler.ReservationStation",
     ("refill", "pop_for_run", "try_steal")),
    (tilerun.scheduler.Completion, "scheduler.Completion", ("all_done",)),
    (tilerun.msqueue.MichaelScottQueue, "msqueue.MichaelScottQueue",
     ("enqueue", "dequeue", "is_empty")),
]


class Probes:
    """Counts taken at span boundaries rather than from the op's result."""

    def __init__(self):
        self.flops = 0  # 2*m*k*n of every planned product
        self.resident_keys = 0  # tiles resident on all devices after the last product

    def on_plan(self, args, plan_):
        m, k = plan_.a.element_shape
        self.flops += 2 * m * k * plan_.b.element_shape[1]

    def on_multiply(self, args, result):
        rt = args[0]
        self.resident_keys = sum(rt.directory.used_tiles(d.device_id)
                                 for d in rt.machine.devices)


def build_tracer(probes: Probes, span_cap: int) -> Tracer:
    tracer = Tracer(span_cap)
    hooks = {"scheduler.plan": probes.on_plan}
    for module, names in _GLOBALS:
        for attr, name in names.items():
            tracer.wrap(module, attr, name, hooks.get(name))
    for cls, prefix, attrs in _METHODS:
        for attr in attrs:
            tracer.wrap(cls, attr, f"{prefix}.{attr}")
    tracer.wrap(tilerun.scheduler.Runtime, "multiply", "scheduler.Runtime.multiply",
                probes.on_multiply)
    return tracer


def layer_metrics(spans: dict, n_ops: int, results, probes: Probes, facts: dict,
                  io_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics as ``{name: (value, unit)}``, per traced op unless
    the unit says otherwise: those of BENCHMARK.json, and the others.

    ``results`` are the traced ops' ``OpResult``s; ``facts`` the ann
    session facts (empty for gemm workloads); ``io_bytes`` the matrix
    bytes a CLI op reads and writes.
    """

    def self_s(*names):
        return sum(spans[n]["self"] for n in names) / n_ops

    def calls(*names):
        return sum(spans[n]["calls"] for n in names) / n_ops

    def module_self(module):
        return self_s(*[n for n in spans if n.split(".")[0] == module])

    def per_op(key):
        return sum(r.cache[key] for r in results) / n_ops

    kernel = "tiles.accumulate_product"
    acquire = "coherence.CacheDirectory.acquire_input"
    engines = ("scheduler._run_sim", "scheduler._run_threaded")
    dispatch = ("scheduler.ReservationStation.refill", "scheduler.ReservationStation.pop_for_run",
                "scheduler.ReservationStation.try_steal", "scheduler.steal_task")
    queue = [n for n in spans if n.startswith("msqueue.")]
    requests = per_op("l1_hits") + per_op("l2_hits") + per_op("host_fetches")
    matio_s = self_s("matio.load_matrix", "matio.save_matrix")
    m = {
        "tiles.kernel.calls": (calls(kernel), "count/op"),
        "tiles.kernel.self_s": (self_s(kernel), "s/op"),
        "tiles.kernel.us_per_call": (1e6 * self_s(kernel) / calls(kernel), "us"),
        "tiles.kernel.flops": (probes.flops / n_ops, "flop/op"),
        "tiles.kernel.gflops": (probes.flops / n_ops / self_s(kernel) / 1e9, "GFLOP/s"),
        "tiles.partition.self_s": (self_s("tiles.partition"), "s/op"),
        "tiles.reassemble.self_s": (self_s("tiles.reassemble"), "s/op"),
        "tiles.self_s": (module_self("tiles"), "s/op"),
        "coherence.acquire.calls": (calls(acquire), "count/op"),
        "coherence.acquire.self_s": (self_s(acquire), "s/op"),
        "coherence.acquire.us_per_call": (1e6 * self_s(acquire) / calls(acquire), "us"),
        "coherence.release.self_s": (self_s("coherence.CacheDirectory.release_input",
                                            "coherence.CacheDirectory.release_output"), "s/op"),
        "coherence.snapshot.self_s": (self_s("coherence.CacheDirectory.stats",
                                             "coherence.CacheDirectory.stats_per_device",
                                             "coherence.CacheStats.__sub__"), "s/op"),
        "coherence.self_s": (module_self("coherence"), "s/op"),
        "coherence.evictions": (per_op("evictions"), "count/op"),
        "coherence.l1_hits": (per_op("l1_hits"), "count/op"),
        "coherence.l2_hits": (per_op("l2_hits"), "count/op"),
        "coherence.host_fetches": (per_op("host_fetches"), "count/op"),
        "coherence.hit_ratio": ((per_op("l1_hits") + per_op("l2_hits")) / requests, "ratio"),
        "coherence.bytes_host": (per_op("bytes_host"), "B/op"),
        "coherence.bytes_peer": (per_op("bytes_peer"), "B/op"),
        "coherence.resident_keys": (facts.get("resident_keys", probes.resident_keys), "count"),
        "scheduler.plan.self_s": (self_s("scheduler.plan"), "s/op"),
        "scheduler.envelope.self_s": (self_s("scheduler.Runtime.multiply"), "s/op"),
        "scheduler.engine.self_s": (self_s(*engines), "s/op"),
        "scheduler.dispatch.calls": (calls(*dispatch), "count/op"),
        "scheduler.dispatch.self_s": (self_s(*dispatch), "s/op"),
        "scheduler.steals": (sum(r.steals for r in results) / n_ops, "count/op"),
        "scheduler.us_per_tile_step": (1e6 * self_s(*engines) / calls(kernel), "us"),
        "scheduler.kernel_overlap": (spans[kernel]["total"]
                                     / sum(spans[n]["total"] for n in engines), "ratio"),
        "scheduler.self_s": (module_self("scheduler"), "s/op"),
        "msqueue.ops": (calls(*queue), "count/op"),
        "msqueue.self_s": (self_s(*queue), "s/op"),
        "devices.cost.self_s": (self_s("devices.compute_cost", "devices.transfer_cost"), "s/op"),
        "ann.call_stats_len": (facts.get("call_stats_len", 0), "count"),
    }
    # Layers that only one workload runs: reported beside the metrics of
    # BENCHMARK.json, where they would read 0 on the other workloads.  The
    # idle polls belong to gemm-threaded, which is not in BENCHMARK.json.
    extra = {
        "scheduler.idle_polls": (spans["scheduler.Completion.all_done"]["worker_calls"] / n_ops,
                                 "count/op"),
        "ann.train_step.self_s": (self_s("ann.train_step") if "ann.train_step" in spans
                                  else 0.0, "s/op"),
        "matio.load.self_s": (self_s("matio.load_matrix"), "s/op"),
        "matio.save.self_s": (self_s("matio.save_matrix"), "s/op"),
        "matio.mb_per_s": (io_bytes / 1e6 / matio_s if matio_s > 0 else 0.0, "MB/s"),
        "cli.report.self_s": (self_s("scheduler.write_report_json"), "s/op"),
    }
    total = sum(module_self(mod) for mod in MODULES)
    for mod in MODULES:
        extra[f"{mod}.share"] = (module_self(mod) / total, "ratio")
    return m, extra
