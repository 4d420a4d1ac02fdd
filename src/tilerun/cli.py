"""Command-line front end.

Subcommands: ``gen`` (deterministic matrix files), ``gemm`` (one product
through the runtime), ``ann`` (train a small network on either backend),
``sweep`` (size x device-count scaling table).  ``TILERUN_LOG`` sets the
log level.  Exit codes: 0 success, 2 configuration error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import ann as ann_mod
from .devices import ConfigError, DeviceSpec, Machine, homogeneous_machine, load_machine
from .matio import load_matrix, save_matrix
from .scheduler import run, write_report_csv, write_report_json

log = logging.getLogger("tilerun")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 4


def _setup_logging() -> None:
    level = os.environ.get("TILERUN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _machine_from_args(args) -> Machine:
    if getattr(args, "devices", None):
        return load_machine(args.devices)
    return homogeneous_machine(1)


def _gen_matrix(rows: int, cols: int, seed: int, dist: str, low: float, high: float):
    rng = np.random.default_rng(seed)
    if dist == "int":
        return rng.integers(int(low), int(high) + 1, size=(rows, cols)).astype(np.float64)
    return rng.uniform(low, high, size=(rows, cols))


def cmd_gen(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise ConfigError("matrix dimensions must be >= 1")
    m = _gen_matrix(args.rows, args.cols, args.seed, args.dist, args.low, args.high)
    save_matrix(args.out, m)
    log.info("wrote %dx%d %s matrix to %s", args.rows, args.cols, args.dist, args.out)
    return EXIT_OK


def cmd_gemm(args) -> int:
    machine = _machine_from_args(args)
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    c, stats = run(machine, a, b, tile_size=args.tile_size, mode=args.mode,
                   steal=args.steal == "on", coherence=not args.no_coherence)
    if args.out:
        save_matrix(args.out, c)
    if args.report:
        write_report_json(stats, args.report)
    if args.csv:
        write_report_csv(stats, args.csv)
    mk = f" makespan={stats.makespan:.6g}" if stats.makespan is not None else ""
    print(f"gemm done: {stats.total_tasks} tasks on {machine.n_devices} device(s),"
          f"{mk} host_fetches={stats.cache.host_fetches}")
    return EXIT_OK


def cmd_ann(args) -> int:
    sizes = [int(s) for s in args.layers.split(",") if s.strip()]
    if len(sizes) < 2:
        raise ConfigError(f"--layers needs at least two sizes, got {args.layers!r}")
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    if not math.isfinite(args.lr):
        raise ConfigError(f"--lr must be finite, got {args.lr}")
    rng = np.random.default_rng(args.seed)
    net = ann_mod.Network.from_sizes(sizes, rng, activation=args.activation)
    if args.data == "xor":
        if sizes[0] != 2 or sizes[-1] != 1:
            raise ConfigError("xor data needs --layers starting with 2 and ending with 1")
        x, target = ann_mod.xor_dataset()
    else:
        x, target = ann_mod.random_regression(rng, args.batch, sizes[0], sizes[-1])

    if args.backend == "dense":
        backend = ann_mod.DenseBackend()
    else:
        machine = _machine_from_args(args)
        backend = ann_mod.TiledBackend(machine, tile_size=args.tile_size,
                                       mode=args.mode)
    losses = []
    for step in range(args.steps):
        losses.append(ann_mod.train_step(net, x, target, args.lr, backend))
    if args.loss_csv:
        with open(args.loss_csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "loss"])
            for i, l in enumerate(losses):
                w.writerow([i, f"{l:.17g}"])
    if args.report:
        report = {
            "schema_version": 1,
            "backend": args.backend,
            "layers": sizes,
            "steps": args.steps,
            "lr": args.lr,
            "seed": args.seed,
            # null when there is no finite loss: no step, or a diverged run
            "final_loss": losses[-1] if losses and math.isfinite(losses[-1]) else None,
        }
        if args.backend == "tiled":
            report["cache"] = backend.runtime.directory.stats().as_dict()
            report["sim_time"] = backend.sim_time()
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    final = losses[-1] if losses else float("nan")
    print(f"ann done: {args.steps} steps, final loss {final:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    counts = [int(s) for s in args.device_counts.split(",") if s.strip()]
    if not sizes or not counts:
        raise ConfigError("sweep needs --sizes and --device-counts")
    if 1 not in counts:
        counts = [1] + counts  # speedup baseline
    template = _machine_from_args(args)
    first = template.devices[0]  # each cell is n copies of it
    differ = [f.name for f in dataclasses.fields(DeviceSpec) if f.name != "device_id"
              and any(getattr(d, f.name) != getattr(first, f.name) for d in template.devices)]
    if differ:
        raise ConfigError(f"sweep --devices: the template's devices differ in "
                          f"{', '.join(differ)}; a sweep builds equal devices")
    bw = template.proximity.peer_bandwidth
    off = bw[~np.eye(len(bw), dtype=bool)]
    if (off != off[:1]).any():
        raise ConfigError("sweep --devices: the template's peer bandwidths differ; "
                          "a sweep builds one flat interconnect")
    # a one-device template keeps homogeneous_machine's peer bandwidth
    peer = {"peer_bandwidth": float(off[0])} if off.size else {}

    cache_fields = ["l1_hits", "l2_hits", "host_fetches", "bytes_host", "bytes_peer", "evictions"]
    fields = ["size", "devices", "tile_size", "makespan", "speedup", *cache_fields, "steals"]
    wrote = 0
    with open(args.out, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        f.flush()
        try:
            for size in sizes:
                rng = np.random.default_rng(args.seed)
                a = rng.uniform(0.0, 1.0, size=(size, size))
                b = rng.uniform(0.0, 1.0, size=(size, size))
                base = None
                for n in sorted(set(counts)):
                    machine = dataclasses.replace(
                        homogeneous_machine(n, **peer),
                        devices=[dataclasses.replace(first, device_id=i) for i in range(n)],
                        transfer_latency=template.transfer_latency)
                    _, stats = run(machine, a, b, tile_size=args.tile_size,
                                   mode="sim", coherence=not args.no_coherence)
                    if n == 1:
                        base = stats.makespan
                    cache = stats.cache.as_dict()
                    w.writerow({
                        "size": size, "devices": n, "tile_size": args.tile_size,
                        "makespan": f"{stats.makespan:.9g}",
                        "speedup": f"{base / stats.makespan:.6g}",
                        **{k: cache[k] for k in cache_fields},
                        "steals": len(stats.steal_events),
                    })
                    f.flush()  # keep partial results on a failing cell
                    wrote += 1
        except Exception:
            log.error("sweep aborted after %d cells; partial CSV kept at %s",
                      wrote, args.out)
            raise
    print(f"sweep done: {wrote} cells -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tilerun", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a deterministic matrix file")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dist", choices=["int", "float"], default="int")
    g.add_argument("--low", type=float, default=-4.0)
    g.add_argument("--high", type=float, default=4.0)
    g.add_argument("--out", required=True,
                   help="output path; .bin suffix selects the binary format")
    g.set_defaults(fn=cmd_gen)

    m = sub.add_parser("gemm", help="multiply two matrix files through the runtime")
    m.add_argument("--a", required=True)
    m.add_argument("--b", required=True)
    m.add_argument("--out", default=None)
    m.add_argument("--tile-size", type=int, default=64)
    m.add_argument("--devices", default=None, help="machine config JSON")
    m.add_argument("--mode", choices=["sim", "threaded"], default="sim")
    m.add_argument("--report", default=None, help="JSON report path")
    m.add_argument("--csv", default=None, help="per-device CSV report path")
    m.add_argument("--no-coherence", action="store_true",
                   help="bypass the tile cache: every request fetches from host")
    m.add_argument("--steal", choices=["on", "off"], default="on")
    m.set_defaults(fn=cmd_gemm)

    a = sub.add_parser("ann", help="train a small fully-connected net")
    a.add_argument("--layers", required=True, help="sizes like 2,8,1")
    a.add_argument("--batch", type=int, default=32)
    a.add_argument("--steps", type=int, default=100)
    a.add_argument("--lr", type=float, default=0.5)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--backend", choices=["tiled", "dense"], default="tiled")
    a.add_argument("--activation", choices=list(ann_mod.ACTIVATIONS), default="sigmoid")
    a.add_argument("--data", choices=["xor", "random"], default="random")
    a.add_argument("--devices", default=None)
    a.add_argument("--tile-size", type=int, default=16)
    a.add_argument("--mode", choices=["sim", "threaded"], default="sim")
    a.add_argument("--report", default=None)
    a.add_argument("--loss-csv", default=None)
    a.set_defaults(fn=cmd_ann)

    s = sub.add_parser("sweep", help="makespan/speedup over sizes and device counts")
    s.add_argument("--sizes", required=True, help="comma list, e.g. 64,128,256")
    s.add_argument("--device-counts", required=True, help="comma list, e.g. 1,2,4")
    s.add_argument("--tile-size", type=int, default=16)
    s.add_argument("--devices", default=None,
                   help="machine config of equal devices; each cell is n copies of its "
                        "device, with its peer bandwidth and transfer_latency")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--no-coherence", action="store_true")
    s.add_argument("--out", required=True, help="CSV output path")
    s.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
