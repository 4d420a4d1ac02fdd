"""tilerun: out-of-core tiled matrix multiplication over simulated devices.

A library (and small CLI) that cuts a product into square tiles of one
size, ragged at the edges, and schedules one task per output tile across
simulated heterogeneous devices through a concurrent FIFO, per-device
reservation stations, work sharing and stealing, and a two-level tile
cache with full transfer statistics.  A minimal fully-connected network
reduces its training passes to these scheduled products.
"""

from .ann import (
    DenseBackend,
    Layer,
    Network,
    TiledBackend,
    bench_pass,
    finite_difference_gradients,
    loss_gradients,
    train_step,
    xor_dataset,
)
from .coherence import CacheDirectory, CacheStats
from .devices import (
    HOST,
    ConfigError,
    DeviceSpec,
    Machine,
    ProximityMatrix,
    compute_cost,
    homogeneous_machine,
    load_machine,
    save_machine,
    transfer_cost,
)
from .matio import load_matrix, save_matrix
from .msqueue import MichaelScottQueue
from .scheduler import (
    Operand,
    Plan,
    ReservationStation,
    Runtime,
    RunStats,
    plan,
    run,
    steal_task,
    write_report_csv,
    write_report_json,
)
from .tiles import TileKey, accumulate_product, reference_gemm

__version__ = "0.1.0"
