"""tilerun: out-of-core tiled matrix multiplication over simulated devices.

A library (and small CLI) that partitions matrices into tiles, schedules
one task per output tile across simulated heterogeneous devices through
a concurrent FIFO, per-device reservation stations, work sharing and
stealing, and a two-level tile cache with full transfer statistics.  A
minimal fully-connected network reduces its training passes to these
scheduled products.
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
from .coherence import CacheDirectory, CacheStats, CapacityError
from .devices import (
    HOST,
    ConfigError,
    DeviceSpec,
    Machine,
    ProximityMatrix,
    closest_owner,
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
from .tiles import (
    TiledMatrix,
    TileKey,
    accumulate_product,
    decode_task,
    partition,
    reassemble,
    reference_gemm,
)

__version__ = "0.1.0"
