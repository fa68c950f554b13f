"""Synchronous message-passing round simulator (LOCAL and CONGEST)."""

from .compiled import CompiledNetwork
from .congest import BandwidthModel, CongestModel, LocalModel
from .errors import (
    AlgorithmFailure,
    BandwidthExceeded,
    InfeasibleInstanceError,
    InstanceError,
    NetworkError,
    RoundLimitExceeded,
    SchedulerError,
    SimulationError,
)
from .kernels import (
    KernelRound,
    RoundKernel,
    kernel_for,
    kernel_stats,
    register_kernel,
    registered_kernels,
    unregister_kernel,
)
from .message import (
    Broadcast,
    Message,
    clear_payload_memo,
    color_bits,
    int_bits,
    intern_broadcast,
    intern_payload,
    payload_bits,
)
from .metrics import CostLedger, PhaseStats, ensure_ledger
from .network import Network
from .node import NodeProgram, RoundContext
from .parallel import (
    PoolUnavailable,
    SweepReport,
    WorkerPool,
    derive_seed,
    parallel_sweep,
    run_trials,
)
from . import shm
from .scheduler import (
    DEFAULT_MAX_ROUNDS,
    ENGINES,
    Scheduler,
    default_engine,
    run_protocol,
    set_default_engine,
    use_engine,
)
from .tracing import RoundObserver, RoundRecord

__all__ = [
    "AlgorithmFailure",
    "BandwidthExceeded",
    "BandwidthModel",
    "Broadcast",
    "CompiledNetwork",
    "CongestModel",
    "CostLedger",
    "DEFAULT_MAX_ROUNDS",
    "ENGINES",
    "InfeasibleInstanceError",
    "InstanceError",
    "KernelRound",
    "LocalModel",
    "Message",
    "Network",
    "NetworkError",
    "NodeProgram",
    "PhaseStats",
    "RoundContext",
    "RoundKernel",
    "RoundLimitExceeded",
    "RoundObserver",
    "RoundRecord",
    "Scheduler",
    "SchedulerError",
    "SimulationError",
    "PoolUnavailable",
    "SweepReport",
    "WorkerPool",
    "clear_payload_memo",
    "color_bits",
    "default_engine",
    "derive_seed",
    "ensure_ledger",
    "int_bits",
    "intern_broadcast",
    "intern_payload",
    "kernel_for",
    "kernel_stats",
    "parallel_sweep",
    "payload_bits",
    "register_kernel",
    "registered_kernels",
    "run_protocol",
    "run_trials",
    "set_default_engine",
    "shm",
    "unregister_kernel",
    "use_engine",
]
