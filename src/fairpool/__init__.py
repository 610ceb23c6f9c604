"""Multi-resource fair allocation: exact-rational allocators, a
fixed-point epoch machine, and a deterministic simulation harness."""

from .alloc import (
    AllocationResult,
    DiffStats,
    compare_pdrf_drf,
    dominant_share,
    drf_allocate,
    pdrf_allocate,
    progressive_filling,
)
from .chainsim import (
    BlockTx,
    CostModel,
    CostRecord,
    CrosscheckReport,
    ReplayResult,
    SimConfig,
    SimulationError,
    Trace,
    TraceRecord,
    build_schedule,
    crosscheck_trace,
    gen_demands,
    replay,
    run_simulation,
    write_cost_csv,
    write_trace_file,
)
from .fixtures import GoldenCase, fixture_names, load_fixture
from .machine import (
    AllocationMachine,
    ClaimReceipt,
    DemandRecord,
    MachineConfig,
    MachineError,
    MachineOverflowError,
    accounting_gap,
    fixed_floor_div,
)
from .reference import FixedPointOutcome, fixed_point_reference, reference_task_counts
from .regression import RegressionFit, fit_linear
from .vectors import DemandSet, ResourceVector, WeightVector

__version__ = "0.1.0"

__all__ = [
    "AllocationMachine",
    "AllocationResult",
    "BlockTx",
    "ClaimReceipt",
    "CostModel",
    "CostRecord",
    "CrosscheckReport",
    "DemandRecord",
    "DemandSet",
    "DiffStats",
    "FixedPointOutcome",
    "GoldenCase",
    "MachineConfig",
    "MachineError",
    "MachineOverflowError",
    "RegressionFit",
    "ReplayResult",
    "ResourceVector",
    "SimConfig",
    "SimulationError",
    "Trace",
    "TraceRecord",
    "WeightVector",
    "accounting_gap",
    "build_schedule",
    "compare_pdrf_drf",
    "crosscheck_trace",
    "dominant_share",
    "drf_allocate",
    "fit_linear",
    "fixed_floor_div",
    "fixed_point_reference",
    "fixture_names",
    "gen_demands",
    "load_fixture",
    "pdrf_allocate",
    "progressive_filling",
    "reference_task_counts",
    "replay",
    "run_simulation",
    "write_cost_csv",
    "write_trace_file",
]
