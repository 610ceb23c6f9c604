"""Multi-resource fair allocation: exact-rational allocators, a
fixed-point epoch machine, and a deterministic simulation harness."""

from .alloc import (
    compare_pdrf_drf,
    dominant_share,
    drf_allocate,
    pdrf_allocate,
    progressive_filling,
)
from .chainsim import (
    CostModel,
    SimConfig,
    SimulationError,
    build_schedule,
    crosscheck_trace,
    draw_ints,
    replay,
    run_simulation,
    write_cost_csv,
    write_trace_file,
)
from .fixtures import fixture_names, load_fixture
from .machine import (
    AllocationMachine,
    MachineConfig,
    MachineError,
    MachineOverflowError,
    accounting_gap,
    fixed_floor_div,
)
from .reference import fixed_point_reference, reference_task_counts
from .regression import fit_linear
from .vectors import DemandSet, ResourceVector, WeightVector

__version__ = "0.1.0"

__all__ = [
    "AllocationMachine",
    "CostModel",
    "DemandSet",
    "MachineConfig",
    "MachineError",
    "MachineOverflowError",
    "ResourceVector",
    "SimConfig",
    "SimulationError",
    "WeightVector",
    "accounting_gap",
    "build_schedule",
    "compare_pdrf_drf",
    "crosscheck_trace",
    "dominant_share",
    "draw_ints",
    "drf_allocate",
    "fit_linear",
    "fixed_floor_div",
    "fixed_point_reference",
    "fixture_names",
    "load_fixture",
    "pdrf_allocate",
    "progressive_filling",
    "reference_task_counts",
    "replay",
    "run_simulation",
    "write_cost_csv",
    "write_trace_file",
]
