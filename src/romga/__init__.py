"""Reduced-order compression, subspace interpolation and genetic inverse search."""

from .barycentric import (
    BarycentricResult,
    FixedPointConfig,
    InterpolationRequest,
    interpolate_reduced,
    lagrange_weights,
    procrustes_align,
    select_neighbors,
)
from .dataset import (
    Grid,
    ParamKind,
    RegionMask,
    SnapshotMatrix,
    TimeAxis,
    build_mask,
    read_snapshots,
    write_snapshots,
)
from .errors import (
    CorruptionError,
    DivergenceError,
    EmptyMaskError,
    FormatError,
    PersistenceError,
    RomgaError,
    StabilityError,
)
from .genetic import Chromosome, GaConfig, GaHistory, SearchSpace, read_history_csv, run
from .objective import Target, cost, fitness, l2_error_series, project_target, reduced_cost
from .pod import (
    PodPair,
    RomDatabase,
    compress_ensemble,
    default_rank,
    pod_factorize,
    read_rom,
    reconstruct_field,
    reconstruct_sample,
    truncate_blocks,
    two_level_compress,
    write_rom,
)
from .surrogate import (
    CavityParams,
    PlumeParams,
    SolverConfig,
    analytic_plume,
    recirculating_velocity,
    solve_cavity,
)

__version__ = "0.1.0"
