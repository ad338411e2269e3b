"""Reduced-order compression, subspace interpolation and genetic inverse search."""

from .barycentric import (
    BarycentricResult,
    interpolate_reduced,
    lagrange_weights,
    procrustes_align,
)
from .dataset import (
    Grid,
    ParamKind,
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
)
from .genetic import Chromosome, GaConfig, GaHistory, read_history_csv, run
from .objective import l2_error_series, project_target, reduced_cost
from .pod import (
    RomDatabase,
    compress_ensemble,
    pod_factorize,
    read_rom,
    reconstruct_field,
    reconstruct_sample,
    two_level_compress,
    write_rom,
)
from .surrogate import (
    PlumeParams,
    analytic_plume,
    recirculating_velocity,
    solve_cavity,
)

__version__ = "0.1.0"
