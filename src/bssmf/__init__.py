"""Bounded simplex-structured matrix factorization."""

from .matrixcore import ObservationMask, ShapeError, objective, spectral_norm
from .projections import BoundsVector, project_box, project_simplex_columns
from .solver import (
    FactorPair,
    ModelVariant,
    SolveReport,
    SolverConfig,
    predict_cells,
    solve,
    solve_centered,
)

__all__ = [
    "ObservationMask",
    "ShapeError",
    "objective",
    "spectral_norm",
    "BoundsVector",
    "project_box",
    "project_simplex_columns",
    "FactorPair",
    "ModelVariant",
    "SolveReport",
    "SolverConfig",
    "predict_cells",
    "solve",
    "solve_centered",
]
