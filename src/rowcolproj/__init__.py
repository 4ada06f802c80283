"""Projections onto matrices with prescribed scaled row/column sums.

Exact Moore-Penrose based projectors for the affine set
{T : T e = s, T^T f = r}, entrywise box/integer projectors, and
Douglas-Rachford / alternating-projection / Dykstra feasibility
solvers with a batch experiment harness.
"""

from .affine import (
    AffineMarginalSet,
    make_affine_set,
    project_bistochastic,
    project_eigenpair,
    project_unit_sums,
)
from .box import HyperBox, make_box
from .harness import ExperimentSpec, RunRecord, dedup_solutions, emit_outputs, run_experiment
from .linalg import frobenius_inner, frobenius_norm, outer, spectral_norm
from .operator import MarginalPair, ScaledMarginalOperator, unit_operator
from .solvers import (
    BACKEND,
    SolverConfig,
    SolverTrace,
    run,
    run_batch,
    run_dr,
    run_dykstra,
    run_map,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMarginalSet",
    "BACKEND",
    "ExperimentSpec",
    "HyperBox",
    "MarginalPair",
    "RunRecord",
    "ScaledMarginalOperator",
    "SolverConfig",
    "SolverTrace",
    "dedup_solutions",
    "emit_outputs",
    "frobenius_inner",
    "frobenius_norm",
    "make_affine_set",
    "make_box",
    "outer",
    "project_bistochastic",
    "project_eigenpair",
    "project_unit_sums",
    "run",
    "run_batch",
    "run_dr",
    "run_dykstra",
    "run_experiment",
    "run_map",
    "spectral_norm",
    "unit_operator",
]
