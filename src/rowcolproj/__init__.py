"""Projections onto matrices with prescribed scaled row/column sums.

One closed-form Moore-Penrose projector onto the affine set
{T : T e = s, T^T f = r} (``make_affine_set(op, s, r).project``), of
which the unit-sum, gamma-eigenpair and bistochastic sets are weight
and target choices; entrywise box/integer projectors; and
Douglas-Rachford / alternating-projection / Dykstra feasibility
solvers with a batch experiment harness.
"""

from .affine import AffineMarginalSet, make_affine_set
from .box import HyperBox, make_box
from .harness import ExperimentSpec, RunRecord, dedup_solutions, emit_outputs, run_experiment
from .linalg import frobenius_norm, spectral_norm
from .operator import MarginalPair, ScaledMarginalOperator, unit_operator
from .solvers import BACKEND, SolverConfig, SolverTrace, run, run_batch

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
    "frobenius_norm",
    "make_affine_set",
    "make_box",
    "run",
    "run_batch",
    "run_experiment",
    "spectral_norm",
    "unit_operator",
]
