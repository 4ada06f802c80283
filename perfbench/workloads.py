"""Workload definitions: targets, start streams and per-phase sizes.

Every input is derived from the ``--seed`` argument. The demo workloads
use the bundled 4x5 instance, so the seed only picks the random starts;
the large workload also draws its targets (the row and column sums of a
seeded random nonnegative integer matrix, so the problem is feasible).
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

DEMO_ROW_SUMS = (32.0, 43.0, 33.0, 23.0)
DEMO_COL_SUMS = (24.0, 18.0, 37.0, 27.0, 25.0)

# Solver settings of the paper's experiment; fixed here rather than taken
# from ExperimentSpec's defaults so the benchmark cannot drift with them.
MAX_ITERATIONS = 250
FEASIBILITY_TOL = 1e-9
ALGORITHMS = ("DR", "MAP", "DYK")


@dataclass(frozen=True)
class Workload:
    name: str
    case: str                    # "convex" or "integer"
    shape: Optional[tuple]       # None selects the bundled 4x5 instance
    batches: int                 # distinct run_experiment batches per round
    batch_starts: int            # starts per batch
    solve_starts: int            # prefix of each batch's starts also solved singly
    traced_starts: int           # starts in the fixed-size traced batch
    project_inputs: int          # distinct matrices timed by the projection passes
    probe_calls: int             # speed-probe kernel calls per reading

    @property
    def integer(self):
        return self.case == "integer"

    @property
    def oracle_check(self):
        """Projections are compared with the KKT oracle on the bundled instance."""
        return self.shape is None


WORKLOADS = {w.name: w for w in (
    # The paper's experiment serves 1000-start batches. 100 starts keep a
    # batch to a few seconds, so a 30 s run measures four, while summarize
    # and emit_outputs (about 9 ms per batch, whatever its size) stay under
    # 1% of it, as in a 1000-start batch.
    Workload("demo4x5-convex", "convex", None, 4, 100, 34, 100, 64, 32),
    Workload("demo4x5-integer", "integer", None, 4, 100, 34, 100, 64, 32),
    Workload("large256x384-convex", "convex", (256, 384), 3, 2, 2, 2, 8, 3),
)}


def smoke(workload):
    """Tiny variant of a workload for the smoke test: same layers, seconds not minutes."""
    shape = None if workload.shape is None else (16, 24)
    return replace(workload, shape=shape, batches=2, batch_starts=2, solve_starts=2,
                   traced_starts=3, project_inputs=4, probe_calls=4)


def targets(workload, seed):
    """Row and column sum targets (s, r) as float lists."""
    if workload.shape is None:
        return list(DEMO_ROW_SUMS), list(DEMO_COL_SUMS)
    m, n = workload.shape
    rng = np.random.default_rng([seed, m, n])
    counts = rng.integers(0, 10, size=(m, n))
    return counts.sum(axis=1).astype(float).tolist(), counts.sum(axis=0).astype(float).tolist()


def batch_seed(seed, batch_index):
    """Experiment seed of batch ``batch_index``; distinct batches get disjoint starts."""
    words = np.random.SeedSequence([seed, batch_index]).generate_state(2, np.uint32)
    return (int(words[0]) << 32 | int(words[1])) >> 1
