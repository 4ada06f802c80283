"""Set-up probe, run in a fresh interpreter by run.py.

Imports numpy, then times a fixed set of standard-library imports (the
reference), then ``import rowcolproj`` plus building the spec, affine
set and box, up to the point where the first solve could start. Prints
both times in seconds.

numpy is a dependency the program cannot change, and its import is most
of the time and of the spread of a cold start, so it is left out. The
reference is the same kind of work as the timed part (finding, reading
and executing modules), done in the same process right before it, so
run.py can scale out how fast this host runs imports at that moment.
None of the reference modules is imported by numpy or rowcolproj.

Usage: setup_probe.py SRC_DIR '{"s": [...], "r": [...], "case": "convex"}'
"""

import json
import sys
import time

if __name__ == "__main__":
    src, problem = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import numpy  # noqa: F401

    start = time.perf_counter()
    import configparser, fractions, html.parser, netrc, plistlib, secrets  # noqa: E401, F401
    import shlex, sqlite3, uuid, wave, zoneinfo  # noqa: E401, F401
    reference = time.perf_counter() - start

    start = time.perf_counter()
    import rowcolproj as rcp

    spec = rcp.ExperimentSpec(s=problem["s"], r=problem["r"], case=problem["case"])
    affine_set = rcp.make_affine_set(rcp.unit_operator(spec.m, spec.n), spec.s, spec.r)
    s_bar, r_bar = affine_set.projected_target
    box = rcp.make_box(s_bar, r_bar, integer_restricted=spec.case == "integer")
    print(repr(reference), repr(time.perf_counter() - start))
