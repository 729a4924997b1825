"""Fingerprint the solver's answers on the repository benchmark's inputs.

``make fingerprints`` prints one line per ``SolveReport``: the workload,
the scenario and a sha256 over the report.  The inputs are perfbench's
(``perfbench/workloads.py``, read only) at seed 0:

* ``solve-d``: the 14 registry scenarios solved at d;
* ``escalate-qd``: the 7 tier-1 scenarios escalated up the default
  ladder to 1e-40.

A change that must not move any answer prints the same lines as its
parent; compare the two outputs with ``diff``.  Each hash covers, as
float bits, every solution's point, residual and multiplicity, every
failed path (its end point, residual, step and Newton counts, reason),
and the report's path counts per rung.

``--solve-off`` empties ``compiled.SOLVE_CONTEXTS``, so the linear solves
and Newton updates run their Python routes; ``--kernels-off`` sets
``compiled.KERNELS`` to None (slow: keep it to ``--workload solve-d``).

Usage::

    python tools/fingerprint_reports.py [--workload solve-d] [--solve-off]
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from perfbench.workloads import SolveWorkload  # noqa: E402
from repro.multiprec import compiled  # noqa: E402
from repro.tracking import solver  # noqa: E402

WORKLOADS = ("solve-d", "escalate-qd")


def floats(value) -> list:
    """The float components of a scalar of any context."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (int, float)):
        return [float(value)]
    if hasattr(value, "hi"):            # DoubleDouble
        return [value.hi, value.lo]
    if hasattr(value, "c"):             # QuadDouble
        return [float(c) for c in value.c]
    return floats(value.real) + floats(value.imag)


def report_digest(report) -> str:
    """sha256 over a report's answers and per-rung counts."""
    digest = hashlib.sha256()

    def put(*items):
        for item in items:
            if isinstance(item, float):
                digest.update(struct.pack("<d", item))
            else:
                digest.update(repr(item).encode() + b"\0")

    def put_point(point):
        put(len(point))
        for coordinate in point:
            put(*floats(coordinate))

    put(report.paths_tracked, report.paths_converged,
        report.recovered_by_escalation)
    for solution in report.solutions:
        put_point(solution.point)
        put(float(solution.residual), solution.multiplicity)
    for failure in report.failures:
        put_point(failure.solution)
        put(float(failure.residual), failure.success, failure.steps_accepted,
            failure.steps_rejected, failure.newton_iterations,
            failure.failure_reason)
    for counts in (report.paths_by_context, report.converged_by_context,
                   report.resumed_by_context, report.restarted_by_context,
                   report.endgame_skips_by_context):
        put(sorted(counts.items()))
    for context, values in sorted(report.resume_t_by_context.items()):
        put(context, *map(float, values))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to fingerprint (repeatable; "
                             "default: both)")
    parser.add_argument("--solve-off", action="store_true",
                        help="run the linear solves and Newton updates in "
                             "Python")
    parser.add_argument("--kernels-off", action="store_true",
                        help="run without the compiled kernels")
    args = parser.parse_args(argv)
    if args.solve_off:
        compiled.SOLVE_CONTEXTS = frozenset()
    if args.kernels_off:
        compiled.KERNELS = None
    for name in args.workload or WORKLOADS:
        workload = SolveWorkload(name, 0, trace=False)
        workload.setup()
        for case in workload.cases:
            report = solver.solve_system(
                case.system, options=workload.options, start=case.start,
                escalation=workload.escalation)
            print(f"{name} {case.kind} {report_digest(report)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
