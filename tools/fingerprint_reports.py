"""Fingerprint the solver's answers on the repository benchmark's inputs.

``make fingerprints`` prints one line per ``SolveReport``: the workload,
the scenario, a sha256 over the report and a sha256 over its solutions
alone.  The inputs are perfbench's
(``perfbench/workloads.py``, read only) at seed 0:

* ``solve-d``: the 14 registry scenarios solved at d;
* ``escalate-qd``: the 7 tier-1 scenarios escalated up the default
  ladder to 1e-40;
* ``ladder-all``: the 14 registry scenarios of ``solve-d`` with the
  options and policy of ``escalate-qd``, i.e. all 14 up the default
  ladder to 1e-40;
* ``tangent``: the 14 cases of ``solve-d`` tracked with
  ``predictor="tangent"``;
* ``scalar``: the scalar arithmetic, which every other set leaves to the
  batch arrays.  For each of the 7 ``escalate-qd`` cases, the first two
  start solutions of the case's start plan are tracked by the scalar
  ``PathTracker`` over ``CPUReferenceEvaluator`` at d, dd and qd
  (``TrackerOptions(end_tolerance=1e-10, end_iterations=12)``, about
  25 s on a two-CPU host); one line per case and context hashes each
  ``PathResult``'s end point as float bits, its residual, step and
  Newton counts and reason.

A change that must not move any answer prints the same lines as its
parent; compare the two outputs with ``diff``.  The full hash covers, as
float bits, every solution's point, residual and multiplicity, every
failed path (its end point, residual, step and Newton counts, reason),
and the report's path counts per rung.  The solutions hash covers the
solutions' points, residuals and multiplicities only, so a change that
only reclassifies or stops failed paths can show that no root moved.

``--solve-off`` empties ``compiled.SOLVE_CONTEXTS``, so the linear solves
and Newton updates run their Python routes; ``--kernels-off`` sets
``compiled.KERNELS`` to None, so every dd/qd operation runs its NumPy
reference chain.  Run it on all four line sets: ``solve-d`` and
``tangent`` stay at d, and only ``escalate-qd`` and ``ladder-all`` reach
the dd/qd chains (all four take about 25 s on a two-CPU host).
``--sharded N`` solves every case through ``solve_system_sharded`` with
``N`` shards on one two-worker ``WorkerPool``; the service promises the
in-process answers, so it prints the same lines.  ``--kill-level L``
(only with ``--sharded``) kills shard 0's worker on entry to ladder level
``L`` in every case (``FaultInjection(shard=0, level=L,
kill_after_rounds=0)``, no retry backoff), so that shard resumes from the
checkpoint store at rung ``L``: the store-reload route, which must print
the same lines too.  The route switches act on the batched solve only,
so with any of them the default is the four solve sets, and the
``scalar`` set runs only when named.

Usage::

    python tools/fingerprint_reports.py [--workload scalar] [--solve-off]
                                        [--kernels-off] [--sharded N]
                                        [--kill-level L]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import struct
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from perfbench.workloads import SolveWorkload  # noqa: E402
from repro.core import CPUReferenceEvaluator  # noqa: E402
from repro.multiprec import (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE,  # noqa: E402
                             compiled)
from repro.service import (FaultInjection, WorkerPool,  # noqa: E402
                           solve_system_sharded)
from repro.tracking import (Homotopy, PathTracker,  # noqa: E402
                            TrackerOptions, solver)

SOLVE_WORKLOADS = ("solve-d", "escalate-qd", "ladder-all", "tangent")
WORKLOADS = SOLVE_WORKLOADS + ("scalar",)
SCALAR_OPTIONS = TrackerOptions(end_tolerance=1e-10, end_iterations=12)


def floats(value) -> list:
    """The float components of a scalar of any context."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (int, float)):
        return [float(value)]
    if hasattr(value, "imag"):          # a complex scalar
        return floats(value.real) + floats(value.imag)
    return list(value.components())


class Digest:
    """A sha256 fed floats as their bits and everything else as repr."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def put(self, *items):
        for item in items:
            if isinstance(item, float):
                self.sha.update(struct.pack("<d", item))
            else:
                self.sha.update(repr(item).encode() + b"\0")

    def put_point(self, point):
        self.put(len(point))
        for coordinate in point:
            self.put(*floats(coordinate))

    def put_solutions(self, report):
        for solution in report.solutions:
            self.put_point(solution.point)
            self.put(float(solution.residual), solution.multiplicity)

    def put_path(self, result):
        self.put_point(result.solution)
        self.put(float(result.residual), result.success,
                 result.steps_accepted, result.steps_rejected,
                 result.newton_iterations, result.failure_reason)


def report_digests(report):
    """sha256 over a report's answers and per-rung counts, and sha256
    over its solutions alone."""
    full = Digest()
    full.put(report.paths_tracked, report.paths_converged,
             report.recovered_by_escalation)
    full.put_solutions(report)
    for failure in report.failures:
        full.put_path(failure)
    for counts in (report.paths_by_context, report.converged_by_context,
                   report.resumed_by_context, report.restarted_by_context):
        full.put(sorted(counts.items()))
    for context, values in sorted(report.resume_t_by_context.items()):
        full.put(context, *map(float, values))
    solutions = Digest()
    solutions.put_solutions(report)
    return full.sha.hexdigest(), solutions.sha.hexdigest()


def line_set(name: str):
    """The cases, tracker options and escalation policy of one line set."""
    if name == "ladder-all":
        cases, _, _ = line_set("solve-d")
        _, options, escalation = line_set("escalate-qd")
        return cases, options, escalation
    if name == "tangent":
        cases, options, escalation = line_set("solve-d")
        return (cases, dataclasses.replace(options, predictor="tangent"),
                escalation)
    workload = SolveWorkload(name, 0, trace=False)
    workload.setup()
    return workload.cases, workload.options, workload.escalation


def scalar_lines():
    """One line per ``escalate-qd`` case and context: the scalar tracker's
    two paths from the case's first two start solutions."""
    cases, _, _ = line_set("escalate-qd")
    for case in cases:
        plan = case.start.prepare(case.system)
        starts = list(itertools.islice(plan.solutions(), 2))
        for context in (DOUBLE, DOUBLE_DOUBLE, QUAD_DOUBLE):
            homotopy = Homotopy(
                CPUReferenceEvaluator(plan.start_system, context=context),
                CPUReferenceEvaluator(case.system, context=context),
                context=context)
            tracker = PathTracker(homotopy, context=context,
                                  options=SCALAR_OPTIONS)
            digest = Digest()
            for start in starts:
                digest.put_path(tracker.track(start))
            yield f"scalar {case.kind} {context.name} {digest.sha.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="line set to fingerprint (repeatable; "
                             "default: all five, or the four solve sets "
                             "with a route switch)")
    parser.add_argument("--solve-off", action="store_true",
                        help="run the linear solves and Newton updates in "
                             "Python")
    parser.add_argument("--kernels-off", action="store_true",
                        help="run without the compiled kernels")
    parser.add_argument("--sharded", type=int, metavar="N",
                        help="solve through solve_system_sharded with N "
                             "shards on one two-worker pool")
    parser.add_argument("--kill-level", type=int, metavar="L",
                        help="with --sharded: kill shard 0's worker on "
                             "entry to ladder level L, so it resumes from "
                             "the checkpoint store")
    args = parser.parse_args(argv)
    if args.kill_level is not None:
        if not args.sharded:
            parser.error("--kill-level needs --sharded N")
        if args.kill_level < 0:
            parser.error("--kill-level must be a ladder level >= 0")
    if args.solve_off:
        compiled.SOLVE_CONTEXTS = frozenset()
    if args.kernels_off:
        compiled.KERNELS = None
    with contextlib.ExitStack() as stack:
        solve = solver.solve_system
        if args.sharded:
            pool = stack.enter_context(WorkerPool(2))
            solve = functools.partial(solve_system_sharded,
                                      shards=args.sharded, pool=pool)
        if args.kill_level is not None:
            solve = functools.partial(
                solve, backoff_seconds=0.0,
                fault_injection=FaultInjection(shard=0, level=args.kill_level,
                                               kill_after_rounds=0))
        switched = (args.solve_off or args.kernels_off
                    or bool(args.sharded))
        for name in args.workload or (SOLVE_WORKLOADS if switched
                                      else WORKLOADS):
            if name == "scalar":
                for line in scalar_lines():
                    print(line, flush=True)
                continue
            cases, options, escalation = line_set(name)
            for case in cases:
                report = solve(case.system, options=options,
                               start=case.start, escalation=escalation)
                full, solutions = report_digests(report)
                print(f"{name} {case.kind} {full} {solutions}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
