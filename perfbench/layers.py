"""The layer map of the traced run.

``HOOKS`` names every public callable the traced run wraps, the layer its
span is charged to, the counters it reads off the call, and the workloads
that must make it fire.  Three bindings need care, because the library
imports them by name:

* ``batched_solve`` is called through ``repro.tracking.newton`` and
  ``repro.tracking.predictor``, so both bindings are wrapped (wrapping
  ``repro.tracking.batch_linsolve`` would record nothing);
* ``convert_batch`` is called through ``repro.tracking.batch_tracker``;
* the homotopy plan compiles lazily inside ``BatchTracker.track_batches``
  (through ``plan_step_scope``), so ``HomotopyPlan`` construction is
  wrapped rather than any private compile helper.

``layer_metrics`` folds a traced run's spans into the per-layer metrics
declared in ``PER_LAYER``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .spans import ATTRS, NAME, Patches, Tracer, resolve, self_times, wrap

CONTEXTS = ("d", "dd", "qd")
SOLVES = ("solve-d", "escalate-qd")
SERVE = ("serve-family",)


def _by_context(stem: str, unit: str, better: str) -> List[tuple]:
    return [(f"{stem}.{ctx}", unit, better) for ctx in CONTEXTS]


#: Every per-layer metric: (name, unit, better).  Times and counts are per
#: traced pass (solve workloads) or per traced job (serve-family); ratios
#: are pooled over the traced run; ``workerpool.*`` and ``parameter.*``
#: are the service's run totals.
PER_LAYER: Tuple[tuple, ...] = tuple(
    _by_context("homotopy.eval_s", "s", "lower")
    + _by_context("homotopy.lane_evals", "count", "lower")
    + _by_context("homotopy.us_per_lane_eval", "us", "lower")
    + _by_context("batch_linsolve.solve_s", "s", "lower")
    + _by_context("batch_linsolve.lanes", "count", "lower")
    + [("batch_linsolve.singular_lanes", "count", "lower")]
    + _by_context("newton.self_s", "s", "lower")
    + _by_context("newton.iterations", "count", "lower")
    + _by_context("newton.converged_ratio", "ratio", "higher")
    + [("predictor.predict_s", "s", "lower"),
       ("predictor.calls", "count", "lower")]
    + _by_context("batch_tracker.self_s", "s", "lower")
    + _by_context("batch_tracker.rounds", "count", "lower")
    + [("batch_tracker.accept_ratio", "ratio", "higher")]
    + _by_context("escalation.paths", "count", "lower")
    + _by_context("escalation.rung_yield", "ratio", "higher")
    + [("escalation.recovered", "count", "higher"),
       ("backend.convert_s", "s", "lower"),
       ("evalplan.compile_s", "s", "lower"),
       ("evalplan.plans", "count", "lower"),
       ("evalplan.cache_hit_ratio", "ratio", "higher"),
       ("start_systems.prepare_s", "s", "lower"),
       ("solver.self_s", "s", "lower"),
       ("solver.solutions", "count", "higher"),
       ("queue.wait_s", "s", "lower"),
       ("queue.rejected", "count", "lower"),
       ("sharded.self_s", "s", "lower"),
       ("sharded.vs_inprocess", "ratio", "lower"),
       ("supervisor.wait_s", "s", "lower"),
       ("supervisor.retries", "count", "lower"),
       ("supervisor.degradations", "count", "lower"),
       ("store.put_s", "s", "lower"),
       ("store.puts", "count", "lower"),
       ("store.get_s", "s", "lower"),
       ("store.gets", "count", "lower"),
       ("workerpool.spawns", "count", "lower"),
       ("workerpool.respawns", "count", "lower"),
       ("parameter.warm_serves", "count", "higher"),
       ("parameter.cold_solves", "count", "lower"),
       ("trace.coverage", "ratio", "higher"),
       ("trace.overhead", "ratio", "lower")])

#: Metrics computed outside the span fold (service stats, cache counters,
#: comparisons with untraced or in-process timings).
EXTERNAL = ("evalplan.cache_hit_ratio", "queue.rejected",
            "sharded.vs_inprocess", "workerpool.spawns",
            "workerpool.respawns", "parameter.warm_serves",
            "parameter.cold_solves", "trace.overhead")


# -- probes: counters read off one wrapped call ---------------------------
def _homotopy(args, kwargs, result):
    t = args[2] if len(args) > 2 else kwargs["t"]
    return {"ctx": args[0].context.name, "lanes": len(t)}


def _linsolve(args, kwargs, result):
    backend = args[2] if len(args) > 2 else kwargs["backend"]
    singular = result[1]
    return {"ctx": backend.name, "lanes": len(singular),
            "singular": int(np.count_nonzero(singular))}


def _newton(args, kwargs, result):
    active = args[2] if len(args) > 2 else kwargs.get("active")
    entering = (args[1].shape[-1] if active is None
                else int(np.count_nonzero(active)))
    return {"ctx": args[0].backend.name, "active": entering,
            "converged": int(np.count_nonzero(result.converged)),
            "iterations": int(result.iterations.sum())}


def _tracker(args, kwargs, result):
    return {"ctx": args[0].context.name, "rounds": result.rounds,
            "accepted": sum(r.steps_accepted for r in result.results),
            "rejected": sum(r.steps_rejected for r in result.results)}


def _report(args, kwargs, report):
    return {"solutions": len(report.solutions),
            "paths": dict(report.paths_by_context),
            "converged": dict(report.converged_by_context),
            "recovered": report.recovered_by_escalation,
            "retries": report.worker_retries,
            "degradations": len(report.degradations)}


def _store(kind: str) -> Callable:
    return lambda args, kwargs, result: {"kind": kind}


@dataclass(frozen=True)
class Hook:
    """``target`` is ``"module:Owner.attr"``, or ``"@name:attr"`` for an
    attribute of an object the workload passes in (the checkpoint store)."""

    target: str
    layer: str
    probe: Optional[Callable]
    must_fire_on: Tuple[str, ...]


HOOKS: Tuple[Hook, ...] = (
    Hook("repro.tracking.solver:solve_system", "solver", _report, SOLVES),
    Hook("repro.tracking.start_systems:TotalDegreeStart.prepare",
         "start_systems", None, SOLVES + SERVE),
    Hook("repro.tracking.start_systems:DiagonalStart.prepare",
         "start_systems", None, SOLVES + SERVE),
    Hook("repro.tracking.start_systems:GenericMemberStart.prepare",
         "start_systems", None, SERVE),
    Hook("repro.tracking.batch_tracker:BatchTracker.track_batches",
         "batch_tracker", _tracker, SOLVES),
    Hook("repro.core.evalplan:HomotopyPlan.__init__", "evalplan", None,
         SOLVES),
    Hook("repro.tracking.homotopy:BatchHomotopy.evaluate_batch", "homotopy",
         _homotopy, SOLVES),
    Hook("repro.tracking.newton:BatchNewtonCorrector.correct", "newton",
         _newton, SOLVES),
    Hook("repro.tracking.newton:batched_solve", "batch_linsolve", _linsolve,
         SOLVES),
    # The default secant predictor solves nothing; these fire only under
    # TrackerOptions(predictor="tangent"), which no workload uses.
    Hook("repro.tracking.predictor:batched_solve", "batch_linsolve",
         _linsolve, ()),
    Hook("repro.tracking.predictor:BatchTangentPredictor.predict",
         "predictor", None, ()),
    Hook("repro.tracking.predictor:BatchSecantPredictor.predict",
         "predictor", None, SOLVES),
    Hook("repro.tracking.batch_tracker:convert_batch", "backend", None,
         ("escalate-qd",)),
    Hook("repro.service.sharded:solve_system_sharded", "sharded", _report,
         SERVE),
    Hook("repro.service.supervisor:Supervisor.run", "supervisor", None,
         SERVE),
    Hook("@store:put", "store", _store("put"), SERVE),
    # Reads happen only when a crashed shard reloads its checkpoints.
    Hook("@store:get", "store", _store("get"), ()),
)


def build_patches(tracer: Tracer, instances: Dict[str, object]
                  ) -> Tuple[Patches, List[str]]:
    """Wrap every hook that resolves; return the patches and the targets
    that do not resolve (a renamed or deleted callable)."""
    patches = Patches()
    missing = []
    for hook in HOOKS:
        try:
            if hook.target.startswith("@"):
                name, _, attr = hook.target[1:].partition(":")
                if name not in instances:  # not part of this workload
                    continue
                owner = instances[name]
                func = getattr(owner, attr)
            else:
                owner, attr = resolve(hook.target)
                func = vars(owner)[attr]
        except (ImportError, AttributeError):
            missing.append(hook.target)
            continue
        patches.add(owner, attr,
                    wrap(tracer, hook.target, hook.layer, func, hook.probe))
    return patches, missing


def hook_problems(tracer: Tracer, workload: str,
                  missing: Sequence[str]) -> List[str]:
    """Named reasons the trace cannot be trusted: hooks that did not
    resolve, and hooks that never fired on a workload meant to exercise
    them."""
    problems = [f"{target}: does not resolve" for target in missing]
    problems += [f"{hook.target}: never fired on {workload}"
                 for hook in HOOKS
                 if workload in hook.must_fire_on
                 and hook.target not in missing
                 and tracer.fired[hook.target] == 0]
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[list], units: int, traced_wall: float,
                  external: Dict[str, float]) -> Dict[str, float]:
    """Fold traced spans into every ``PER_LAYER`` metric.

    ``units`` is the number of traced passes or jobs the extensive metrics
    are divided by, ``traced_wall`` the wall time those units took, and
    ``external`` supplies the ``EXTERNAL`` metrics (0 for those it lacks:
    the layer did not run on this workload).
    """
    own = self_times(spans)
    acc: Dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        layer, attrs = span[NAME], span[ATTRS] or {}
        ctx = attrs.get("ctx")
        if layer == "homotopy":
            acc[f"homotopy.eval_s.{ctx}"] += seconds
            acc[f"homotopy.lane_evals.{ctx}"] += attrs["lanes"]
        elif layer == "batch_linsolve":
            acc[f"batch_linsolve.solve_s.{ctx}"] += seconds
            acc[f"batch_linsolve.lanes.{ctx}"] += attrs["lanes"]
            acc["batch_linsolve.singular_lanes"] += attrs["singular"]
        elif layer == "newton":
            acc[f"newton.self_s.{ctx}"] += seconds
            acc[f"newton.iterations.{ctx}"] += attrs["iterations"]
            acc[f"newton.active.{ctx}"] += attrs["active"]
            acc[f"newton.converged.{ctx}"] += attrs["converged"]
        elif layer == "predictor":
            acc["predictor.predict_s"] += seconds
            acc["predictor.calls"] += 1
        elif layer == "batch_tracker":
            acc[f"batch_tracker.self_s.{ctx}"] += seconds
            acc[f"batch_tracker.rounds.{ctx}"] += attrs["rounds"]
            acc["batch_tracker.accepted"] += attrs["accepted"]
            acc["batch_tracker.steps"] += attrs["accepted"] + attrs["rejected"]
        elif layer in ("solver", "sharded"):
            acc[f"{layer}.self_s"] += seconds
            acc["solver.solutions"] += attrs["solutions"]
            for rung, paths in attrs["paths"].items():
                acc[f"escalation.paths.{rung}"] += paths
                acc[f"escalation.converged.{rung}"] += attrs["converged"][rung]
            acc["escalation.recovered"] += attrs["recovered"]
            acc["supervisor.retries"] += attrs["retries"]
            acc["supervisor.degradations"] += attrs["degradations"]
        elif layer == "backend":
            acc["backend.convert_s"] += seconds
        elif layer == "evalplan":
            acc["evalplan.compile_s"] += seconds
            acc["evalplan.plans"] += 1
        elif layer in ("start_systems", "queue", "supervisor"):
            acc[{"start_systems": "start_systems.prepare_s",
                 "queue": "queue.wait_s",
                 "supervisor": "supervisor.wait_s"}[layer]] += seconds
        elif layer == "store":
            acc[f"store.{attrs['kind']}_s"] += seconds
            acc[f"store.{attrs['kind']}s"] += 1

    out: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        stem, _, ctx = name.rpartition(".")
        if name in EXTERNAL:
            out[name] = float(external.get(name, 0.0))
        elif stem == "homotopy.us_per_lane_eval":
            out[name] = 1e6 * _ratio(acc[f"homotopy.eval_s.{ctx}"],
                                     acc[f"homotopy.lane_evals.{ctx}"])
        elif stem == "newton.converged_ratio":
            out[name] = _ratio(acc[f"newton.converged.{ctx}"],
                               acc[f"newton.active.{ctx}"])
        elif stem == "escalation.rung_yield":
            out[name] = _ratio(acc[f"escalation.converged.{ctx}"],
                               acc[f"escalation.paths.{ctx}"])
        elif name == "batch_tracker.accept_ratio":
            out[name] = _ratio(acc["batch_tracker.accepted"],
                               acc["batch_tracker.steps"])
        elif name == "trace.coverage":
            out[name] = _ratio(sum(own), traced_wall)
        else:
            out[name] = _ratio(acc[name], units)
    return out
