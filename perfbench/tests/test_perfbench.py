"""Tests of the benchmark's own code: span arithmetic, metric names,
failure counting and the host-rescaled latency statistic.  No solves run here;
the benchmark itself checks the library's answers."""

import json
import math
import re
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.layers import PER_LAYER, layer_metrics  # noqa: E402
from perfbench.spans import Patches, Tracer, self_times, wrap  # noqa: E402
from perfbench.workloads import (PROBE_DUTY,  # noqa: E402
                                 PROBE_REFERENCE_S, Case, SolveWorkload,
                                 Tally, check_roots)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, "op", attrs]


def _clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


# -- self time --------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 4.0, parent=0),
             _span("a1", 2.0, 3.0, parent=1),
             _span("b", 5.0, 9.0, parent=0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [_span("root", 0.0, 10.0),
             _span("x", 2.0, 6.0, parent=0),
             _span("y", 4.0, 8.0, parent=0),   # overlaps x: 2..8 covered
             _span("z", 9.0, 12.0, parent=0)]  # runs past the parent
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_tracer_nests_per_thread_and_tags_ops():
    tracer = Tracer(clock=_clock([0.0, 1.0, 2.0, 3.0]))
    tracer.set_op("solve-1")
    outer = tracer.open("solver")
    inner = tracer.open("homotopy")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.spans == [["solver", 0.0, 3.0, None, "solve-1", None],
                            ["homotopy", 1.0, 2.0, 0, "solve-1", None]]

    other = threading.Thread(target=lambda: tracer.close(tracer.open("x")))
    tracer.clock = _clock([4.0, 5.0])
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    assert tracer.spans[2][:4] == ["x", 4.0, 5.0, None]  # no parent


def test_wrap_records_probe_counters_and_closes_on_raise():
    tracer = Tracer()

    def solve(n):
        if n < 0:
            raise ValueError(n)
        return n * 2

    traced = wrap(tracer, "key", "layer", solve,
                  probe=lambda args, kwargs, result: {"result": result})
    assert traced(3) == 6
    try:
        traced(-1)
    except ValueError:
        pass
    assert [s[0] for s in tracer.spans] == ["layer", "layer"]
    assert tracer.spans[0][5] == {"result": 6}
    assert tracer.spans[1][2] is not None  # closed despite the raise
    assert tracer.fired["key"] == 2


def test_patches_restore_modules_classes_and_instances():
    module = types.ModuleType("fake")
    module.f = lambda: "f"

    class Owner:
        def m(self):
            return "m"

    instance = Owner()
    originals = (module.f, vars(Owner)["m"])
    patches = Patches()
    patches.add(module, "f", lambda: "F")
    patches.add(Owner, "m", lambda self: "M")
    patches.add(instance, "m", lambda: "I")
    with patches:
        assert (module.f(), Owner().m(), instance.m()) == ("F", "M", "I")
    assert (module.f, vars(Owner)["m"]) == originals
    assert "m" not in vars(instance) and instance.m() == "m"


def test_layer_fold_on_a_synthetic_trace():
    spans = [_span("solver", 0.0, 10.0,
                   attrs={"solutions": 4, "paths": {"d": 4},
                          "converged": {"d": 3}, "recovered": 0,
                          "retries": 0, "degradations": 0}),
             _span("homotopy", 1.0, 3.0, 0, {"ctx": "d", "lanes": 4}),
             _span("newton", 3.0, 8.0, 0, {"ctx": "d", "active": 4,
                                            "converged": 2,
                                            "iterations": 6}),
             _span("batch_linsolve", 4.0, 6.0, 2,
                   {"ctx": "d", "lanes": 4, "singular": 1})]
    metrics = layer_metrics(spans, units=2, traced_wall=10.0, external={})
    assert metrics["homotopy.eval_s.d"] == 1.0
    assert metrics["homotopy.us_per_lane_eval.d"] == 1e6 * 2.0 / 4
    assert metrics["newton.self_s.d"] == 1.5
    assert metrics["newton.converged_ratio.d"] == 0.5
    assert metrics["batch_linsolve.solve_s.d"] == 1.0
    assert metrics["batch_linsolve.singular_lanes"] == 0.5
    assert metrics["solver.self_s"] == 1.5
    assert metrics["escalation.rung_yield.d"] == 0.75
    assert metrics["homotopy.eval_s.qd"] == 0.0
    assert metrics["trace.coverage"] == 1.0


# -- metric names -----------------------------------------------------------
def test_declared_metrics_match_what_the_runner_emits():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    emitted = layer_metrics([], units=1, traced_wall=1.0, external={})
    assert list(emitted) == [name for name, _, _ in PER_LAYER]


def test_metric_names_are_valid_and_unique():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        ["solve-d", "escalate-qd", "serve-family"]


# -- failures ---------------------------------------------------------------
def _report(residuals):
    solutions = [types.SimpleNamespace(point=(complex(i),), residual=r,
                                       multiplicity=1)
                 for i, r in enumerate(residuals)]
    return types.SimpleNamespace(solutions=solutions)


def test_check_roots_names_count_and_residual_mismatches():
    case = Case("katsura-3", None, None, roots=8, tolerance=1e-10)
    assert check_roots(_report([1e-12] * 8), case) is None
    assert check_roots(_report([1e-12] * 7), case) == \
        "7 distinct roots, expected 8"
    assert "above" in check_roots(_report([1e-12] * 7 + [1e-9]), case)


def _solve_workload(solve_system):
    workload = SolveWorkload("solve-d", seed=0, trace=False)
    workload.tally = Tally(probe=lambda: PROBE_REFERENCE_S)
    workload.options = workload.escalation = None
    workload.solver = types.SimpleNamespace(solve_system=solve_system)
    return workload


def test_wrong_root_count_feeds_fail_frac():
    counts = iter([8, 7, 8, 8])
    workload = _solve_workload(lambda *a, **k: _report([1e-12] * next(counts)))
    case = Case("katsura-3", None, None, roots=8, tolerance=1e-10)
    for op in range(4):
        workload._solve(f"op{op}", case, traced=False)
    tally = workload.tally
    assert (tally.attempted, tally.failed, tally.fail_frac) == (4, 1, 0.25)
    assert tally.failures == {"op1": ["7 distinct roots, expected 8"]}
    assert len(tally.seconds[False]["katsura-3"]) == 3  # failures not timed


def test_a_raise_is_a_named_failure():
    def boom(*args, **kwargs):
        raise RuntimeError("no roots today")

    workload = _solve_workload(boom)
    workload._solve("op0", Case("noon-2", None, None, 5, None), traced=False)
    assert workload.tally.failures == {
        "op0": ["raise RuntimeError: no roots today"]}
    assert workload.tally.seconds[False] == {}


# -- the per-kind statistic ---------------------------------------------------
def test_host_probes_take_a_fixed_share_of_each_operation():
    tally = Tally(probe=lambda: PROBE_REFERENCE_S)
    tally.record("op0", "noon-2", 1.0, traced=False)
    assert len(tally.probes) == math.ceil(PROBE_DUTY / PROBE_REFERENCE_S)
    tally.record("op1", "cyclic-4", 0.0, traced=False)
    assert len(tally.probes) == math.ceil(PROBE_DUTY / PROBE_REFERENCE_S) + 1


def test_rescaling_cancels_host_speed_phases():
    # A 10 ms operation at reference speed; then the host halves its speed,
    # so the operation and the probe both take twice as long.
    host = {"probe": PROBE_REFERENCE_S}
    tally = Tally(probe=lambda: host["probe"])
    tally.sample_host(1.0)
    tally.record("op0", "katsura-3", 0.010, traced=False)
    host["probe"] = 2 * PROBE_REFERENCE_S
    tally.record("op1", "katsura-3", 0.020, traced=False)  # the change
    tally.record("op2", "katsura-3", 0.020, traced=False)
    fast, change, slow = tally.rescaled[False]["katsura-3"]
    assert fast == pytest.approx(0.010) and slow == pytest.approx(0.010)
    assert 0.010 < change < 0.020
    assert tally.seconds[False]["katsura-3"] == [0.010, 0.020, 0.020]


def test_typical_seconds_sums_mean_latency_over_kinds():
    tally = Tally(probe=lambda: PROBE_REFERENCE_S)
    for kind, seconds in [("a", 3.0), ("a", 1.0), ("a", 2.0), ("b", 5.0),
                          ("b", 4.0), ("c", 9.0)]:
        tally.record("op", kind, seconds, traced=False)
    tally.record("op", "c", 0.1, traced=True)  # traced samples never count
    assert tally.host_factor == 1.0
    assert tally.typical_seconds(["a", "b"]) == 2.0 + 4.5
    assert tally.typical_seconds(["c", "missing"]) == 9.0
    assert tally.typical_seconds(["c"], traced=True) == 0.1


def test_latency_metrics_name_each_kind_group():
    tally = Tally(probe=lambda: PROBE_REFERENCE_S)
    for kind, seconds in [("warm", 0.02), ("noon-2", 0.3),
                          ("cyclic-4", 0.05)]:
        tally.record("op", kind, seconds, traced=False)
    workload = types.SimpleNamespace(
        tally=tally,
        kinds=lambda: {"solve": ["warm", "noon-2", "cyclic-4"],
                       "warm": ["warm"], "cold": ["noon-2", "cyclic-4"]})
    metrics = run.latency_metrics(workload)
    assert metrics == pytest.approx({"warm_job_s": 0.02,
                                     "cold_job_s": 0.3 + 0.05,
                                     "solve_s": 0.02 + 0.3 + 0.05})
