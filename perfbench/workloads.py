"""The benchmark's three seeded workloads, their answer checks and timing.

Every input comes from the seed: registry systems perturbed by
``perturb_coefficients`` at 1e-3, katsura-3 family queries at 1e-2, and
the order of the cold service jobs.  gamma stays at the library default
(a seeded gamma makes ``DiagonalStart`` lose paths on some seeds, so the
failure count would follow the seed rather than the code).  All runs use
``TrackerOptions(end_iterations=12)``; each registry system is solved from
its scenario's recommended start strategy.

Operations fall into kinds (a registry system, or a kind of service job).
The shared development host changes speed by up to 2x, in bursts of
milliseconds and in phases of seconds to minutes, in CPU time as well as
wall time.  So the run samples host speed with a fixed probe loop after
every operation, about 3% of the run's time.  Each operation's latency is
rescaled by the probes on either side of it to the speed at which the
probe takes ``PROBE_REFERENCE_S``, and a kind's statistic is its mean
rescaled latency (see README.md).
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.bench.scenarios import get_scenario, iter_scenarios, tier1_scenarios
from repro.polynomials.generators import perturb_coefficients
from repro.tracking import solver as solver_module
from repro.tracking.solver import EscalationPolicy
from repro.tracking.start_systems import (DiagonalStart, GenericMemberStart,
                                          TotalDegreeStart)
from repro.tracking.tracker import TrackerOptions

from .layers import build_patches
from .spans import Tracer, resolve

REGISTRY_SCALE = 1e-3
QUERY_SCALE = 1e-2
FAMILY = "katsura-3"
FAMILY_ROOTS = 8
COLD_KINDS = ("cyclic-4", "random-sparse-3", "noon-2")
WARM_KIND = "warm"
JOB_TIMEOUT_S = 30.0
PROBE_ROUNDS = 1000
#: The probe's time on the development host in a fast phase: the speed the
#: latency metrics are rescaled to.
PROBE_REFERENCE_S = 1.6e-3
#: Share of each operation's time spent sampling host speed after it.
PROBE_DUTY = 0.03
MAX_PROBES_PER_OP = 100
TOLERANCES = {"solve-d": 1e-10, "escalate-qd": 1e-40, "serve-family": 1e-10}


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 32))


def _options(workload: str) -> TrackerOptions:
    return TrackerOptions(end_tolerance=TOLERANCES[workload],
                          end_iterations=12)


def _start(scenario):
    return (DiagonalStart() if scenario.start_strategy == "diagonal"
            else TotalDegreeStart())


@dataclass
class Case:
    """One operation's input and the answer it must produce."""

    kind: str
    system: object
    start: object
    roots: int
    tolerance: Optional[float]  # None: count check only


def registry_case(scenario, rng: np.random.Generator,
                  tolerance: Optional[float]) -> Case:
    if scenario.known_root_count is None:
        raise ValueError(f"{scenario.name} has no known root count")
    return Case(scenario.name,
                perturb_coefficients(scenario.build_system(), REGISTRY_SCALE,
                                     seed=_draw(rng)),
                _start(scenario), scenario.known_root_count, tolerance)


def check_roots(report, case: Case) -> Optional[str]:
    """Why ``report`` is not the answer ``case`` asks for, or ``None``."""
    found = len(report.solutions)
    if found != case.roots:
        return f"{found} distinct roots, expected {case.roots}"
    if case.tolerance is not None:
        worst = max(s.residual for s in report.solutions)
        if not worst <= case.tolerance:
            return f"residual {worst:.3g} above {case.tolerance:g}"
    return None


def solution_key(report) -> list:
    return [(s.point, s.residual, s.multiplicity) for s in report.solutions]


def host_probe_seconds() -> float:
    """One timing of a fixed loop of small-array NumPy calls and Python
    arithmetic: the same kind of work as the solver's, and no library
    code, so a change to the library never moves the probe."""
    values = np.ones(8)
    began = time.perf_counter()
    total = 0.0
    for i in range(PROBE_ROUNDS):
        total += float((values * 1.0001).sum()) + i
    return time.perf_counter() - began


def _by_kind() -> Dict[bool, Dict[str, List[float]]]:
    return {False: {}, True: {}}


@dataclass
class Tally:
    """Every attempted operation: the seconds of each correct one, split
    traced/untraced and by kind, also rescaled to the reference host
    speed; the named reasons of each failed one; and every host probe."""

    probe: Callable[[], float] = host_probe_seconds
    seconds: Dict[bool, Dict[str, List[float]]] = field(
        default_factory=_by_kind)
    rescaled: Dict[bool, Dict[str, List[float]]] = field(
        default_factory=_by_kind)
    probes: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: Dict[str, List[str]] = field(default_factory=dict)
    _recent: List[float] = field(default_factory=list)

    def sample_host(self, busy: float) -> List[float]:
        """Probe until the probes took ``PROBE_DUTY`` of ``busy`` seconds
        (at least once), so they sample the run evenly in time."""
        burst: List[float] = []
        for _ in range(MAX_PROBES_PER_OP):
            burst.append(self.probe())
            if sum(burst) >= PROBE_DUTY * busy:
                break
        self.probes.extend(burst)
        self._recent = burst
        return burst

    def record(self, op: str, kind: str, seconds: float, traced: bool,
               problem: Optional[str] = None) -> None:
        """Account one operation of ``seconds``; ``problem`` marks it
        failed.  Its host speed is the mean of the probes sampled just
        before it (after the previous operation) and just after it."""
        self.attempted += 1
        before = self._recent or [PROBE_REFERENCE_S]
        speed = statistics.mean(before + self.sample_host(seconds))
        if problem is not None:
            self.fail(op, problem)
            return
        self.seconds[traced].setdefault(kind, []).append(seconds)
        self.rescaled[traced].setdefault(kind, []).append(
            seconds * PROBE_REFERENCE_S / speed)

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def host_factor(self) -> float:
        """Reference probe time over the run's mean probe: above 1 when
        the host ran faster than the reference, below 1 when slower."""
        return PROBE_REFERENCE_S / statistics.mean(self.probes)

    def typical_seconds(self, kinds: Iterable[str],
                        traced: bool = False) -> float:
        """Sum over ``kinds`` of the mean rescaled latency.  A kind with no
        correct operation is left out; its failures already fail the
        run."""
        rescaled = self.rescaled[traced]
        return sum(statistics.mean(rescaled[kind])
                   for kind in kinds if kind in rescaled)


def rescaled_setup(seconds: float) -> float:
    """``seconds`` of set-up rescaled to the reference host speed by about
    0.12 s of probes timed right after it."""
    tally = Tally()
    tally.sample_host(4.0)
    return seconds * tally.host_factor


class TraceSession:
    """Wraps the hooks only while a traced unit (pass or job) runs, and
    keeps what the per-layer fold needs besides the spans."""

    CACHE_STATS = "repro.core.evalplan:homotopy_compile_cache_stats"

    def __init__(self, instances: Optional[dict] = None):
        self.tracer = Tracer()
        self.patches, self.missing = build_patches(self.tracer,
                                                   instances or {})
        try:
            owner, attr = resolve(self.CACHE_STATS)
            self.cache_stats = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(self.CACHE_STATS)
            self.cache_stats = lambda: {"hits": 0, "misses": 0}
        self.on = False
        self.units = 0
        self.cache = Counter()

    @contextmanager
    def active(self):
        before = self.cache_stats()
        self.patches.apply()
        self.on = True
        try:
            yield
        finally:
            self.on = False
            self.patches.undo()
            self.units += 1
            after = self.cache_stats()
            for key in ("hits", "misses"):
                self.cache[key] += after[key] - before[key]

    def cache_hit_ratio(self) -> float:
        lookups = self.cache["hits"] + self.cache["misses"]
        return self.cache["hits"] / lookups if lookups else 0.0


def _peak_rss_mib(children: int = 0) -> float:
    """This process's peak RSS plus ``children`` times the largest reaped
    child's, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


class SolveWorkload:
    """solve-d / escalate-qd: in-process ``solve_system`` over registry
    systems, interleaved pass by pass; traced runs alternate untraced and
    traced passes so the overhead is measured in the same process."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.seed = seed
        self.trace = trace
        self.tally = Tally()
        self.session: Optional[TraceSession] = None

    def setup(self) -> None:
        self.solver = solver_module
        rng = np.random.default_rng(self.seed)
        scenarios = (list(iter_scenarios()) if self.name == "solve-d"
                     else tier1_scenarios())
        tolerance = TOLERANCES[self.name]
        self.cases = [registry_case(s, rng, tolerance) for s in scenarios]
        self.options = _options(self.name)
        self.escalation = (EscalationPolicy() if self.name == "escalate-qd"
                           else None)
        if self.trace:
            self.session = TraceSession()

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        self.tally.sample_host(1.0)
        passes, longest = 0, 0.0
        while passes < 2 or time.perf_counter() + longest <= deadline:
            traced = self.session is not None and passes % 2 == 1
            began = time.perf_counter()
            with self.session.active() if traced else nullcontext():
                for case in self.cases:
                    self._solve(f"pass{passes}:{case.kind}", case, traced)
            longest = max(longest, time.perf_counter() - began)
            passes += 1

    def _solve(self, op: str, case: Case, traced: bool) -> None:
        if traced:
            self.session.tracer.set_op(op)
        began = time.perf_counter()
        try:
            report = self.solver.solve_system(
                case.system, options=self.options, start=case.start,
                escalation=self.escalation)
        except Exception as exc:  # a raise is a failed operation
            problem = f"raise {type(exc).__name__}: {exc}"
        else:
            problem = check_roots(report, case)
        self.tally.record(op, case.kind, time.perf_counter() - began, traced,
                          problem)

    def close(self) -> None:
        self.peak_rss_mib = _peak_rss_mib()

    def finish(self) -> Dict[str, float]:
        """Per-layer metrics that do not come from spans."""
        if not self.trace:
            return {}
        return {"evalplan.cache_hit_ratio": self.session.cache_hit_ratio()}

    def kinds(self) -> Dict[str, List[str]]:
        return {"solve": [case.kind for case in self.cases],
                "warm": [FAMILY], "cold": list(COLD_KINDS)}


class ServeWorkload:
    """serve-family: one client, one job outstanding, through
    ``SolveService(workers=1)`` on a persistent ``WorkerPool(2)`` with
    ``shards=2``.  Four warm katsura-3 family queries alternate with one
    cold one-off solve; traced runs trace every other cycle of five jobs."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.seed = seed
        self.trace = trace
        self.tally = Tally()
        self.session: Optional[TraceSession] = None
        self.first_cold: Dict[str, tuple] = {}
        self.rejected = 0
        self.wedged = False

    def setup(self) -> None:
        # Imported here so the solve workloads' set-up does not pay for
        # the service stack.
        from repro import errors
        from repro.service import (InMemoryCheckpointStore, SolveService,
                                   WorkerPool, sharded)

        self.sharded = sharded
        self.errors = errors
        self.rng = np.random.default_rng(self.seed)
        self.options = _options(self.name)
        self.base = get_scenario(FAMILY).build_system()
        self.scenarios = {kind: get_scenario(kind) for kind in COLD_KINDS}
        self.submitted: Dict[int, tuple] = {}
        self.pool = WorkerPool(2)
        self.store = InMemoryCheckpointStore()
        self.service = SolveService(
            workers=1, solver=self._queue_probe, pool=self.pool, shards=2,
            store=self.store, options=self.options)
        if self.trace:
            self.session = TraceSession({"store": self.store})
        member = perturb_coefficients(self.base, REGISTRY_SCALE,
                                      seed=_draw(self.rng))
        self.member = self.service.result(
            self.service.submit(member, family=FAMILY), timeout=JOB_TIMEOUT_S)
        if len(self.member.solutions) != FAMILY_ROOTS:
            raise RuntimeError(f"family member adoption found "
                               f"{len(self.member.solutions)} roots, "
                               f"expected {FAMILY_ROOTS}")

    def _queue_probe(self, system, **kwargs):
        """The service's solver: times the queue wait, then solves through
        the module attribute so the traced run's wrapper sees the call."""
        entered = time.perf_counter()
        op, submitted = self.submitted.pop(id(system), (None, entered))
        if self.session is not None and self.session.on:
            self.session.tracer.set_op(op)
            self.session.tracer.record("queue", submitted, entered, op)
        return self.sharded.solve_system_sharded(system, **kwargs)

    def _next_case(self, job: int, cold_order: List[str]) -> Case:
        if job % 5 != 4:
            return Case(WARM_KIND,
                        perturb_coefficients(self.base, QUERY_SCALE,
                                             seed=_draw(self.rng)),
                        None, FAMILY_ROOTS, None)
        if not cold_order:
            cold_order.extend(COLD_KINDS[i]
                              for i in self.rng.permutation(len(COLD_KINDS)))
        return registry_case(self.scenarios[cold_order.pop()], self.rng, None)

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        self.tally.sample_host(1.0)
        cold_order: List[str] = []
        job = 0
        while job < 15 or time.perf_counter() < deadline:
            traced = self.session is not None and (job // 5) % 2 == 1
            case = self._next_case(job, cold_order)
            with self.session.active() if traced else nullcontext():
                self._job(f"job{job}:{case.kind}", case, traced)
            job += 1
            if self.wedged:
                break

    def _job(self, op: str, case: Case, traced: bool) -> None:
        errors = self.errors
        kwargs = ({"family": FAMILY} if case.kind == WARM_KIND
                  else {"start": case.start})
        began = time.perf_counter()
        self.submitted[id(case.system)] = (op, began)
        try:
            job_id = self.service.submit(case.system, **kwargs)
            report = self.service.result(job_id, timeout=JOB_TIMEOUT_S)
        except (errors.QueueFullError, errors.RateLimitedError) as exc:
            self.submitted.pop(id(case.system), None)
            self.rejected += 1
            problem = f"refused {type(exc).__name__}: {exc}"
        except errors.SolveTimeoutError as exc:
            self.wedged = True
            problem = f"timeout: {exc}"
        except Exception as exc:  # a raise is a failed operation
            problem = f"raise {type(exc).__name__}: {exc}"
        else:
            problem = check_roots(report, case)
        seconds = time.perf_counter() - began
        self.tally.record(op, case.kind, seconds, traced, problem)
        if (problem is None and case.kind != WARM_KIND
                and case.kind not in self.first_cold):
            self.first_cold[case.kind] = (op, case, report)

    def close(self) -> None:
        """Stop the service and the pool (also after a failed setup), then
        read peak RSS so the reaped workers count."""
        if hasattr(self, "service"):
            if self.trace:
                self._read_service_stats()
            self.service.shutdown(wait=not self.wedged)
        if hasattr(self, "pool"):
            self.pool.close()
            self.peak_rss_mib = _peak_rss_mib(children=len(self.pool.slots))

    def _read_service_stats(self) -> None:
        self.service_stats = {}
        try:
            pool = self.pool.stats
            family = self.service.family_stats(FAMILY)
        except AttributeError as exc:
            self.session.missing.append(f"service stats: {exc}")
            return
        self.service_stats = {
            "workerpool.spawns": pool["spawns"],
            "workerpool.respawns": pool["respawns"],
            "parameter.warm_serves": family["warm_serves"],
            "parameter.cold_solves": family["cold_solves"]}

    def finish(self) -> Dict[str, float]:
        """The bit-for-bit contract on each cold kind's first job, and the
        per-layer metrics that do not come from spans."""
        for kind, (op, case, report) in sorted(self.first_cold.items()):
            reference = solver_module.solve_system(
                case.system, options=self.options, start=case.start)
            if solution_key(reference) != solution_key(report):
                self.tally.fail(op, "differs from in-process solve_system "
                                    "(points, residuals, multiplicities)")
        for kind in COLD_KINDS:
            if kind not in self.first_cold:
                self.tally.fail(f"cold:{kind}", "no correct cold job ran")
        if not self.trace:
            return {}
        return {"queue.rejected": self.rejected / max(1, self.session.units),
                "sharded.vs_inprocess": self._vs_inprocess(),
                "evalplan.cache_hit_ratio": self.session.cache_hit_ratio(),
                **self.service_stats}

    def _vs_inprocess(self) -> float:
        """Warm-job latency over the latency of solving a warm query
        in-process from the same member, each at reference host speed."""
        start = GenericMemberStart.from_report(self.member)
        query = perturb_coefficients(self.base, QUERY_SCALE, seed=self.seed)
        reference = Tally()
        reference.sample_host(1.0)
        for _ in range(5):
            began = time.perf_counter()
            solver_module.solve_system(query, options=self.options,
                                       start=start)
            reference.record("in-process", WARM_KIND,
                             time.perf_counter() - began, traced=False)
        return (self.tally.typical_seconds([WARM_KIND])
                / reference.typical_seconds([WARM_KIND]))

    def kinds(self) -> Dict[str, List[str]]:
        return {"solve": [WARM_KIND, *COLD_KINDS], "warm": [WARM_KIND],
                "cold": list(COLD_KINDS)}


WORKLOADS = {"solve-d": SolveWorkload, "escalate-qd": SolveWorkload,
             "serve-family": ServeWorkload}
