"""Repository benchmark: time to roots at d, up the d -> dd -> qd ladder,
and through the solve service, with an outside-in layer trace.

    python3 perfbench/run.py --workload solve-d --seed 0 --seconds 30 --trace 0

Workloads: ``solve-d``, ``escalate-qd``, ``serve-family`` (see README.md);
``--workload all`` runs each in turn, in its own process.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the library's public callables and reports the
per-layer metrics instead.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run's record (fingerprint,
metrics, failures, sample counts) and, when traced, its spans are written
under ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("solve-d", "escalate-qd", "serve-family")

#: End-to-end metrics, every one reported by every workload: (name, unit).
END_TO_END = (("solve_s", "s"), ("warm_job_s", "s"), ("cold_job_s", "s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print setup_s, exit")
    return parser.parse_args(argv)


def fingerprint(args) -> dict:
    import numpy

    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unavailable ({type(exc).__name__})"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def _this_script(args, *extra) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--seed",
            str(args.seed), *extra]


def probe_setup(args) -> float:
    """setup_s of a fresh process: imports, inputs, and on serve-family
    pool spawn and member adoption."""
    done = subprocess.run(
        _this_script(args, "--workload", args.workload, "--setup-probe"),
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the worst exit."""
    return max(subprocess.run(
        _this_script(args, "--workload", name, "--seconds",
                     str(args.seconds), "--trace", str(args.trace)),
        cwd=ROOT).returncode for name in WORKLOAD_NAMES)


def latency_metrics(workload) -> dict:
    """solve_s, warm_job_s and cold_job_s from the untraced operations."""
    names = {"solve": "solve_s", "warm": "warm_job_s", "cold": "cold_job_s"}
    return {names[metric]: workload.tally.typical_seconds(kinds)
            for metric, kinds in workload.kinds().items()}


def trace_overhead(workload) -> float:
    """Traced over untraced time to roots, minus one, over the kinds that
    ran both ways in the traced run."""
    seconds = workload.tally.seconds
    kinds = [k for k in workload.kinds()["solve"]
             if k in seconds[False] and k in seconds[True]]
    return (workload.tally.typical_seconds(kinds, traced=True)
            / workload.tally.typical_seconds(kinds) - 1.0)


def describe_latencies(tally) -> list:
    """Each kind's sample count and raw seconds, and the host speed the
    metrics are rescaled by."""
    probes = tally.probes
    lines = [f"  host probe: n={len(probes)} "
             f"mean={statistics.mean(probes) * 1e3:.3f} ms "
             f"fastest={min(probes) * 1e3:.3f} ms "
             f"factor={tally.host_factor:.4f}"]
    for kind, values in sorted(tally.seconds[False].items()):
        lines.append(f"  {kind:<16} n={len(values):<4} "
                     f"mean={statistics.mean(values):.4f} s "
                     f"fastest={min(values):.4f} s "
                     f"median={statistics.median(values):.4f} s")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import PER_LAYER, hook_problems, layer_metrics
    from perfbench.workloads import WORKLOADS, rescaled_setup

    workload = WORKLOADS[args.workload](args.workload, args.seed,
                                        bool(args.trace))
    try:
        workload.setup()
        setup_s = rescaled_setup(time.perf_counter() - _T0)
        if not args.setup_probe:
            workload.measure(args.seconds)
    finally:
        workload.close()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    external = workload.finish()
    tally = workload.tally
    problems = []
    if args.trace:
        session = workload.session
        external["trace.overhead"] = trace_overhead(workload)
        traced_wall = sum(map(sum, tally.seconds[True].values()))
        metrics = layer_metrics(session.tracer.spans, session.units,
                                traced_wall, external)
        units = {name: unit for name, unit, _ in PER_LAYER}
        problems = hook_problems(session.tracer, args.workload,
                                 session.missing)
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = {**latency_metrics(workload),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mib": workload.peak_rss_mib}
        units = dict(END_TO_END)

    correct = tally.failed == 0 and not problems
    record = {"fingerprint": fingerprint(args), "correct": correct,
              "attempted": tally.attempted, "failed": tally.failed,
              "fail_frac": tally.fail_frac, "failures": tally.failures,
              "hook_problems": problems, "metrics": metrics,
              "setup_samples": [] if args.trace else setups,
              "samples": {kind: len(values) for kind, values
                          in tally.seconds[False].items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps(session.tracer.spans, separators=(",", ":")))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    print("\n".join(describe_latencies(tally)))
    for name, value in metrics.items():
        print(f"{name:<32} {value:.6g} {units[name]}")
    print(f"fail_frac {tally.failed}/{tally.attempted} = {tally.fail_frac:g}")
    for op, reasons in tally.failures.items():
        print(f"FAILED {op}: {'; '.join(reasons)}")
    for problem in problems:
        print(f"HOOK {problem}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
