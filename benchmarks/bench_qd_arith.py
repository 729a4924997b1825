"""Compiled dd/qd arithmetic benchmark: per-op speedups + qd lane throughput.

The compiled plane kernels (``repro.multiprec.compiled``, source
``_kernels.c``) replay the exact floating-point sequences of the NumPy
reference chains of ``repro.multiprec.qdarray`` / ``ddarray``.  This
benchmark reports

* per-operation ns/element, compiled vs reference, at batch 8, 64 and 256
  (the two paths are bit-for-bit identical, so the ratio is pure execution
  cost), and whether the kernels were loaded at all;
* end-to-end wall-clock qd ``BatchTracker`` throughput (paths/sec and
  lane-evaluations/sec) at narrow and wide batches, with the speedup over
  the checked-in ``BENCH_batch_tracking.json`` qd baseline.

Run as a script: ``python benchmarks/bench_qd_arith.py [--json PATH]``.
``tools/check_bench.py`` enforces the speedup floors over the JSON report.
"""

from __future__ import annotations

import argparse
import json

from repro.bench.qd_arith import (
    ARITH_BATCHES,
    qd_arith_report,
    run_qd_arith_bench,
    run_qd_tracker_bench,
)
from repro.bench.reporting import format_table

TRACKER_BATCHES = (8, 64)


def sweep(arith_batches=ARITH_BATCHES, tracker_batches=TRACKER_BATCHES):
    arith_rows = run_qd_arith_bench(batch_sizes=arith_batches)
    tracker_rows = run_qd_tracker_bench(batch_sizes=tracker_batches)
    return arith_rows, tracker_rows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON to PATH")
    json_path = parser.parse_args().json

    arith_rows, tracker_rows = sweep()
    print(format_table([r.as_dict() for r in arith_rows],
                       title="compiled vs reference qd/dd batch arithmetic"))
    print(format_table([r.as_dict() for r in tracker_rows],
                       title="qd BatchTracker wall-clock throughput (dim 3)"))
    report = qd_arith_report(arith_rows, tracker_rows)
    print(f"-> kernels loaded: {report['kernels_loaded']}")
    if "baseline_qd_paths_per_s_wall" in report:
        print(f"-> checked-in qd baseline: "
              f"{report['baseline_qd_paths_per_s_wall']:.3f} paths/s wall")
    if "wall_speedup_vs_baseline_at_batch_64" in report:
        print(f"-> wall speedup vs baseline at batch >= 64: "
              f"{report['wall_speedup_vs_baseline_at_batch_64']:.1f}x")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
