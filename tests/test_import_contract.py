"""The import contract: a solve imports only the modules it runs.

Each check starts a fresh interpreter and reads ``sys.modules``; nothing
is timed.  ``repro``, ``repro.core`` and ``repro.bench`` export their
names lazily, and the simulated device with its cost model loads only
where something prices or simulates.  When a check fails,
``make importtime`` names the module that pulled the rest in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

_PROBE = """\
import json, sys

def _loaded():
    return {{name for name in sys.modules if name.partition(".")[0] == "repro"}}

{prelude}
_before = _loaded()
{code}
print(json.dumps(sorted(_loaded() - _before)))
"""


def loaded_by(code: str, prelude: str = "") -> list:
    """The ``repro`` modules a fresh interpreter loads while it runs
    ``code``, after it has run ``prelude``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(prelude=prelude, code=code)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def under(modules, *packages):
    """The modules that are ``packages`` or lie beneath one of them."""
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


def test_import_repro_loads_no_subpackage():
    assert loaded_by("import repro") == ["repro", "repro._lazy"]


def test_tracking_loads_no_simulator_bench_or_service():
    modules = loaded_by("import repro.tracking")
    assert under(modules, "repro.gpusim", "repro.bench", "repro.service") == []
    assert under(modules, "repro.core") == [
        "repro.core", "repro.core.batch", "repro.core.evalplan",
        "repro.core.tape"]


def test_service_loads_no_simulator_or_bench():
    modules = loaded_by("import repro.service")
    assert "repro.service.sharded" in modules
    assert under(modules, "repro.gpusim", "repro.bench") == []
    assert under(modules, "repro.core") == [
        "repro.core", "repro.core.batch", "repro.core.evalplan",
        "repro.core.tape"]


def test_scenario_registry_loads_only_itself_and_the_systems():
    modules = loaded_by("import repro.bench.scenarios")
    assert under(modules, "repro.bench") == ["repro.bench",
                                             "repro.bench.scenarios"]
    assert under(modules, "repro.core", "repro.tracking", "repro.gpusim",
                 "repro.service") == []


def test_a_solve_imports_nothing_past_the_tracking_package():
    code = """
from repro.polynomials import katsura_system
from repro.tracking import EscalationPolicy, TrackerOptions, solve_system

assert solve_system(katsura_system(3)).solutions
escalated = solve_system(katsura_system(3), escalation=EscalationPolicy(),
                         options=TrackerOptions(end_tolerance=1e-40))
assert escalated.contexts_used == ["d", "dd", "qd"], escalated.contexts_used
"""
    assert loaded_by(code, prelude="import repro.tracking") == []
