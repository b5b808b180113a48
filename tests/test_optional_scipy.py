"""``import repro`` and a simulation run must not need scipy.

scipy is an optional dependency (``pyproject.toml`` declares only numpy
for the package): only the set-associative survival curve and the
Markov stationary distribution use it, and they import it on call.
The check runs in a fresh interpreter because this one has usually
imported scipy already.
"""

import os
import subprocess
import sys

_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError

import repro
from repro import Machine, Runtime, ULTRA1
from repro.sched.fcfs import FCFSScheduler
from repro.threads import Compute, Touch

machine = Machine(ULTRA1, seed=0)
runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
state = runtime.alloc_lines("state", 64)

def worker():
    for _ in range(3):
        yield Touch(state.lines())
        yield Compute(100)

runtime.at_create(worker, name="worker")
runtime.run()
assert machine.total_l2_misses() > 0
print("ok")
"""


def test_import_and_run_without_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
