"""The start-up policy of `import multimult`, checked in fresh interpreters.

Importing the package defaults OPENBLAS_NUM_THREADS to 1, so that numpy's
OpenBLAS starts no worker threads, and freezes the objects made while
`multimult.monomials` and numpy import, leaving the cyclic collector as the
caller had it.  The import compiles no generated source text.  This process imported numpy long ago,
so every test runs a fresh `sys.executable` with OPENBLAS_NUM_THREADS removed
from its environment (or set by the test).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "docs" / "instances" / "dim4_joint_reduction.json"
PINNED = ROOT / "tests" / "data" / "dim4_report.json"

#: Prints, after `import multimult`, what the policy sets.
STATE = """
import gc, json, os, sys
{before}
try:
    import multimult
    imported = True
except ImportError:
    imported = False
task = "/proc/self/task"
print(json.dumps({{
    "imported": imported,
    "gc_enabled": gc.isenabled(),
    "frozen": gc.get_freeze_count(),
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""

#: A meta-path finder that makes `multimult.monomials` fail to import.
FAIL_MONOMIALS = """
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "multimult.monomials":
            raise ImportError("refused by the test")
        return None
sys.meta_path.insert(0, Refuse())
"""

#: Top-level names of the non-stdlib modules that `import multimult.cli`
#: adds over a bare interpreter (whose `site` may import packages of its own).
COLD_IMPORTS = """
import json, sys
bare = set(sys.modules)
import multimult.cli
added = {name.split(".")[0] for name in set(sys.modules) - bare}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""

#: After numpy, records each `exec` of a code object that comes from no file
#: (source text compiled at run time) while `multimult.cli` imports, and
#: which of two modules that would compile such text got imported.
GENERATED_CODE = """
import json, os, sys
import numpy
execs = []
def hook(event, args):
    if event == "exec":
        name = getattr(args[0], "co_filename", None)
        if not (isinstance(name, str) and os.path.isfile(name)):
            execs.append(name)
sys.addaudithook(hook)
import multimult.cli
print(json.dumps({"execs": execs,
                  "loaded": [m for m in ("dataclasses", "traceback") if m in sys.modules]}))
"""


def python(*args, blas_threads=None):
    """Run a fresh interpreter with `src` on its path."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def state(before="", blas_threads=None):
    proc = python("-c", STATE.format(before=before), blas_threads=blas_threads)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def needs_proc_task():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")


class TestStartupPolicy:
    def test_collector_enabled_and_import_heap_frozen(self):
        seen = state()
        assert seen["imported"]
        assert seen["gc_enabled"]
        assert seen["frozen"] > 0

    def test_collector_left_off_when_the_caller_disabled_it(self):
        seen = state(before="gc.disable()")
        assert seen["imported"]
        assert not seen["gc_enabled"]
        assert seen["frozen"] > 0

    def test_failed_import_leaves_collector_enabled(self):
        seen = state(before=FAIL_MONOMIALS)
        assert not seen["imported"]
        assert seen["gc_enabled"]

    def test_blas_defaults_to_one_thread(self):
        needs_proc_task()
        seen = state()
        assert seen["blas_threads"] == "1"
        assert seen["threads"] == 1

    def test_preset_blas_threads_are_kept(self):
        needs_proc_task()
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS caps its threads at the usable cores")
        seen = state(blas_threads="2")
        assert seen["blas_threads"] == "2"
        assert seen["threads"] == 2


def test_cold_path_imports_only_multimult_and_numpy():
    proc = python("-c", COLD_IMPORTS)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {"multimult", "numpy"}


def test_cold_import_compiles_no_generated_code():
    # Generated classes (dataclasses, namedtuple) exec source text on every
    # start; the records are written out and traceback is imported on failure.
    proc = python("-c", GENERATED_CODE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"execs": [], "loaded": []}


@pytest.mark.parametrize("blas_threads", [None, "2"], ids=["blas-unset", "blas-2"])
def test_fresh_process_report_is_pinned(tmp_path, blas_threads):
    out_path = tmp_path / "report.json"
    proc = python(
        "-m", "multimult.cli", "run", str(SAMPLE), "--json", str(out_path),
        blas_threads=blas_threads,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out_path.read_text())
    report.pop("timing_seconds")
    assert report == json.loads(PINNED.read_text())
