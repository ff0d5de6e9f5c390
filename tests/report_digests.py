"""Digests of the `multimult run` reports on a fixed set of 136 instance files.

Usage, from the root of a checkout:

    python3 tests/report_digests.py > digests.txt

The files are written by ``perfbench/workloads.build`` into a temporary
directory:

- the shipped sample, and the sample with every ``chi`` set to direct;
- the ``counting``, ``koszul`` and ``corpus`` files for seeds 1 and 2;
- the corpus files for seeds 1 and 2 with every ``chi`` set to direct.

Each file is run in this process by ``multimult.cli.main``, and one line per
file is printed: its name, the exit code and the sha256 of the report
without ``timing_seconds``.  Two checkouts give the same lines exactly when
their reports agree byte for byte apart from the timing, so the outputs of
two checkouts are compared with ``diff``.  The run takes a few seconds.
pytest does not collect this file: its name does not start with
``test_``.

``tests/data/report_digests.txt`` holds these lines for the current code,
and ``tests/test_report_digests.py`` recomputes them in the suite.  A change
that alters a report re-pins that file with

    python3 tests/report_digests.py > tests/data/report_digests.txt

and says which reports changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from multimult.cli import main  # noqa: E402

#: (workload, seed, every chi direct); the sample takes no seed.
FILE_SETS = (
    ("sample", 1, False),
    ("sample", 1, True),
    *((workload, seed, False) for workload in ("counting", "koszul", "corpus") for seed in (1, 2)),
    ("corpus", 1, True),
    ("corpus", 2, True),
)


def set_direct(path: Path) -> None:
    doc = json.loads(path.read_text())
    for req in doc["requests"]:
        if req["command"] == "chi":
            req["direct"] = True
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def digest(path: Path, report: Path) -> str:
    """The exit code of the run of `path` and the sha256 of its report
    without ``timing_seconds``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(path), "--json", str(report)])
    doc = json.loads(report.read_text())
    doc.pop("timing_seconds")
    rendered = json.dumps(doc, indent=2, sort_keys=True)
    return f"{code} {hashlib.sha256(rendered.encode()).hexdigest()}"


def digests():
    """One line per file, in the order of ``FILE_SETS``: its name and its
    ``digest``."""
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, direct in FILE_SETS:
            label = workload if workload == "sample" else f"{workload}-{seed}"
            label += "-direct" if direct else ""
            directory = Path(tmp) / label
            directory.mkdir()
            paths, _ = workloads.build(workload, seed, directory)
            for path in paths:
                if direct:
                    set_direct(path)
                yield f"{label}/{path.name} {digest(path, Path(tmp) / 'report.json')}"


def run() -> int:
    count = 0
    for line in digests():
        print(line, flush=True)
        count += 1
    print(f"{count} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
