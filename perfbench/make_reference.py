"""Regenerate reference.json, the answers run.py checks every request against.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py [--seeds FIRST-LAST] [--workload NAME ...]

Runs one untraced pass of each workload per seed and stores, per instance
file, the digest of each request's mathematical answer (run.canonical_answer)
together with the digest of the inputs.  The sample workload does not depend
on the seed and is stored once.  A process that writes no report is refused;
MISMATCH verdicts are recorded like any other answer and listed on standard
output, since run.py counts them as failed requests in any case.  Only
regenerate the file from a commit whose answers are trusted.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def reference_for(workload, seed, work):
    inputs = Path(tempfile.mkdtemp(dir=work))
    paths, digest = workloads.build(workload, seed, inputs)
    counts = {p.name: len(json.loads(p.read_text()).get("requests", [])) for p in paths}
    pas = run.run_pass(paths, counts, work, False, time.monotonic() + run.DEADLINE_S)
    problems = []
    _, _, wrong = run.check_pass(pas, None, {}, problems)
    if wrong:
        raise SystemExit(f"error: {workload} seed {seed}: " + "; ".join(problems[:5]))
    for line in problems:
        # Failed requests stay in: their answers are this commit's answers.
        print(f"{workload} seed {seed}: {line}", flush=True)
    answers = {
        rec["file"]: " ".join(run.answer_digest(run.canonical_answer(r)) for r in rec["results"])
        for rec in pas["files"]
    }
    shutil.rmtree(inputs, ignore_errors=True)
    return {"inputs": digest, "answers": answers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-30")
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WHY))
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root, prefix="reference-"))
    try:
        for workload in args.workload:
            entry = ref.setdefault(workload, {})
            for seed in [None] if workload == "sample" else seeds:
                entry["any" if seed is None else str(seed)] = reference_for(
                    workload, seed, work)
                print(f"{workload} seed {seed}: done", flush=True)
                run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
