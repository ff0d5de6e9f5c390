"""Benchmark: cold `multimult run` time-to-answer, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sample,koszul,counting,corpus}
                             --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  A pass runs every instance file
of the workload serially, each in a fresh process (``child.py``, which calls
``multimult.cli.main(["run", file, "--json", out])`` with ``src`` on the
path), the way a user's shell loop does.  Passes repeat for about
``--seconds``.  Each process gets a fresh, empty MULTIMULT_CACHE_DIR and only
the default CLI flags.  After each pass, ``probe.py`` times a fixed
computation that imports nothing from the program.  The end-to-end metrics
take each process, each request and the probe at its best over the run's
passes, and give times in units of the probe (see ``end_to_end``).

Every answer is checked.  A request fails if it raised, if its process
exited nonzero (then every request of that file fails), if it holds a
MISMATCH verdict or ``methods_agree: false``, or if its answer is wrong:
missing, or with mathematical fields that differ from ``reference.json``
(for a seed without reference, from the first pass of the run).  Wrong
answers make the run incorrect; the failed fraction is printed with its
base, and ``failed`` in the result counts the failed requests.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``layers.py``, the exact counters (asserted equal between traced passes)
and the tracing overhead.  Human-readable lines, with units and sample
counts, come first; the last line of standard output is one JSON object.
Working files, and the spans of a traced run, live in ``.perfbench_work/``
at the root of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
#: A run must end within 180 s: processes still running this long after the
#: start are killed, and their requests fail.
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_probes": "probes",
    "requests_per_probe": "1/probe",
    "request_p50_probes": "probes",
    "request_tail_probes": "probes",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics and their units.  Counts come from one traced pass (they
#: repeat exactly); self times are medians over the traced passes.
PER_LAYER_UNITS = {
    "monomials.arith.calls": "count",
    "monomials.arith.self_s": "s",
    "monomials.lru.hit_ratio": "ratio",
    "monomials.lru.entries": "count",
    "monomials.count.calls": "count",
    "monomials.count.self_s": "s",
    "monomials.count.monomials": "count",
    "hilbert.grid.evals": "count",
    "hilbert.grid.self_s": "s",
    "hilbert.fit.fits": "count",
    "hilbert.fit.windows": "count",
    "hilbert.fit.accept_ratio": "ratio",
    "hilbert.fit.self_s": "s",
    "reductions.certify.calls": "count",
    "reductions.certify.self_s": "s",
    "reductions.search.tried": "count",
    "reductions.search.found_ratio": "ratio",
    "multiplicity.symbol.calls": "count",
    "multiplicity.symbol.self_s": "s",
    "multiplicity.verify.self_s": "s",
    "koszul.direct.strands": "count",
    "koszul.direct.pieces": "count",
    "koszul.direct.band_doublings": "count",
    "koszul.direct.certified_ratio": "ratio",
    "koszul.rank.self_s": "s",
    "koszul.direct.self_s": "s",
    "koszul.difference.self_s": "s",
    "instances.parse_s": "s",
    "cli.report_s": "s",
    "reports.cache.writes": "count",
    "reports.cache.hits": "count",
    "trace.overhead_s": "s",
}

#: Metrics that rest on a private target of the program, reported as absent
#: once the target is renamed or removed.  (``hilbert._solve_exact`` runs
#: inside ``interpolate``, so the fit metrics survive its removal.)
NEEDS_TARGET = {
    "monomials.count.calls": "monomials._count_difference",
    "monomials.count.self_s": "monomials._count_difference",
    "monomials.count.monomials": "monomials._count_difference",
    "koszul.rank.self_s": "koszul._rank_exact",
}


# -- answers -----------------------------------------------------------------


def _mismatches(payload):
    if isinstance(payload, dict):
        own = payload.get("verdict") == "MISMATCH"
        return own + sum(_mismatches(v) for v in payload.values())
    if isinstance(payload, list):
        return sum(_mismatches(v) for v in payload)
    return 0


def _certificate(cert):
    return {"holds": cert["holds"], "witness": cert.get("witness")}


def _verdict(report):
    return [report["claim"], report["verdict"], report["left"], report["right"]]


def canonical_answer(result):
    """The mathematical fields of one request result.

    Schema details (``cache_hit``, ``diagnostics``, timing, provenance and
    ``schema_version``) are left out so that schema changes are not failures.
    """
    command = result["request"]["command"]
    if command == "hilbert":
        return {"coefficients": result["polynomial"]["coefficients"]}
    if command == "mixed":
        return {"value": result["value"], "defined": result["defined"]}
    if command == "verify-jr":
        return _certificate(result["certificate"])
    if command == "element-props":
        return {
            "filter_regular": result["filter_regular"],
            "rees_superficial": _certificate(result["rees_superficial"]),
            "weak_fc": result["weak_fc"],
        }
    if command == "mult-symbol":
        return {"value": result.get("value"), "defined": "error" not in result}
    if command == "chi":
        out = {"difference": result["difference"]["value"]}
        if "direct" in result:
            out["direct"] = result["direct"]["value"]
            out["band_certified"] = result["direct"]["band_certified"]
        return out
    if command == "verify-theorem":
        return _verdict(result["report"])
    if command == "verify-corollaries":
        return [_verdict(r) for r in result["reports"]]
    if command == "search-jr":
        return {"found": result["found"]}
    raise ValueError(f"unknown command {command!r}")


def answer_digest(answer):
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_reference(workload, seed):
    """The input digest and per-file answer digests for this workload and
    seed (see make_reference.py), or None."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload, {})
    return ref.get("any") or ref.get(str(seed))


# -- processes -----------------------------------------------------------------


def run_file(path, work, trace, deadline):
    """One cold process on one instance file; returns its raw record."""
    scratch = Path(tempfile.mkdtemp(dir=work))
    report = scratch / "report.json"
    result = scratch / "result.json"
    env = dict(os.environ, MULTIMULT_CACHE_DIR=str(scratch / "cache"))
    cmd = [sys.executable, str(HERE / "child.py"), str(path), str(report), str(result)]
    t0 = time.monotonic()
    cmd.append(repr(t0))
    if trace:
        cmd.append("--trace")
    with open(scratch / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "file": path.name,
        "scratch": scratch,
        "exit": proc.returncode,
        "wall": wall,
        "rss_mib": usage.ru_maxrss / 1024,
    }


def collect(raw, requests):
    """Read back what one process wrote; clean up its scratch directory."""
    scratch = raw.pop("scratch")
    rec = dict(raw, results=None, record={})
    try:
        rec["record"] = json.loads((scratch / "result.json").read_text())
    except (OSError, ValueError):
        pass
    try:
        rec["results"] = json.loads((scratch / "report.json").read_text())["results"]
    except (OSError, ValueError, KeyError):
        pass
    rec["stderr"] = (scratch / "stderr.txt").read_text(errors="replace")[-2000:]
    rec["n_requests"] = requests
    shutil.rmtree(scratch, ignore_errors=True)
    return rec


def run_pass(paths, counts, work, trace, deadline):
    started = time.monotonic()
    raws = [run_file(p, work, trace, deadline) for p in paths]
    wall = time.monotonic() - started
    probe = subprocess.run([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                           check=True, capture_output=True, text=True)
    return {"wall": wall, "trace": trace, "probe": float(probe.stdout),
            "files": [collect(r, counts[r["file"]]) for r in raws]}


# -- checks --------------------------------------------------------------------


def check_pass(pas, reference, first_answers, problems):
    """Mark each request of a pass ok or failed.

    Returns (attempted, failed, wrong).  A request fails when it raised, its
    process exited nonzero, it holds a MISMATCH verdict or ``methods_agree:
    false``, or its answer is wrong.  An answer is wrong when it is missing
    or differs from the reference (or, for a seed without reference, from
    the first pass); only wrong answers make the run incorrect, since a
    MISMATCH that the reference commit also reports is the program's answer.
    """
    attempted = failed = wrong = 0
    for rec in pas["files"]:
        n = rec["n_requests"]
        attempted += n
        results = rec["results"]
        name = rec["file"]
        if results is None or len(results) != n:
            errs = [r["error"] for r in rec["record"].get("requests", []) if "error" in r]
            problems.append(f"{name}: exit {rec['exit']}, no report: "
                            f"{errs or rec['stderr'][-300:]!r}")
            rec["ok"] = [False] * n
            failed += n
            wrong += n
            continue
        if rec["exit"] != 0:
            problems.append(f"{name}: exit {rec['exit']}, all {n} requests failed")
        expected = reference[name].split() if reference is not None else None
        ok = []
        for i, result in enumerate(results):
            try:
                answer = canonical_answer(result)
                digest = answer_digest(answer)
            except (KeyError, TypeError, ValueError) as exc:
                answer, digest = f"unreadable ({exc!r})", None
            seen = first_answers.setdefault((name, i), digest)
            right = digest == (expected[i] if expected is not None else seen)
            why = None
            if not right:
                why = f"wrong answer {answer}"
                wrong += 1
            elif _mismatches(result):
                why = "MISMATCH verdict"
            elif result.get("methods_agree") is False:
                why = "methods_agree is false"
            if why:
                problems.append(f"{name} request {i}: {why}")
            ok.append(why is None and rec["exit"] == 0)
            failed += not ok[-1]
        rec["ok"] = ok
    return attempted, failed, wrong


def tail(samples):
    """Latency at the highest percentile with at least ten samples beyond it,
    and never below p90 (with fewer than 100 samples, p90 has fewer beyond);
    returns (latency, percentile, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(n - 11, math.ceil(0.9 * n) - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


# -- metrics -------------------------------------------------------------------


def end_to_end(passes):
    """The end-to-end metrics of the untraced passes, each with a note on its
    samples, and the probe time, run time and set-up time of one pass.

    Every pass runs every file once and then ``probe.py``, so a run times
    each process, each request and the probe as many times as it has passes.
    On a shared host the slower repetitions measure the other tenants, so
    each is taken at its best over the run's passes, as ``timeit`` takes the
    best of its repeats.  Slow spells can outlast a whole run, though: on a
    2-vCPU Xeon VM the best of a 60-s run of the same code read up to half
    slower for minutes at a time.  So the times that the bounds compare are
    divided by the probe's best time in the same run, which such a spell
    slows alike and a change to the program leaves as it was:
    ``run_probes`` is the time to all answers in probe units.  The seconds
    are printed in the notes.  Set-up time is given in seconds."""
    walls, setups, latencies, answered = {}, {}, {}, {}
    rss = []
    for pas in passes:
        for rec in pas["files"]:
            name, record = rec["file"], rec["record"]
            _keep_best(walls, name, rec["wall"])
            if "t_parsed" in record:
                _keep_best(setups, name, record["t_parsed"] - record["t0"])
            rss.append(rec["rss_mib"])
            entries = record.get("requests", [])
            for i, ok in enumerate(rec["ok"]):
                key = (name, i)
                answered[key] = answered.get(key, True) and ok
                if i < len(entries):
                    _keep_best(latencies, key, entries[i]["seconds"])
    n = len(passes)
    probe = min(p["probe"] for p in passes)
    run_s = sum(walls.values())
    busy = sum(latencies.values())
    correct = sum(answered.values())
    rate = correct / busy if busy else 0.0
    p50 = statistics.median(latencies.values())
    best_tail, pct, beyond = tail(latencies.values())
    metrics = {
        "setup_s": (statistics.median(setups.values()),
                    f"median over {len(setups)} files of the best of {n} processes"),
        "run_probes": (run_s / probe, f"{run_s:.4f} s, sum over {len(walls)} files "
                                      f"of the best of {n} processes"),
        "requests_per_probe": (rate * probe, f"{rate:.4f} 1/s, {correct} requests correct in "
                                             f"all {n} passes / sum of {len(latencies)} "
                                             f"best-of-{n} latencies"),
        "request_p50_probes": (p50 / probe, f"{p50:.4f} s, median over {len(latencies)} "
                                            f"requests of the best of {n}"),
        "request_tail_probes": (best_tail / probe, f"{best_tail:.4f} s, p{pct:.1f} over "
                                                   f"{len(latencies)} requests of the best "
                                                   f"of {n}, {beyond} beyond"),
        "peak_rss_mb": (max(rss), f"max of {len(rss)} processes"),
    }
    return metrics, {"probe_s": probe, "run_s": run_s, "setup_s": sum(setups.values())}


def _keep_best(table, key, seconds):
    table[key] = min(seconds, table.get(key, seconds))


def child_seconds(pas, key):
    """Sum over one pass's processes of a time the child measured."""
    return sum(rec["record"].get(key, 0.0) for rec in pas["files"])


def layer_totals(pas):
    """Sum one traced pass's per-process aggregates."""
    layers, counts, missing = {}, {}, set()
    lru = {"hits": 0, "misses": 0, "entries": 0}
    for rec in pas["files"]:
        trace = rec["record"].get("trace")
        if trace is None:
            continue
        for layer, (calls, self_s) in trace["layers"].items():
            slot = layers.setdefault(layer, [0, 0.0])
            slot[0] += calls
            slot[1] += self_s
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key in lru:
            lru[key] += trace["lru"][key]
        missing.update(trace["missing"])
    return {"layers": layers, "counts": counts, "lru": lru, "missing": sorted(missing)}


def _ratio(num, base):
    return num / base if base else 0.0


def per_layer(traced, untraced):
    totals = [layer_totals(p) for p in traced]
    first = totals[0]
    counts, lru, layers = first["counts"], first["lru"], first["layers"]

    def self_s(layer):
        return statistics.median(t["layers"].get(layer, [0, 0.0])[1] for t in totals)

    def calls(layer):
        return layers.get(layer, [0, 0.0])[0]

    fits, windows = counts["hilbert.fit.fits"], counts["hilbert.fit.windows"]
    searches = counts["reductions.search.calls"]
    directs = counts["koszul.direct.calls"]
    metrics = {
        "monomials.arith.calls": calls("monomials.arith"),
        "monomials.arith.self_s": self_s("monomials.arith"),
        "monomials.lru.hit_ratio": _ratio(lru["hits"], lru["hits"] + lru["misses"]),
        "monomials.lru.entries": lru["entries"],
        "monomials.count.calls": calls("monomials.count"),
        "monomials.count.self_s": self_s("monomials.count"),
        "monomials.count.monomials": counts["monomials.count.monomials"],
        "hilbert.grid.evals": counts["hilbert.grid.evals"],
        "hilbert.grid.self_s": self_s("hilbert.grid"),
        "hilbert.fit.fits": fits,
        "hilbert.fit.windows": windows,
        "hilbert.fit.accept_ratio": _ratio(fits, windows),
        "hilbert.fit.self_s": self_s("hilbert.fit"),
        "reductions.certify.calls": calls("reductions.certify"),
        "reductions.certify.self_s": self_s("reductions.certify"),
        "reductions.search.tried": counts["reductions.search.tried"],
        "reductions.search.found_ratio": _ratio(counts["reductions.search.found"], searches),
        "multiplicity.symbol.calls": calls("multiplicity.symbol"),
        "multiplicity.symbol.self_s": self_s("multiplicity.symbol"),
        "multiplicity.verify.self_s": self_s("multiplicity.verify"),
        "koszul.direct.strands": counts["koszul.direct.strands"],
        "koszul.direct.pieces": counts["koszul.direct.pieces"],
        "koszul.direct.band_doublings": counts["koszul.direct.band_doublings"],
        "koszul.direct.certified_ratio": _ratio(counts["koszul.direct.certified"], directs),
        "koszul.rank.self_s": self_s("koszul.rank"),
        "koszul.direct.self_s": self_s("koszul.direct"),
        "koszul.difference.self_s": self_s("koszul.difference"),
        "instances.parse_s": statistics.median(child_seconds(p, "parse_s") for p in untraced),
        "cli.report_s": statistics.median(child_seconds(p, "report_s") for p in untraced),
        "reports.cache.writes": counts["reports.cache.writes"],
        "reports.cache.hits": counts["reports.cache.hits"],
        "trace.overhead_s": statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in untraced),
    }
    for metric, target in NEEDS_TARGET.items():
        if target in first["missing"]:
            del metrics[metric]
    bases = {
        "monomials.lru.hit_ratio": f"base {lru['hits'] + lru['misses']} lookups",
        "hilbert.fit.accept_ratio": f"base {windows} windows",
        "reductions.search.found_ratio": f"base {searches} searches",
        "koszul.direct.certified_ratio": f"base {directs} direct calls",
    }
    return metrics, bases, totals


def exact_signature(total):
    """Everything in a traced pass that must repeat exactly."""
    calls = {layer: v[0] for layer, v in total["layers"].items()}
    return {"counts": total["counts"], "lru": total["lru"], "calls": calls}


def provenance():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def warm_up():
    """Compile the program's and the tracer's bytecode before timing: a user
    pays that once, not on every run."""
    code = "import sys; sys.path[:0] = ['src', 'perfbench']; import multimult.cli, layers"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    args = parse_args(argv)
    if not (ROOT / "src" / "multimult" / "cli.py").is_file():
        print(f"error: no program to run: {ROOT / 'src/multimult/cli.py'} is missing",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root, prefix=f"{args.workload}-"))
    try:
        return measure(args, work, work_root, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work, work_root, deadline):
    inputs = work / "inputs"
    inputs.mkdir()
    paths, input_digest = workloads.build(args.workload, args.seed, inputs)
    counts = {p.name: len(json.loads(p.read_text()).get("requests", [])) for p in paths}
    reference = load_reference(args.workload, args.seed)
    problems = []
    # The generator only certifies candidates, so a correct program always
    # writes the reference inputs.
    inputs_differ = reference is not None and reference["inputs"] != input_digest
    if inputs_differ:
        problems.append(f"inputs differ from the reference inputs of seed {args.seed}")
    warm_up()

    passes = []
    started = time.monotonic()
    while True:
        if args.trace:
            traced = sum(p["trace"] for p in passes)
            untraced = len(passes) - traced
            trace_next = traced < 2 and untraced >= 1 or traced < untraced
        else:
            trace_next = False
        passes.append(run_pass(paths, counts, work, trace_next, deadline))
        # Start another pass only if at least half of it fits in --seconds,
        # so that a run lasts --seconds on average rather than overrunning.
        done = time.monotonic() - started + passes[-1]["wall"] / 2 >= args.seconds
        if args.trace:
            traced = sum(p["trace"] for p in passes)
            done = done and traced >= 2 and len(passes) - traced >= 1
        if done or time.monotonic() >= deadline:
            break

    first_answers = {}
    expected = reference["answers"] if reference is not None and not inputs_differ else None
    attempted = failed = wrong = 0
    for pas in passes:
        a, f, w = check_pass(pas, expected, first_answers, problems)
        attempted += a
        failed += f
        wrong += w
    if inputs_differ:
        failed = wrong = attempted
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    if args.trace and not traced:
        print("error: no traced pass ended before the deadline", file=sys.stderr)
        return 1
    answers = hashlib.sha256(json.dumps(sorted(first_answers.items())).encode()).hexdigest()

    prov = provenance()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {workloads.WHY[args.workload]}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# inputs: {len(paths)} files, {sum(counts.values())} requests/pass, "
          f"sha256 {input_digest[:16]}; answers sha256 {answers[:16]}; "
          f"reference {'checked' if reference is not None else 'absent: passes compared'}")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"attempted {attempted}, failed {failed}, wrong answers {wrong}")
    repeats = {}
    for line in problems:
        repeats[line] = repeats.get(line, 0) + 1
    for line, times in list(repeats.items())[:20]:
        print(f"! {line}" + (f" (in {times} passes)" if times > 1 else ""))
    e2e, one_pass = end_to_end(untraced)
    print(f"# probe: best of {len(untraced)} passes {one_pass['probe_s']:.4f} s; "
          "a time in probes is its seconds / this")
    print(f"{'failed_frac':<32} {_ratio(failed, attempted):>14.6f} ratio   "
          f"base {attempted} attempted requests")
    correct = wrong == 0
    if args.trace:
        metrics, notes, totals = per_layer(traced, untraced)
        signatures = [exact_signature(t) for t in totals]
        if any(s != signatures[0] for s in signatures[1:]):
            correct = False
            print("! exact counters differ between traced passes")
        summarize_layers(totals[0], one_pass["run_s"], one_pass["setup_s"])
        units = PER_LAYER_UNITS
        missing = sorted(set(PER_LAYER_UNITS) - set(metrics))
        if missing:
            print(f"# absent (target missing from the program): {', '.join(missing)}")
        spans = work_root / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({
            "provenance": prov,
            "passes": [
                {"wall": p["wall"], "files": {r["file"]: r["record"].get("trace")
                                              for r in p["files"]}}
                for p in traced
            ],
        }))
        print(f"# spans (aggregated per request and layer): {spans.relative_to(ROOT)}")
    else:
        metrics = {k: v for k, (v, _) in e2e.items()}
        notes = {k: n for k, (_, n) in e2e.items()}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:<32} {value:>14.6f} {units[name]:<6}  {notes.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def summarize_layers(total, run_s, per_pass):
    """Print what confirms each workload's purpose: self-time shares by layer
    and by module, the set-up share of run_s, and the direct Koszul counts."""
    layers = {layer: self_s for layer, (_, self_s) in total["layers"].items()}
    spent = sum(layers.values()) or 1.0
    modules = {}
    for layer, self_s in layers.items():
        module = layer.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s

    def shares(table):
        ranked = sorted(table.items(), key=lambda kv: -kv[1])
        return ", ".join(f"{k} {100 * v / spent:.1f}%" for k, v in ranked[:5])

    print(f"# self time of one traced pass: {spent:.3f} s; by layer: {shares(layers)}")
    print(f"# self time by module: {shares(modules)}")
    print(f"# set-up per untraced pass {per_pass:.3f} s = {100 * per_pass / run_s:.1f}% "
          f"of run_s {run_s:.3f} s")
    direct = {k: v for k, v in total["counts"].items() if k.startswith("koszul.direct.")}
    print(f"# koszul.direct counts: {direct}")


if __name__ == "__main__":
    sys.exit(main())
