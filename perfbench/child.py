"""One cold `multimult run` process, timed at the cli boundary.

Usage (from the root of a checkout, started by run.py):

    python3 perfbench/child.py INSTANCE REPORT RESULT T0 [--trace]

Runs ``multimult.cli.main(["run", INSTANCE, "--json", REPORT])`` exactly as
``python -m multimult.cli`` would, with ``src`` on the path.  Before that it
wraps ``cli.parse_instance``, ``cli.run_request`` and ``cli.run_instance``
from outside to record when the instance was parsed, how long each request
took, and how long the report took to render and write.  T0 is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time counts interpreter start-up, ``import multimult`` and parsing.

With ``--trace`` it also installs the layer wrappers of ``layers.py``.  The
timings (and trace aggregates) go to RESULT as JSON, written even when the
run raises, and the process exits with the code ``cli.main`` returned.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    instance, report, result_path, t0 = argv[:4]
    tracing = "--trace" in argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from multimult import cli

    record = {"t0": float(t0), "requests": []}
    tracer = None
    if tracing:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    parse = cli.parse_instance
    run_request = cli.run_request
    run_instance = cli.run_instance

    def timed_parse(*args, **kwargs):
        started = time.monotonic()
        inst = parse(*args, **kwargs)
        record["t_parsed"] = time.monotonic()
        record["parse_s"] = record["t_parsed"] - started
        return inst

    def timed_request(inst, req, *args, **kwargs):
        entry = {"index": len(record["requests"]), "command": req.get("command")}
        record["requests"].append(entry)
        if tracer is not None:
            tracer.begin_request(entry["index"])
        started = time.perf_counter()
        try:
            return run_request(inst, req, *args, **kwargs)
        except BaseException as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            entry["seconds"] = time.perf_counter() - started
            if tracer is not None:
                tracer.end_request()

    def timed_instance(*args, **kwargs):
        doc = run_instance(*args, **kwargs)
        record["t_answered"] = time.monotonic()
        return doc

    cli.parse_instance = timed_parse
    cli.run_request = timed_request
    cli.run_instance = timed_instance
    code = 1
    try:
        code = cli.main(["run", instance, "--json", report])
        if "t_answered" in record:
            record["report_s"] = time.monotonic() - record["t_answered"]
    finally:
        record["exit"] = code
        if tracer is not None:
            record["trace"] = tracer.summary()
        with open(result_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
