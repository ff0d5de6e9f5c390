"""Command-line driver: run the requests of an instance file and report.

Usage:
    multimult run <file> [--json out.json]

Requests run serially, in file order.  A request that raises inside the
engine is recorded as {"request": ..., "failure": {"type", "message"}}, its
traceback goes to stderr, and the run goes on with the next request.

Exit codes: 0 when every request ran and no verified claim produced a
MISMATCH verdict, 1 when any did, 2 on usage or parse errors and on a file
that cannot be read (or is not UTF-8) or a report that cannot be written,
and 3 when a request failed and no MISMATCH was found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .hilbert import MultiDegree, interpolate, mixed_multiplicity
from .instances import InstanceFile, InstanceParseError, parse_instance, request_args
from .koszul import euler_char_direct, euler_char_via_difference
from .multiplicity import (
    NotMultiplicitySystemError,
    mult_symbol,
    verify_corollaries,
    verify_theorem_recursion,
)
from .reductions import J_SOURCE, is_filter_regular, is_rees_superficial, search_joint_reduction
from .reports import (
    SCHEMA_VERSION,
    certificate_payload,
    poly_payload,
    report_payload,
)


def run_request(inst: InstanceFile, req: dict) -> dict:
    """Execute one request on the arguments ``request_args`` makes of it and
    return its deterministic result payload."""
    fam = inst.family
    command = req["command"]
    args = request_args(req, "request", inst.variables, fam, inst.ideal_names, inst.candidates)
    out = {"request": req}

    if command == "hilbert":
        fit = interpolate(fam, *args)
        out["polynomial"] = poly_payload(fit.poly)
        out["table"] = {"base": [fit.base] * (fam.d + 1), "values": fit.values.tolist()}
        out["provenance"] = fit.provenance()
    elif command == "mixed":
        value, defined = mixed_multiplicity(fam, *args)
        fit = interpolate(fam, "P")
        out["value"] = str(value)
        out["defined"] = defined
        out["provenance"] = fit.provenance()
    elif command == "verify-jr":
        out["certificate"] = certificate_payload(inst.datum(*args).certificate)
    elif command == "element-props":
        mono, idx = args
        superficial = is_rees_superficial(fam, mono, idx)
        filter_reg = is_filter_regular(fam, mono)
        out["filter_regular"] = filter_reg
        out["rees_superficial"] = certificate_payload(superficial)
        out["weak_fc"] = filter_reg and superficial.holds
    elif command == "mult-symbol":
        (name,) = args
        cand = inst.candidates[name]
        try:
            out["value"] = mult_symbol(fam.module, list(cand.monomials()))
        except NotMultiplicitySystemError as exc:
            out["error"] = str(exc)
    elif command == "chi":
        name, run_direct = args
        datum = inst.datum(name)
        diff = euler_char_via_difference(datum)
        out["difference"] = {"value": diff.value, "provenance": diff.provenance}
        if run_direct:
            base = interpolate(fam, "P").base
            direct = euler_char_direct(datum, MultiDegree(base, (base,) * fam.d))
            out["direct"] = {
                "value": direct.value,
                "provenance": direct.provenance,
                "band_certified": direct.certified,
            }
            out["methods_agree"] = (not direct.certified) or direct.value == diff.value
    elif command == "verify-theorem":
        name, idx = args
        out["report"] = report_payload(verify_theorem_recursion(inst.datum(name), idx))
    elif command == "verify-corollaries":
        name, idx = args
        out["reports"] = [report_payload(r) for r in verify_corollaries(inst.datum(name), idx)]
    elif command == "search-jr":
        cand = search_joint_reduction(fam, *args)
        if cand is None:
            out["found"] = None
        else:
            out["found"] = [
                {
                    "monomial": str(u),
                    "source": "J" if s == J_SOURCE else inst.ideal_names[s],
                }
                for u, s in cand.elements
            ]
    return out


def _count_mismatches(payload) -> int:
    if isinstance(payload, dict):
        total = sum(_count_mismatches(v) for v in payload.values())
        if payload.get("verdict") == "MISMATCH":
            total += 1
        return total
    if isinstance(payload, list):
        return sum(_count_mismatches(v) for v in payload)
    return 0


def run_instance(inst: InstanceFile) -> dict:
    """Run every request, in order, and assemble the report document."""
    started = time.monotonic()
    results = []
    for req in inst.requests:
        try:
            results.append(run_request(inst, req))
        except Exception as exc:
            # Imported here: a run without failures never needs it.
            import traceback

            traceback.print_exc(file=sys.stderr)
            failure = {"type": type(exc).__name__, "message": str(exc)}
            results.append({"request": req, "failure": failure})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": inst.raw,
        "results": results,
        "mismatch_count": _count_mismatches(results),
        "timing_seconds": round(time.monotonic() - started, 3),
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="multimult", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")
    runp = sub.add_parser("run", help="run the requests of an instance file")
    runp.add_argument("file")
    runp.add_argument("--json", dest="json_out", metavar="OUT")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error.
        return exc.code
    if args.subcommand != "run":
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        inst = parse_instance(text, name=args.file)
    except InstanceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        # Checked before the run, without creating the file: a report that
        # cannot be written would cost the whole run.
        if os.path.isdir(args.json_out):
            print(f"error: cannot write {args.json_out}: it is a directory", file=sys.stderr)
            return 2
        directory = os.path.dirname(os.path.abspath(args.json_out))
        if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
            print(f"error: cannot write {args.json_out}: {directory} is not a writable "
                  "directory", file=sys.stderr)
            return 2
    doc = run_instance(inst)
    rendered = json.dumps(doc, indent=2, sort_keys=True)
    if args.json_out:
        try:
            with open(args.json_out, "w") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(rendered)
    if doc["mismatch_count"]:
        return 1
    return 3 if any("failure" in r for r in doc["results"]) else 0


if __name__ == "__main__":
    sys.exit(main())
