"""Acceptance suite: one printed pass/fail line per criterion.

Every check is exact — all tolerances are zero.  Lines are written to the
real stdout so they appear even under pytest capture.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corpus import (
    all_primary_small,
    build_corpus,
    dim4_candidates,
    dim4_family,
    direct_chi_instances,
    recursion_instances,
)
from oracles import hilbert_samuel, is_multiplicity_system
from multimult.hilbert import (
    MixedType,
    MultiDegree,
    interpolate,
    mixed_multiplicity,
    table_on_window,
)
from multimult.koszul import euler_char_direct, euler_char_via_difference
from multimult.monomials import MINUS_INFINITY, ideal
from multimult.multiplicity import (
    Verdict,
    height_hypothesis,
    mult_symbol,
    verify_cor_filter_regular,
    verify_cor_height,
    verify_cor_sop,
    verify_cor_transition,
    verify_rees_mprimary,
    verify_theorem_recursion,
)
from multimult.reductions import (
    ReesDatum,
    is_system_of_parameters,
    verify_joint_reduction,
)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def announce(capfd):
    """Print one criterion line on the real terminal, bypassing capture."""

    def _line(number: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {number}: {status} — {detail}", flush=True)

    return _line


def _hyps_hold(report) -> bool:
    return all(ok for _, ok in report.hypotheses)


def _nonzero(*sides) -> bool:
    """Whether a check compares anything but zeros."""
    return any(side != 0 for side in sides)


def test_criterion_1_four_variable_instance(announce):
    started = time.monotonic()
    fam = dim4_family()
    cand_x, cand_z = dim4_candidates()
    problems = []

    if not verify_joint_reduction(fam, cand_x).holds:
        problems.append("candidate x fails to certify")
    if not verify_joint_reduction(fam, cand_z).holds:
        problems.append("candidate z fails to certify")

    value, defined = mixed_multiplicity(fam, MixedType(2, (0, 1)))
    if (value, defined) != (0, True):
        problems.append(f"mixed multiplicity {value} (defined={defined}), expected 0")

    ex = mult_symbol(fam.module, list(cand_x.monomials()))
    ez = mult_symbol(fam.module, list(cand_z.monomials()))
    # e(z) is the product of the degrees of the regular sequence
    # x3, x1^2, x2^2, x4^2, i.e. 1*2*2*2 = 8, cross-checked below against the
    # independent length count of A/(x3, x1^2, x2^2, x4^2).
    ez_box = fam.module.quotient_by(ideal(fam.ctx, [u.exponents for u in cand_z.monomials()])).length()
    if ex != 1:
        problems.append(f"symbol of x is {ex}, expected 1")
    if ez != 8 or ez_box != 8:
        problems.append(f"symbol of z is {ez} (length check {ez_box}), expected 8")
    if not (value < ex and ex != ez):
        problems.append("expected 0 < e(x) and e(x) != e(z)")

    transition = verify_cor_transition(ReesDatum(fam, cand_x))
    if not (transition.left == transition.right == 0 and transition.verdict == Verdict.EQUAL):
        problems.append("saturated-quotient comparison did not give 0 = 0")

    elapsed = time.monotonic() - started
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")

    ok = not problems
    announce(1, ok, f"4-variable instance reproduced in {elapsed:.1f}s"
          if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_2_recursion_corpus(announce):
    instances = recursion_instances()
    mismatches = []
    holds = 0
    nonzero = 0
    for inst in instances:
        report = verify_theorem_recursion(ReesDatum(inst.fam, inst.cand), inst.recursion_axis)
        nonzero += _nonzero(report.left, report.right)
        if report.verdict == Verdict.MISMATCH:
            mismatches.append(inst.label)
        elif _hyps_hold(report) and report.verdict == Verdict.EQUAL:
            holds += 1
    ok = len(instances) >= 50 and not mismatches and holds >= 50
    announce(2, ok,
          f"recursion exact on {holds}/{len(instances)} certified instances "
          f"({nonzero} compare nonzero values), 0 mismatches"
          if ok else f"mismatches={mismatches}, corpus={len(instances)}, exact={holds}")
    assert ok, (len(instances), holds, mismatches)


def test_criterion_3_euler_characteristic_identity(announce):
    failures = []
    nonzero_diff = 0
    for inst in build_corpus():
        datum = ReesDatum(inst.fam, inst.cand)
        diff = euler_char_via_difference(datum)
        value, _ = mixed_multiplicity(inst.fam, inst.mixed_type)
        nonzero_diff += _nonzero(diff.value, value)
        if diff.value != value:
            failures.append(f"{inst.label}: difference {diff.value} != {value}")
    certified = 0
    nonzero_direct = 0
    for inst in direct_chi_instances():
        datum = ReesDatum(inst.fam, inst.cand)
        diff = euler_char_via_difference(datum)
        base = interpolate(inst.fam, "P").base
        direct = euler_char_direct(
            datum, MultiDegree(base, (base,) * inst.fam.d)
        )
        if direct.certified:
            certified += 1
            nonzero_direct += _nonzero(direct.value, diff.value)
            if direct.value != diff.value:
                failures.append(f"{inst.label}: direct {direct.value} != {diff.value}")
    ok = not failures and certified >= 10
    announce(3, ok,
          f"difference identity exact on {len(build_corpus())} instances "
          f"({nonzero_diff} nonzero); direct strand sum agrees on {certified} "
          f"band-certified instances ({nonzero_direct} nonzero)"
          if ok else f"failures={failures}, certified={certified}")
    assert ok, (failures, certified)


def test_criterion_4_symbol_equals_hilbert_samuel(announce):
    checked_sop = 0
    checked_vanishing = 0
    failures = []
    for inst in build_corpus():
        module = inst.fam.module
        elems = list(inst.cand.monomials())
        if not is_multiplicity_system(module, elems):
            continue
        symbol = mult_symbol(module, elems)
        if is_system_of_parameters(module, elems):
            generated = ideal(module.ctx, [u.exponents for u in elems])
            hs = hilbert_samuel(module, generated)
            checked_sop += 1
            if symbol != hs:
                failures.append(f"{inst.label}: symbol {symbol} != samuel {hs}")
        else:
            checked_vanishing += 1
            if symbol != 0:
                failures.append(f"{inst.label}: non-s.o.p. symbol {symbol} != 0")
    ok = not failures and checked_sop + checked_vanishing > 0
    announce(4, ok,
          f"symbol = Hilbert-Samuel on {checked_sop} s.o.p.s; "
          f"symbol = 0 on {checked_vanishing} non-s.o.p. systems"
          if ok else f"failures={failures}")
    assert ok, failures


def test_criterion_5_corollary_suite(announce):
    failures = []
    height_holds = 0
    checks = 0
    nonzero = 0
    for inst in build_corpus():
        datum = ReesDatum(inst.fam, inst.cand)
        reports = [
            verify_cor_filter_regular(datum, inst.recursion_axis)
            if inst.recursion_axis is not None
            else None,
            verify_cor_transition(datum),
            verify_cor_sop(datum),
            verify_cor_height(datum),
        ]
        for report in reports:
            if report is None:
                continue
            checks += 1
            nonzero += _nonzero(report.left, report.right)
            if report.verdict == Verdict.MISMATCH:
                failures.append(f"{inst.label}: {report.claim_id}")
        height = reports[3]
        if _hyps_hold(height) and height.verdict == Verdict.EQUAL:
            height_holds += 1
    fam4 = dim4_family()
    cand_x, _ = dim4_candidates()
    datum4 = ReesDatum(fam4, cand_x)
    dim4_height_fails = not height_hypothesis(datum4)
    report4 = verify_cor_height(datum4)
    if report4.verdict == Verdict.MISMATCH:
        failures.append("4v-joint-vars: height corollary")
    ok = not failures and height_holds >= 1 and dim4_height_fails
    announce(5, ok,
          f"corollaries exact on {checks} checks ({nonzero} compare nonzero values); "
          f"height hypothesis holds on {height_holds} instances "
          "and fails (no assertion made) on the 4-variable instance"
          if ok else f"failures={failures}, height_holds={height_holds}, "
          f"dim4_height_fails={dim4_height_fails}")
    assert ok, (failures, height_holds, dim4_height_fails)


def test_criterion_6_all_primary_recovery(announce):
    instances = all_primary_small()
    failures = []
    nonzero = 0
    for inst in instances[:20]:
        report = verify_rees_mprimary(ReesDatum(inst.fam, inst.cand))
        nonzero += _nonzero(report.left, report.right)
        if not (_hyps_hold(report) and report.verdict == Verdict.EQUAL):
            failures.append(inst.label)
    checked = min(len(instances), 20)
    ok = checked >= 5 and not failures
    announce(6, ok,
          f"mixed multiplicity = candidate symbol on {checked} all-primary instances "
          f"({nonzero} compare nonzero values)"
          if ok else f"checked={checked}, failures={failures}")
    assert ok, (checked, failures)


def test_criterion_7_degree_law_and_band_reproduction(announce):
    failures = []
    seen = set()
    for inst in build_corpus():
        if inst.fam in seen:
            continue
        seen.add(inst.fam)
        fit = interpolate(inst.fam, "P")
        qdim = inst.fam.saturated_dim()
        if qdim != MINUS_INFINITY:
            expected = int(qdim) - 1
            got = fit.poly.total_degree
            got = -1 if got == float("-inf") else int(got)
            if got != expected:
                failures.append(f"{inst.label}: degree {got} != {expected}")
        band = table_on_window(inst.fam, "P", fit.band_base, fit.band_extent)
        for idx, value in np.ndenumerate(band):
            point = tuple(fit.band_base + o for o in idx)
            if fit.poly.evaluate(point) != value:
                failures.append(f"{inst.label}: band value at {point}")
                break
    ok = not failures
    announce(7, ok,
          f"degree law and 100% band reproduction on {len(seen)} distinct families"
          if ok else f"failures={failures}")
    assert ok, failures


def test_criterion_8_randomized_properties(announce, property_outcomes):
    # Ordered last by conftest.py: the property items of this session have
    # run, and their outcomes are read, not run a second time.
    if property_outcomes:
        failed = sorted(node for node, outcome in property_outcomes.items() if outcome != "passed")
        ok = not failed
        detail = log = f"not passed: {failed}"
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(REPO / "tests" / "test_properties.py"),
             "-q", "--no-header", "-p", "no:cacheprovider"],
            capture_output=True,
            text=True,
        )
        ok = proc.returncode == 0
        detail, log = proc.stdout[-2000:], proc.stdout + proc.stderr
    announce(8, ok,
          "every property suite passed with 1000 randomized cases each"
          if ok else detail)
    assert ok, log
