"""Microbenchmarks of the sum-set kernel behind products and count
candidates, and of one Hilbert fit.

Not collected by the test suite (the name does not match ``test_*.py``).
Run from the root of a checkout with

    pytest tests/bench_kernels.py --benchmark-only

Each benchmark times one ``_sum_rows`` call on operands built beforehand:
the sample's largest product, J^12 * I1^10 in four variables (30 030 pairs);
a product of two three-generator ideals, the size the seeded corpus makes
most; and the candidates of one count, a product's generators against the
standard monomials of a colon floor (kept in grlex order on the floor).

Every memo of the engine belongs to one parse: the ring context of the
instance keeps the ideal arithmetic and the fits, and each family its
content split and values.  So a benchmark that runs cold makes a fresh
parse each round, and nothing else.

The fit benchmark times ``interpolate(family, "P")`` on the shipped dim4
sample, the fit behind its ``mixed`` request, cold.

The F fit benchmark times ``interpolate(family, "F")`` on the first family
of perfbench's ``counting`` workload (``COUNTING_SLOTS[0]`` before the
seed's variable permutation: J = (x1, x2^2, x3^2, x2 x3), I1 = (x1, x2)),
cold.

The certificate benchmarks time ``verify_joint_reduction`` on the sample,
cold: on its certified candidate ``x``, and on the first candidate of
``search-jr``'s pool order for type (2, (1, 0)), which fails at the base
point.

The strand benchmarks time the direct chi channel of ``koszul``: the box
kernel ``_box_members`` filling the membership of (x1, x2)^5 over the 11^3
box of internal degrees; ``euler_char_direct`` at the koszul workload's
shape (three variables, J maximal, I1 = (x1, x2), the candidate x2 from I1
with x1 and x3 from J, multidegree (4, (4,)), band 9, buffer 1); and
``euler_char_direct`` on the sample's candidate ``x`` at its fit's base
(5, 5, 5), band 16.  These three run warm: every round after the first
reuses the memos of one parse or ring.

The cold-import benchmark times a fresh interpreter that imports
``multimult.cli`` and exits, with ``PYTHONDONTWRITEBYTECODE=1``, so that
each round compiles the package from source as a cold ``multimult run``
without written bytecode does; it includes the interpreter's own start and
numpy's import.  The record benchmark builds the 133 ``MultiDegree`` points
of the sample's P fit (its 5^3 window at base 5 and its 2^3 band at base
10) and hashes the sample's ``IdealFamily``, the key of the fit's memo.

The dedupe benchmark times ``_grlex_unique`` on the rows of the sample's
largest minimalization, recorded while one parse of the sample runs every
request: 28 rows, the lcms of an intersection in the Rees-superficial test
of ``element-props``.
The membership benchmark times ``_members_mask`` for the sample's largest
``hf_P`` count, at (11, (11, 11)), the top corner of its fit's band: J is
the maximal ideal, so the count's candidates are the 2 014 generators of
the piece X'(11, (11, 11)), tested against the 2 314 of X'(12, (11, 11)).
Every candidate has a lower degree than every generator, so the degree gate
answers it, as it answers each of the sample's ``hf_P`` counts.

The symbol benchmark times the sample's two ``mult-symbol`` requests,
e(y; A) for its candidates x and z, cold: each makes nine recursion calls,
since the recursion stops at zero modules.  The saturation benchmark times
the saturations a run of the sample makes (of (0) and of (x3), each by the
product ideal I1 I2 = (x3^2, x2 x3, x1 x3)), cold, on the ideals of a fresh
parse; each is one colon ideal, checked against the ascending colon chain.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from unittest import mock

import pytest

pytest.importorskip("pytest_benchmark")

from oracles import box_members, saturation_fixpoint  # noqa: E402
from multimult.cli import run_instance  # noqa: E402
from multimult.hilbert import (  # noqa: E402
    BAND_EXTENT,
    IdealFamily,
    MixedType,
    MultiDegree,
    hf_P,
    interpolate,
    window_points,
)
from multimult.instances import parse_instance  # noqa: E402
from multimult.koszul import euler_char_direct  # noqa: E402
from multimult.monomials import (  # noqa: E402
    Monomial,
    QuotientModule,
    RingContext,
    _box_members,
    _grlex_unique,
    _members_mask,
    _sum_rows,
    ideal,
    ideal_power,
    ideal_product,
    saturation,
)
from multimult.multiplicity import mult_symbol  # noqa: E402
from multimult.reductions import (  # noqa: E402
    J_SOURCE,
    JointReductionCandidate,
    ReesDatum,
    verify_joint_reduction,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "docs" / "instances" / "dim4_joint_reduction.json"


def variables(m, count):
    return [tuple(int(i == j) for j in range(m)) for i in range(count)]


def test_sample_largest_product(benchmark):
    ctx = RingContext(4)
    j = ideal_power(ideal(ctx, variables(4, 4)), 12)
    i1 = ideal_power(ideal(ctx, variables(4, 3)), 10)
    rows, _ = benchmark(_sum_rows, j.matrix, j.key_tops(), i1.matrix, i1.key_tops())
    assert (len(j.matrix), len(i1.matrix), len(rows)) == (455, 66, 2080)


def test_corpus_sized_product(benchmark):
    ctx = RingContext(3)
    a = ideal(ctx, [(2, 0, 0), (1, 1, 0), (0, 0, 3)])
    b = ideal(ctx, [(0, 2, 0), (1, 0, 1), (0, 1, 2)])
    rows, _ = benchmark(_sum_rows, a.matrix, a.key_tops(), b.matrix, b.key_tops())
    assert len(rows) == 9


def test_count_candidates(benchmark):
    ctx = RingContext(3)
    j = ideal(ctx, [(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1)])
    i1 = ideal(ctx, [(1, 0, 0), (0, 1, 0)])
    top = ideal_product(ideal_power(j, 2), ideal_power(i1, 3))
    std, _, std_tops = ideal_power(j, 3).standard
    rows, _ = benchmark(_sum_rows, top.matrix, top.key_tops(), std, std_tops)
    sums = {tuple(x + y for x, y in zip(g, v)) for g in top.gens for v in std.tolist()}
    assert len(rows) == len(sums)


def fresh_sample():
    """A fresh parse of the sample, with empty memos."""
    return parse_instance(SAMPLE.read_text(), SAMPLE.name)


def test_sample_fit(benchmark):
    def setup():
        return (fresh_sample().family, "P"), {}

    fit = benchmark.pedantic(interpolate, setup=setup, rounds=50)
    assert fit.poly.coefficient((2, 0, 1)) == 0
    assert len(fit.values.ravel()) == 125


COUNTING_FAMILY = json.dumps({
    "variables": ["x1", "x2", "x3"],
    "J": ["x1", "x2^2", "x3^2", "x2*x3"],
    "ideals": {"I1": ["x1", "x2"]},
    "candidates": {},
    "requests": [],
})


def test_counting_f_fit(benchmark):
    def setup():
        return (parse_instance(COUNTING_FAMILY).family, "F"), {}

    fit = benchmark.pedantic(interpolate, setup=setup, rounds=30)
    assert fit.poly.coeffs == {(1, 0): 3, (1, 1): -2, (2, 0): -7, (2, 1): 2, (3, 0): 4}
    assert fit.base == 5 and int(fit.values[0, 0]) == 275


def test_certify_sample_candidate(benchmark):
    def setup():
        inst = fresh_sample()
        return (inst.family, inst.candidates["x"]), {}

    cert = benchmark.pedantic(verify_joint_reduction, setup=setup, rounds=50)
    assert cert.holds and cert.window_base == 5


def test_certify_failing_search_candidate(benchmark):
    def setup():
        inst = fresh_sample()
        # The first tuple of type (2, (1, 0)) in search-jr's pool order.
        x3, x4 = Monomial((0, 0, 1, 0)), Monomial((0, 0, 0, 1))
        cand = JointReductionCandidate(((x3, 0),) + ((x4, J_SOURCE),) * 3, MixedType(2, (1, 0)))
        return (inst.family, cand), {}

    cert = benchmark.pedantic(verify_joint_reduction, setup=setup, rounds=50)
    assert not cert.holds and cert.witness == ((5, 5, 5), Monomial((0, 10, 5, 0)))


def test_box_members(benchmark):
    piece = ideal_power(ideal(RingContext(3), variables(3, 2)), 5)
    bounds = (11, 11, 11)
    mask = benchmark(_box_members, piece, bounds)
    assert mask.tolist() == box_members(piece, bounds).tolist()
    assert int(mask.sum()) == 11 * (11 * 11 - 15)


def test_koszul_shaped_direct_chi(benchmark):
    ctx = RingContext(3)
    x1, x2, x3 = (Monomial(v) for v in variables(3, 3))
    fam = IdealFamily(ideal(ctx, variables(3, 3)), (ideal(ctx, variables(3, 2)),),
                      QuotientModule.free(ctx))
    cand = JointReductionCandidate(((x2, 0), (x1, J_SOURCE), (x3, J_SOURCE)), MixedType(1, (1,)))
    datum = ReesDatum(fam, cand)
    assert datum.certificate.holds
    ev = benchmark(euler_char_direct, datum, MultiDegree(4, (4,)))
    assert ev.certified
    assert ev.provenance == {"multidegree": (4, 4), "band": 9, "buffer": 1}


def test_direct_chi_sample_candidate(benchmark):
    inst = parse_instance(SAMPLE.read_text(), SAMPLE.name)
    datum = ReesDatum(inst.family, inst.candidates["x"])
    ev = benchmark(euler_char_direct, datum, MultiDegree(5, (5, 5)))
    assert ev.certified and ev.value == 0
    assert ev.provenance == {"multidegree": (5, 5, 5), "band": 16, "buffer": 1}


def test_cold_import(benchmark):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-c", "import multimult.cli"]

    def cold_import():
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    proc = benchmark.pedantic(cold_import, rounds=10)
    assert proc.returncode == 0, proc.stderr


def test_sample_fit_records(benchmark):
    fam = fresh_sample().family
    fit = interpolate(fam, "P")
    assert (fit.base, fit.extent, fit.band_base) == (5, 5, 10)

    def records():
        points = [MultiDegree(pt[0], pt[1:]) for pt in window_points(3, fit.base, fit.extent)]
        points += [MultiDegree(pt[0], pt[1:])
                   for pt in window_points(3, fit.band_base, BAND_EXTENT)]
        return points, hash(fam)

    points, _ = benchmark(records)
    assert len(set(points)) == 133


def test_sample_largest_dedupe(benchmark):
    with mock.patch("multimult.monomials._grlex_unique", wraps=_grlex_unique) as spy:
        run_instance(fresh_sample())
    calls = [call.args for call in spy.call_args_list]
    rows, degree_top = max(calls, key=lambda args: len(args[0]))
    got, degrees = benchmark(_grlex_unique, rows, degree_top)
    assert len(rows) == 28
    assert got.tolist() == sorted(map(list, set(map(tuple, rows.tolist()))),
                                  key=lambda r: (sum(r), r))
    assert degrees.tolist() == [sum(r) for r in got.tolist()]


def test_sample_count_membership(benchmark):
    fam = fresh_sample().family
    top, bot = fam.content_free_piece(11, (11, 11)), fam.content_free_piece(12, (11, 11))
    mask = benchmark(_members_mask, bot, top.matrix, top.degrees)
    assert (len(top.matrix), len(bot.matrix)) == (2014, 2314)
    assert top.max_generator_degree() < bot.degrees[0]
    assert int((~mask).sum()) == hf_P(fam, MultiDegree(11, (11, 11)))


def test_sample_mult_symbol(benchmark):
    def setup():
        inst = fresh_sample()
        return (inst.family.module, [list(c.monomials()) for c in inst.candidates.values()]), {}

    def symbols(module, sequences):
        return [mult_symbol(module, y) for y in sequences]

    assert benchmark.pedantic(symbols, setup=setup, rounds=50) == [1, 8]


def test_sample_saturations(benchmark):
    with mock.patch("multimult.monomials.saturation", wraps=saturation) as module_spy, \
            mock.patch("multimult.reductions.saturation", wraps=saturation) as family_spy:
        run_instance(fresh_sample())
    calls = module_spy.call_args_list + family_spy.call_args_list
    pairs = sorted({(call.args[0].gens, call.args[1].gens) for call in calls})
    assert [(q, len(i)) for q, i in pairs] == [((), 3), (((0, 0, 1, 0),), 3)]

    def operands():
        ctx = fresh_sample().family.ctx
        return [(ideal(ctx, q), ideal(ctx, i)) for q, i in pairs]

    def saturations(pairs):
        return [saturation(q, i) for q, i in pairs]

    got = benchmark.pedantic(saturations, setup=lambda: ((operands(),), {}), rounds=50)
    assert got == [saturation_fixpoint(q, i) for q, i in operands()]
    assert got[0].is_zero() and got[1].is_unit()
