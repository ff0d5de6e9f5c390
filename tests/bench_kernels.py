"""Microbenchmarks of the sum-set kernel behind products and count
candidates, and of one Hilbert fit.

Not collected by the test suite (the name does not match ``test_*.py``).
Run from the root of a checkout with

    pytest tests/bench_kernels.py --benchmark-only

Each benchmark times one ``_sum_rows`` call on operands built beforehand:
the sample's largest product, J^12 * I1^10 in four variables (30 030 pairs);
a product of two three-generator ideals, the size the seeded corpus makes
most; and the candidates of one count, a product's generators against the
standard monomials of a colon floor (lex order, so unsorted).

The fit benchmark times ``interpolate(family, "P")`` on the shipped dim4
sample, the fit behind its ``mixed`` request, on a fresh parse with the fit
cache cleared each round: the family's content split and value memo start
empty, while the ideal caches of ``monomials`` stay warm.

The certificate benchmarks time ``verify_joint_reduction`` on the sample, on
a fresh parse with every ideal cache of ``monomials`` cleared each round: on
its certified candidate ``x``, and on the first candidate of ``search-jr``'s
pool order for type (2, (1, 0)), which fails at the base point.
"""

from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

from multimult import monomials  # noqa: E402
from multimult.hilbert import MixedType, interpolate  # noqa: E402
from multimult.instances import parse_instance  # noqa: E402
from multimult.monomials import (  # noqa: E402
    Monomial,
    RingContext,
    _sum_rows,
    ideal,
    ideal_power,
    ideal_product,
)
from multimult.reductions import J_SOURCE, JointReductionCandidate, verify_joint_reduction  # noqa: E402

SAMPLE = Path(__file__).resolve().parent.parent / "docs" / "instances" / "dim4_joint_reduction.json"


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
    rows, _ = benchmark(_sum_rows, top.matrix, top.key_tops(), std, std_tops, b_sorted=False)
    sums = {tuple(x + y for x, y in zip(g, v)) for g in top.gens for v in std.tolist()}
    assert len(rows) == len(sums)


def test_sample_fit(benchmark):
    text = SAMPLE.read_text()

    def fresh_family():
        # Equal families would otherwise hit the fit cache.
        interpolate.cache_clear()
        return (parse_instance(text, SAMPLE.name).family, "P"), {}

    fit = benchmark.pedantic(interpolate, setup=fresh_family, rounds=50)
    assert fit.poly.coefficient((2, 0, 1)) == 0
    assert len(fit.values.ravel()) == 125


IDEAL_CACHES = (
    monomials._ideal_sum_cached,
    monomials._ideal_product_cached,
    monomials._powers,
    monomials.colon_by_monomial,
    monomials.ideal_intersection,
    monomials.saturation,
)


def fresh_sample():
    """A fresh parse of the sample, with every ideal cache cleared."""
    for cache in IDEAL_CACHES:
        cache.cache_clear()
    return parse_instance(SAMPLE.read_text(), SAMPLE.name)


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
