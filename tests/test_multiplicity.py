"""Unit tests for the multiplicity symbol and the verification suite."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from corpus import build_corpus
from oracles import hilbert_samuel, unpruned_symbol
from multimult import monomials, multiplicity
from multimult.hilbert import IdealFamily, MixedType, mixed_multiplicity
from multimult.instances import parse_instance
from multimult.monomials import (
    MonomialIdeal,
    QuotientModule,
    RingContext,
    ideal,
    ideal_product,
)
from multimult.multiplicity import (
    NotMultiplicitySystemError,
    Verdict,
    _verdict,
    mult_symbol,
    verify_base_type,
    verify_cor_filter_regular,
    verify_cor_height,
    verify_cor_sop,
    verify_cor_transition,
    verify_corollaries,
    verify_rees_mprimary,
    verify_theorem_recursion,
)
from multimult.reductions import J_SOURCE, JointReductionCandidate, ReesDatum

C1 = RingContext(1)
C2 = RingContext(2)
C3 = RingContext(3)
C4 = RingContext(4)


def family_2var():
    m = ideal(C2, [(1, 0), (0, 1)])
    return IdealFamily(m, (m,), QuotientModule.free(C2))


def cand_2var():
    return JointReductionCandidate(
        ((C2.monomial(1, 0), 0), (C2.monomial(0, 1), J_SOURCE)), MixedType(0, (1,))
    )


def family_dim4():
    i1 = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    i2 = ideal(C4, [(0, 0, 1, 0)])
    j = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    return IdealFamily(j, (i1, i2), QuotientModule.free(C4))


def uncertified_2var(k0, k):
    """x1 from I1 (when k = (1,)) and x1 from J on family_2var: every x2^n
    of J^n0 I^n lies outside the right side, so nothing certifies."""
    x1 = C2.monomial(1, 0)
    elements = ((x1, 0),) * k[0] + ((x1, J_SOURCE),) * (k0 + 1)
    return ReesDatum(family_2var(), JointReductionCandidate(elements, MixedType(k0, k)))


def dim4_candidate(powers=(1, 1, 1)):
    a, b, c = powers
    elements = (
        (C4.monomial(0, 0, 1, 0), 1),
        (C4.monomial(a, 0, 0, 0), J_SOURCE),
        (C4.monomial(0, b, 0, 0), J_SOURCE),
        (C4.monomial(0, 0, 0, c), J_SOURCE),
    )
    return JointReductionCandidate(elements, MixedType(2, (0, 1)))


class TestMultSymbol:
    def test_regular_sequence(self):
        y = [C4.variable(i) for i in range(4)]
        assert mult_symbol(QuotientModule.free(C4), y) == 1

    def test_squares(self):
        y = [
            C4.monomial(0, 0, 1, 0),
            C4.monomial(2, 0, 0, 0),
            C4.monomial(0, 2, 0, 0),
            C4.monomial(0, 0, 0, 2),
        ]
        # A regular sequence of degrees 1,2,2,2 on a regular ring: the symbol
        # is the colength 2*2*2 = 8.
        assert mult_symbol(QuotientModule.free(C4), y) == 8

    def test_hypersurface(self):
        mod = QuotientModule(C2, ideal(C2, [(1, 0)]))
        assert mult_symbol(mod, [C2.monomial(0, 1)]) == 1

    def test_vanishes_on_non_sop(self):
        # Two elements on a one-dimensional module: a multiplicity system
        # that is not a system of parameters, so the symbol is 0.
        mod = QuotientModule(C2, ideal(C2, [(1, 1)]))
        assert mult_symbol(mod, [C2.monomial(1, 0), C2.monomial(0, 1)]) == 0

    def test_rejects_non_system(self):
        # The first leaf, M/(y)M, has infinite length: nothing is counted.
        with mock.patch.object(monomials, "_count_difference",
                               wraps=monomials._count_difference) as count:
            with pytest.raises(NotMultiplicitySystemError,
                               match="^elements do not cut M to finite length$"):
                mult_symbol(QuotientModule.free(C2), [C2.monomial(1, 0)])
        assert count.call_count == 0

    def test_counts_the_quotient_once(self):
        # The sample's candidate z on A: M/(y)M, the first leaf, is the only
        # module of the recursion that is not zero, and it is counted once.
        ctx = RingContext(4)
        y = [ctx.monomial(0, 0, 1, 0), ctx.monomial(2, 0, 0, 0), ctx.monomial(0, 2, 0, 0),
             ctx.monomial(0, 0, 0, 2)]
        with mock.patch.object(monomials, "_count_difference",
                               wraps=monomials._count_difference) as count:
            assert mult_symbol(QuotientModule.free(ctx), y) == 8
        assert count.call_count == 1

    def test_empty_sequence_is_length(self):
        mod = QuotientModule(C2, ideal(C2, [(2, 0), (0, 1)]))
        assert mult_symbol(mod, []) == 2


SAMPLE = Path(__file__).resolve().parent.parent / "docs" / "instances" / "dim4_joint_reduction.json"


def symbol_cases():
    """(label, module, y) for every corpus candidate, the sample's x and z
    among them: the candidate on M and on its saturation M / (0 : I^inf),
    and its J-block on the saturated quotient of M/(x_I)M, the modules the
    claims take the symbol on."""
    for inst in build_corpus():
        fam, elements = inst.fam, inst.cand.elements
        x_i = [u for u, s in elements if s != J_SOURCE]
        u_j = [u for u, s in elements if s == J_SOURCE]
        y = list(inst.cand.monomials())
        yield inst.label, fam.module, y
        yield f"{inst.label}-saturated", fam.saturated_module(), y
        target = fam.module.quotient_by_elements(x_i).saturate(fam.product_ideal())
        yield f"{inst.label}-transition", target, u_j


class TestZeroModuleStop:
    """The recursion that stops at zero modules against the one that
    descends to every leaf."""

    @staticmethod
    def _outcome(symbol, module, y):
        try:
            return symbol(module, y)
        except NotMultiplicitySystemError as exc:
            return str(exc)

    def test_agrees_with_unpruned_recursion(self):
        outcomes = set()
        for label, module, y in symbol_cases():
            got = self._outcome(mult_symbol, module, y)
            assert got == self._outcome(unpruned_symbol, module, y), label
            outcomes.add(type(got))
        # Both values and refusals occur.
        assert outcomes == {int, str}

    def test_sample_candidates_make_nine_calls(self):
        # Four elements: the unpruned recursion makes 1 + 2 + 4 + 8 + 16 = 31
        # calls, 26 of them on a zero module.
        inst = parse_instance(SAMPLE.read_text(), SAMPLE.name)
        for name, cand in inst.candidates.items():
            with mock.patch.object(multiplicity, "_symbol",
                                   wraps=multiplicity._symbol) as spy:
                mult_symbol(inst.family.module, list(cand.monomials()))
            assert spy.call_count == 9, name


class TestHilbertSamuel:
    def test_maximal_ideal(self):
        assert hilbert_samuel(QuotientModule.free(C2), ideal(C2, [(1, 0), (0, 1)])) == 1

    def test_weighted(self):
        assert hilbert_samuel(QuotientModule.free(C2), ideal(C2, [(2, 0), (0, 1)])) == 2

    def test_dim4_mixed_powers(self):
        a = ideal(C4, [(0, 0, 1, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 2)])
        assert hilbert_samuel(QuotientModule.free(C4), a) == 8

    def test_agrees_with_symbol(self):
        cases = [
            (QuotientModule.free(C2), [C2.monomial(1, 0), C2.monomial(0, 2)]),
            (QuotientModule.free(C2), [C2.monomial(2, 0), C2.monomial(0, 3)]),
            (QuotientModule(C2, ideal(C2, [(0, 1)])), [C2.monomial(2, 0)]),
            (QuotientModule(C2, ideal(C2, [(2, 0)])), [C2.monomial(0, 1)]),
        ]
        for mod, y in cases:
            assert mult_symbol(mod, y) == hilbert_samuel(mod, ideal(C2, y))

    def test_rejects_non_definition(self):
        with pytest.raises(NotMultiplicitySystemError):
            hilbert_samuel(QuotientModule.free(C2), ideal(C2, [(1, 0)]))


def teissier_2var(a: MonomialIdeal) -> int:
    """e(a) = 2 * area(R^2_>=0 minus NP(a)) for an m-primary monomial ideal
    a of k[x1, x2] (Teissier), by exact shoelace on the lower hull.

    Every minimal generator lies between the pure powers (0, b) and (c, 0),
    so the part of the Newton boundary that faces the origin is the lower
    convex hull of the generators, swept by increasing x1.
    """
    hull = []
    for p in sorted(a.gens):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) > 0:
                break
            hull.pop()
        hull.append(p)
    polygon = [(0, 0)] + hull[::-1]
    twice_area = sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(polygon, polygon[1:] + polygon[:1])
    )
    area = Fraction(twice_area, 2)
    assert area.denominator in (1, 2)
    return int(2 * area)


def _twice_hull_area(points) -> int:
    """Twice the area of the convex hull of integer points in the plane,
    by Andrew's monotone chain and the shoelace formula."""
    pts = sorted(set(points))

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    hull = half(pts) + half(pts[::-1])
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1])))


def teissier_3var(a: MonomialIdeal) -> int:
    """e(a) = 3! * vol(R^3_>=0 minus NP(a)) for an m-primary monomial ideal a
    of k[x1, x2, x3] (Teissier), in exact rationals.

    The region is the union of the cones from the origin over the compact
    facets of NP(a).  Those are the planes n . v = c through three
    generators whose integer normal n is strictly positive and on which
    every generator has n . g >= c.  The cone over a facet F has volume
    c * area_xy(F) / (3 * n_z), where area_xy is the area of F projected to
    the x1x2-plane, so 3! times it is c * |2 area_xy| / n_z.
    """
    gens = a.gens
    facets = set()
    for p, q, r in itertools.combinations(gens, 3):
        u = [qi - pi for pi, qi in zip(p, q)]
        v = [ri - pi for pi, ri in zip(p, r)]
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if all(c < 0 for c in n):
            n = tuple(-c for c in n)
        if not all(c > 0 for c in n):
            continue  # collinear, or not a compact facet's normal
        g = math.gcd(*n)
        n = tuple(c // g for c in n)
        c = sum(ni * pi for ni, pi in zip(n, p))
        if all(sum(ni * gi for ni, gi in zip(n, h)) >= c for h in gens):
            facets.add((n, c))
    total = Fraction(0)
    for n, c in facets:
        on_plane = [h[:2] for h in gens if sum(ni * hi for ni, hi in zip(n, h)) == c]
        total += Fraction(c * _twice_hull_area(on_plane), n[2])
    assert total.denominator == 1
    return int(total)


def seeded_primary_3var(seed: int) -> MonomialIdeal:
    """Pure powers of degree at most 4 and up to four mixed generators, each
    with two or three variables."""
    rng = random.Random(seed)
    gens = [tuple(rng.randint(1, 4) if i == j else 0 for j in range(3)) for i in range(3)]
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(range(3), rng.randint(2, 3))
        gens.append(tuple(rng.randint(1, 2) if i in support else 0 for i in range(3)))
    return ideal(C3, gens)


class TestTeissierOracle:
    def test_closed_forms(self):
        # e(x1^a, x2^b) = a * b.
        assert teissier_2var(ideal(C2, [(1, 0), (0, 1)])) == 1
        assert teissier_2var(ideal(C2, [(3, 0), (0, 2)])) == 6
        # x1*x2 lies below the segment from x2^3 to x1^3: two triangles of
        # area 3/2 each.
        assert teissier_2var(ideal(C2, [(3, 0), (1, 1), (0, 3)])) == 6
        # x1^2*x2^2 lies above it and leaves NP as it is for (x1^3, x2^3).
        assert teissier_2var(ideal(C2, [(3, 0), (2, 2), (0, 3)])) == 9

    def test_hilbert_samuel_on_two_variable_corpus_ideals(self):
        primary = {
            a
            for c in build_corpus()
            if c.fam.ctx.num_vars == 2
            for a in (c.fam.j, *c.fam.ideals, *(ideal_product(c.fam.j, i) for i in c.fam.ideals))
            if a.is_primary_to_max_ideal()
        }
        assert len(primary) >= 5
        free = QuotientModule.free(C2)
        for a in sorted(primary, key=lambda a: a.gens):
            assert hilbert_samuel(free, a) == teissier_2var(a), a

    def test_closed_forms_3var(self):
        # e(x1^a, x2^b, x3^c) = a * b * c, and e(m^2) = 2^3.
        for a, b, c in [(1, 1, 1), (2, 3, 4), (4, 1, 3)]:
            assert teissier_3var(ideal(C3, [(a, 0, 0), (0, b, 0), (0, 0, c)])) == a * b * c
        m = ideal(C3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert teissier_3var(ideal_product(m, m)) == 8
        # x1*x2*x3 lies on the plane through the cubes and leaves NP as it is;
        # below the plane through the fourth powers it makes three facets,
        # such as n = (1, 1, 2), c = 4 through x1^4 and x2^4, each giving
        # c * |2 area_xy| / n_z = 4 * 8 / 2, so 48 against 64.
        assert teissier_3var(ideal(C3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])) == 27
        assert teissier_3var(ideal(C3, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])) == 48

    def test_hilbert_samuel_on_three_variable_ideals(self):
        corpus = {
            a
            for c in build_corpus()
            if c.fam.ctx.num_vars == 3
            for a in (c.fam.j, *c.fam.ideals, *(ideal_product(c.fam.j, i) for i in c.fam.ideals))
            if a.is_primary_to_max_ideal()
        }
        assert len(corpus) >= 2
        seeded = [seeded_primary_3var(seed) for seed in range(25)]
        assert sum(len(a.gens) > 3 for a in seeded) >= 10
        free = QuotientModule.free(C3)
        for a in sorted(corpus, key=lambda a: a.gens) + seeded:
            assert hilbert_samuel(free, a) == teissier_3var(a), a.gens

    def test_corpus_25_left_side(self):
        # corpus-25: J = (x1^3, x2^2, x1^2*x2), I1 = (x1, x2^2), I2 = (x1).
        # The type (0, (1, 0)) mixed multiplicity is e(J^[1], I1^[1]), which
        # polarizes to (e(J*I1) - e(J) - e(I1)) / 2.
        j = ideal(C2, [(3, 0), (0, 2), (2, 1)])
        i1 = ideal(C2, [(1, 0), (0, 2)])
        fam = IdealFamily(j, (i1, ideal(C2, [(1, 0)])), QuotientModule.free(C2))
        e = [teissier_2var(a) for a in (ideal_product(j, i1), j, i1)]
        assert e == [12, 6, 2]
        free = QuotientModule.free(C2)
        assert [hilbert_samuel(free, a) for a in (ideal_product(j, i1), j, i1)] == e
        oracle = Fraction(e[0] - e[1] - e[2], 2)
        assert oracle == 2
        assert mixed_multiplicity(fam, MixedType(0, (1, 0))) == (oracle, True)


class TestTheoremRecursion:
    def test_2var(self):
        rep = verify_theorem_recursion(ReesDatum(family_2var(), cand_2var()), 0)
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 1

    def test_1var(self):
        x = ideal(C1, [(1,)])
        fam = IdealFamily(x, (x,), QuotientModule.free(C1))
        cand = JointReductionCandidate(
            ((C1.monomial(1), 0), (C1.monomial(1), J_SOURCE)), MixedType(0, (1,))
        )
        rep = verify_theorem_recursion(ReesDatum(fam, cand), 0)
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 0

    def test_dim4(self):
        rep = verify_theorem_recursion(ReesDatum(family_dim4(), dim4_candidate()), 1)
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 0

    def test_unstable_fit_is_an_unmet_hypothesis(self):
        # No window is ever consistent, so each fit raises StabilizationError
        # and the claim asserts nothing.  A fresh ring: no kept fit answers.
        ctx = RingContext(2)
        m = ideal(ctx, [(1, 0), (0, 1)])
        fam = IdealFamily(m, (m,), QuotientModule.free(ctx))
        cand = JointReductionCandidate(
            ((ctx.monomial(1, 0), 0), (ctx.monomial(0, 1), J_SOURCE)), MixedType(0, (1,))
        )
        datum = ReesDatum(fam, cand)
        with mock.patch("multimult.hilbert._binomial_coefficients", return_value=None):
            rep = verify_theorem_recursion(datum, 0)
        assert rep.verdict == Verdict.HYPOTHESIS_UNMET
        assert rep.hypotheses[-1] == ("interpolation stabilized", False)
        assert (rep.left, rep.right) == (0, 0)
        # A failed fit is not kept: the same datum verifies once fits work.
        assert verify_theorem_recursion(datum, 0).verdict == Verdict.EQUAL

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP open item 1: corpus-25 is a MISMATCH (left 2, right 0) on a "
        "certified candidate; a hypothesis is missing or a term is wrong",
    )
    def test_corpus_25(self):
        # J = (x1^3, x2^2, x1^2*x2), I1 = (x1, x2^2), I2 = (x1); the candidate
        # is x1 from I1 and x2^2 from J, of type (0, (1, 0)).
        j = ideal(C2, [(3, 0), (0, 2), (2, 1)])
        fam = IdealFamily(j, (ideal(C2, [(1, 0), (0, 2)]), ideal(C2, [(1, 0)])),
                          QuotientModule.free(C2))
        cand = JointReductionCandidate(
            ((C2.monomial(1, 0), 0), (C2.monomial(0, 2), J_SOURCE)), MixedType(0, (1, 0))
        )
        datum = ReesDatum(fam, cand)
        assert datum.certificate.holds
        rep = verify_theorem_recursion(datum, 0)
        assert rep.verdict == Verdict.EQUAL


class TestCorollaries:
    def test_quotient_comparison_2var(self):
        rep = verify_cor_filter_regular(ReesDatum(family_2var(), cand_2var()), 0)
        assert rep.verdict == Verdict.EQUAL

    def test_quotient_comparison_dim4(self):
        rep = verify_cor_filter_regular(ReesDatum(family_dim4(), dim4_candidate()), 1)
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 0 and rep.right == 0

    def test_transition_2var(self):
        rep = verify_cor_transition(ReesDatum(family_2var(), cand_2var()))
        assert rep.verdict == Verdict.EQUAL
        assert rep.right == 1

    def test_transition_dim4(self):
        rep = verify_cor_transition(ReesDatum(family_dim4(), dim4_candidate()))
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 0 and rep.right == 0

    def test_sop_2var(self):
        rep = verify_cor_sop(ReesDatum(family_2var(), cand_2var()))
        assert rep.verdict == Verdict.EQUAL
        assert rep.right == 1

    def test_sop_dim4_strict(self):
        rep = verify_cor_sop(ReesDatum(family_dim4(), dim4_candidate()))
        assert rep.verdict == Verdict.LEQ_STRICT
        assert rep.left == 0 and rep.right == 1

    def test_sop_dim4_squares(self):
        rep = verify_cor_sop(ReesDatum(family_dim4(), dim4_candidate((2, 2, 2))))
        assert rep.verdict == Verdict.LEQ_STRICT
        assert rep.left == 0 and rep.right == 8

    def test_height_2var_holds(self):
        rep = verify_cor_height(ReesDatum(family_2var(), cand_2var()))
        assert rep.verdict == Verdict.EQUAL
        assert dict(rep.hypotheses)["height hypothesis"]

    def test_height_dim4_fails_hypothesis(self):
        # I = I1*I2 lies inside the minimal prime (x3) of (x3), so no
        # assertion is made.
        rep = verify_cor_height(ReesDatum(family_dim4(), dim4_candidate()))
        assert rep.verdict == Verdict.HYPOTHESIS_UNMET
        assert not dict(rep.hypotheses)["height hypothesis"]

    def test_rees_recovery_2var(self):
        rep = verify_rees_mprimary(ReesDatum(family_2var(), cand_2var()))
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 1

    def test_rees_recovery_weighted(self):
        i1 = ideal(C2, [(2, 0), (0, 1)])
        j = ideal(C2, [(1, 0), (0, 1)])
        fam = IdealFamily(j, (i1,), QuotientModule.free(C2))
        cand = JointReductionCandidate(
            ((C2.monomial(0, 1), 0), (C2.monomial(1, 0), J_SOURCE)), MixedType(0, (1,))
        )
        rep = verify_rees_mprimary(ReesDatum(fam, cand))
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 1

    def test_rees_degenerate_1var(self):
        x = ideal(C1, [(1,)])
        fam = IdealFamily(x, (x,), QuotientModule.free(C1))
        cand = JointReductionCandidate(
            ((C1.monomial(1), 0), (C1.monomial(1), J_SOURCE)), MixedType(0, (1,))
        )
        rep = verify_rees_mprimary(ReesDatum(fam, cand))
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 0

    def test_base_type_2var(self):
        fam = family_2var()
        cand = JointReductionCandidate(
            ((C2.monomial(1, 0), J_SOURCE), (C2.monomial(0, 1), J_SOURCE)),
            MixedType(1, (0,)),
        )
        rep = verify_base_type(ReesDatum(fam, cand))
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 1

    def test_base_type_torsion_module(self):
        # I is nilpotent modulo Q, so the saturation is the zero module and
        # both sides vanish.
        i1 = ideal(C2, [(1, 0)])
        j = ideal(C2, [(1, 0), (0, 1)])
        mod = QuotientModule(C2, ideal(C2, [(2, 0)]))
        fam = IdealFamily(j, (i1,), mod)
        cand = JointReductionCandidate(
            ((C2.monomial(1, 0), J_SOURCE),), MixedType(0, (0,))
        )
        rep = verify_base_type(ReesDatum(fam, cand))
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 0 and rep.right == 0


class TestVerdictRule:
    @pytest.mark.parametrize(
        "hypotheses, conclusions, left, right, relation, verdict",
        [
            # Unmet hypotheses assert nothing, even when the sides differ.
            ([("h", False)], [], 1, 2, "eq", Verdict.HYPOTHESIS_UNMET),
            ([("h", True), ("g", False)], [("c", False)], 2, 1, "le", Verdict.HYPOTHESIS_UNMET),
            # A failed conclusion with every hypothesis met fails the claim,
            # even when left = right.
            ([("h", True)], [("c", False)], 1, 1, "eq", Verdict.MISMATCH),
            ([("h", True)], [("c", False)], 0, 1, "le", Verdict.MISMATCH),
            ([("h", True)], [("c", True)], 1, 1, "eq", Verdict.EQUAL),
            ([], [], 1, 1, "eq", Verdict.EQUAL),
            ([], [], 1, 1, "le", Verdict.EQUAL),
            ([], [], 1, 2, "le", Verdict.LEQ_STRICT),
            ([], [], 1, 2, "eq", Verdict.MISMATCH),
            ([], [], 2, 1, "eq", Verdict.MISMATCH),
            ([], [], 2, 1, "le", Verdict.MISMATCH),
        ],
    )
    def test_table(self, hypotheses, conclusions, left, right, relation, verdict):
        assert _verdict(hypotheses, conclusions, Fraction(left), Fraction(right), relation) == verdict

    def test_height_criterion_reports_a_failed_conclusion(self, monkeypatch):
        # Every hypothesis of the height criterion holds on the 2-variable
        # datum; a candidate that were no system of parameters would fail
        # the conclusion itself.
        monkeypatch.setattr(multiplicity, "is_system_of_parameters", lambda module, elems: False)
        rep = verify_cor_height(ReesDatum(family_2var(), cand_2var()))
        assert all(ok for _, ok in rep.hypotheses[:-1])
        assert rep.hypotheses[-1] == ("conclusion: system of parameters", False)
        assert (rep.left, rep.right) == (1, -1)
        assert rep.verdict == Verdict.MISMATCH


class TestUncertifiedDatum:
    def test_claims_report_the_unmet_hypothesis(self):
        data = [uncertified_2var(0, (1,)), uncertified_2var(0, (0,))]
        assert not any(d.certificate.holds for d in data)
        reports = [verify_theorem_recursion(data[0], 0), *verify_corollaries(data[0], 0),
                   *verify_corollaries(data[1], None)]
        assert [r.claim_id for r in reports] == [
            "recursion", "quotient-comparison-eq", "saturated-transition", "sop-comparison",
            "height-criterion", "primary-recovery",
            "saturated-transition", "sop-comparison", "height-criterion", "primary-recovery",
            "base-type",
        ]
        for rep in reports:
            assert ("candidate certified", False) in rep.hypotheses, rep.claim_id
            assert rep.verdict == Verdict.HYPOTHESIS_UNMET, rep.claim_id
