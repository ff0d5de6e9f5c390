"""Unit tests for the multiplicity symbol and the verification suite."""

from fractions import Fraction

import pytest

from corpus import build_corpus
from oracles import hilbert_samuel
from multimult import multiplicity
from multimult.hilbert import IdealFamily, MixedType, mixed_multiplicity
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
        with pytest.raises(NotMultiplicitySystemError):
            mult_symbol(QuotientModule.free(C2), [C2.monomial(1, 0)])

    def test_empty_sequence_is_length(self):
        mod = QuotientModule(C2, ideal(C2, [(2, 0), (0, 1)]))
        assert mult_symbol(mod, []) == 2


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
