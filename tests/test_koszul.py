"""Unit tests for Koszul strand homology and Euler characteristics."""

from pathlib import Path

import pytest
import sympy

from multimult import koszul
from multimult.hilbert import (
    IdealFamily,
    MixedType,
    MultiDegree,
    initial_offset,
    interpolate,
    table_on_window,
)
from multimult.instances import parse_instance
from multimult.koszul import (
    EulerValue,
    ReesDatum,
    _rank_exact,
    _strand_complex,
    euler_char_direct,
    euler_char_via_difference,
    koszul_strand_homology,
    rees_piece_basis,
    strand_profile,
    verify_chi_properties,
    verify_chi_recursion,
)
from multimult.monomials import (
    QuotientModule,
    RingContext,
    ideal,
    ideal_sum,
)
from multimult.multiplicity import Verdict
from multimult.reductions import J_SOURCE, JointReductionCandidate

C1 = RingContext(1)
C2 = RingContext(2)
SAMPLE = Path(__file__).resolve().parent.parent / "docs" / "instances" / "dim4_joint_reduction.json"


def datum_1var():
    x = ideal(C1, [(1,)])
    fam = IdealFamily(x, (x,), QuotientModule.free(C1))
    cand = JointReductionCandidate(
        ((C1.monomial(1), 0), (C1.monomial(1), J_SOURCE)), MixedType(0, (1,))
    )
    return ReesDatum(fam, cand)


def datum_2var():
    m = ideal(C2, [(1, 0), (0, 1)])
    fam = IdealFamily(m, (m,), QuotientModule.free(C2))
    cand = JointReductionCandidate(
        ((C2.monomial(1, 0), 0), (C2.monomial(0, 1), J_SOURCE)), MixedType(0, (1,))
    )
    return ReesDatum(fam, cand)


def datum_annihilated():
    # x1 kills the module: every strand contributes zero to chi.
    i1 = ideal(C2, [(1, 0)])
    j = ideal(C2, [(1, 0), (0, 1)])
    fam = IdealFamily(j, (i1,), QuotientModule(C2, ideal(C2, [(1, 0)])))
    cand = JointReductionCandidate(
        ((C2.monomial(1, 0), 0), (C2.monomial(0, 1), J_SOURCE)), MixedType(0, (1,))
    )
    return ReesDatum(fam, cand)


class TestPieceBasis:
    def test_present(self):
        d = datum_1var()
        assert rees_piece_basis(d, MultiDegree(1, (1,)), (2,)) == [C1.monomial(2)]

    def test_degree_one(self):
        # x lies in I^1, and the tower does not impose the J-power cut.
        d = datum_1var()
        assert rees_piece_basis(d, MultiDegree(1, (1,)), (1,)) == [C1.monomial(1)]

    def test_absent_below_ideal_power(self):
        d = datum_1var()
        assert rees_piece_basis(d, MultiDegree(1, (1,)), (0,)) == []

    def test_negative_degree_empty(self):
        d = datum_1var()
        assert rees_piece_basis(d, MultiDegree(-1, (1,)), (1,)) == []
        assert rees_piece_basis(d, MultiDegree(1, (-1,)), (1,)) == []

    def test_relations_kill(self):
        d = datum_annihilated()
        assert rees_piece_basis(d, MultiDegree(1, (1,)), (1, 0)) == []


class TestRank:
    def test_small_ranks(self):
        assert _rank_exact([]) == 0
        assert _rank_exact([[0, 0], [0, 0]]) == 0
        assert _rank_exact([[1, 1], [1, 1]]) == 1
        assert _rank_exact([[1, 0], [0, 1]]) == 2

    def test_against_sympy(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            mat = [[rng.randrange(-1, 2) for _ in range(cols)] for _ in range(rows)]
            assert _rank_exact(mat) == sympy.Matrix(mat).rank()


class TestStrandHomology:
    def test_alternating_sum_matches_chain_dims(self):
        d = datum_2var()
        deg = MultiDegree(3, (3,))
        for a in [(2, 4), (3, 3), (4, 2), (1, 5)]:
            chains, _ = _strand_complex(d, deg, a)
            h = koszul_strand_homology(d, deg, a)
            chain_sum = sum((-1) ** p * len(b) for p, b in enumerate(chains))
            hom_sum = sum((-1) ** p * dim for p, dim in h.items())
            assert chain_sum == hom_sum

    def test_homology_against_sympy_rank(self):
        d = datum_2var()
        deg = MultiDegree(3, (3,))
        for a in [(2, 4), (3, 3), (0, 6)]:
            chains, boundaries = _strand_complex(d, deg, a)
            ranks = [0] + [sympy.Matrix(m).rank() if m and m[0] else 0 for m in boundaries] + [0]
            expected = {}
            for p in range(len(chains)):
                hdim = len(chains[p]) - ranks[p] - ranks[p + 1]
                if hdim:
                    expected[p] = hdim
            assert koszul_strand_homology(d, deg, a) == expected

    def test_annihilated_strands_sum_to_zero(self):
        d = datum_annihilated()
        deg = MultiDegree(3, (3,))
        for a in [(0, 3), (1, 2), (0, 5), (2, 2)]:
            h = koszul_strand_homology(d, deg, a)
            assert sum((-1) ** p * dim for p, dim in h.items()) == 0


class TestEulerDirect:
    def test_1var_zero(self):
        d = datum_1var()
        base = initial_offset(d.fam)
        ev = euler_char_direct(d, MultiDegree(base, (base,)))
        assert ev.certified
        assert ev.value == 0

    def test_2var_one(self):
        d = datum_2var()
        base = initial_offset(d.fam)
        ev = euler_char_direct(d, MultiDegree(base, (base,)))
        assert ev.certified
        assert ev.value == 1

    def test_annihilated_zero(self):
        d = datum_annihilated()
        base = initial_offset(d.fam)
        ev = euler_char_direct(d, MultiDegree(base, (base,)))
        assert ev.certified
        assert ev.value == 0


class TestEulerDifference:
    def test_1var(self):
        assert euler_char_via_difference(datum_1var()).value == 0

    def test_2var(self):
        assert euler_char_via_difference(datum_2var()).value == 1

    def test_methods_agree(self):
        for d in (datum_1var(), datum_2var(), datum_annihilated()):
            base = initial_offset(d.fam)
            direct = euler_char_direct(d, MultiDegree(base, (base,) * d.fam.d))
            diff = euler_char_via_difference(d)
            assert direct.certified
            assert direct.value == diff.value

    def test_reuses_the_fitted_table(self, monkeypatch):
        inst = parse_instance(SAMPLE.read_text())
        sample = ReesDatum(inst.family, inst.candidates["x"])
        data = (sample, datum_2var())
        values = [euler_char_via_difference(d).value for d in data]
        for d in data:
            fit = interpolate(d.fam, "P")
            extent = max(d.mixed_type.as_tuple()) + 2
            assert extent <= fit.extent
            window = table_on_window(d.fam, "P", fit.base, extent)
            sliced = fit.table.values[(slice(extent),) * (d.fam.d + 1)]
            assert sliced.tolist() == window.values.tolist()

        def unexpected(*args):
            raise AssertionError("the fitted table covers this window")

        monkeypatch.setattr(koszul, "table_on_window", unexpected)
        assert [euler_char_via_difference(d).value for d in data] == values


class TestChiVerification:
    def test_recursion_2var(self):
        rep = verify_chi_recursion(datum_2var(), 0)
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 1

    def test_recursion_annihilated(self):
        rep = verify_chi_recursion(datum_annihilated(), 0)
        assert rep.verdict == Verdict.EQUAL
        assert rep.left == 0

    def test_properties_2var(self):
        d = datum_2var()
        q_prime = ideal(C2, [(1, 0)])
        rep = verify_chi_properties(d, q_prime, 2)
        assert rep.verdict == Verdict.EQUAL
        assert dict(rep.hypotheses)["chi nonnegative"]
        assert dict(rep.hypotheses)["monotone under quotient"]
