"""Unit tests for Koszul strand homology and Euler characteristics.

The per-point construction of a strand (``rees_piece_basis``,
``_strand_complex``, ``koszul_strand_homology``) and the homology of every
strand of a box (``_oracle_profile``) live here as the oracle that the
direct channel's signed piece count and buffer certificate are checked
against.
"""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from corpus import direct_chi_instances
from multimult import koszul
from multimult.hilbert import (
    FitResult,
    IdealFamily,
    MixedType,
    MultiDegree,
    initial_offset,
    interpolate,
    table_on_window,
)
from multimult.instances import parse_instance
from multimult.koszul import (
    NonConstantDifferenceError,
    _rank_exact,
    euler_char_direct,
    euler_char_via_difference,
)
from multimult.monomials import (
    Monomial,
    QuotientModule,
    RingContext,
    ideal,
    ideal_sum,
)
from multimult.reductions import (
    J_SOURCE,
    JointReductionCandidate,
    PoolPolicy,
    ReesDatum,
    search_joint_reduction,
)

C1 = RingContext(1)
C2 = RingContext(2)
C3 = RingContext(3)
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


def rees_piece_basis(datum: ReesDatum, bide: tuple[int, ...], a: tuple[int, ...]):
    """Basis of the internal-degree-a piece of I^n * M at the multidegree
    bide = (n0, n1, ..., nd), a plain tuple, since a shifted multidegree may
    have negative entries and a MultiDegree may not.

    The piece is spanned by the single monomial x^a when x^a lies in
    I^n * T + B but not in B, the multidegree is componentwise non-negative,
    and a has no negative entries; otherwise it is empty.  This is the
    definition that koszul._support_patterns vectorizes.
    """
    fam = datum.fam
    if any(b < 0 for b in bide) or any(x < 0 for x in a):
        return []
    mono = Monomial(tuple(a))
    piece = ideal_sum(fam.piece(MultiDegree(0, bide[1:])), fam.module.relations)
    if piece.contains(mono) and not fam.module.relations.contains(mono):
        return [mono]
    return []


def _strand_complex(datum: ReesDatum, deg: MultiDegree, a: tuple[int, ...]):
    """Chain bases (per exterior degree) and differential matrices of the
    strand at internal degree a, the last point of the box [0, a]."""
    subsets, present = koszul._support_patterns(datum, deg, tuple(x + 1 for x in a))
    return koszul._pattern_complex(subsets, present[-1])


def koszul_strand_homology(datum: ReesDatum, deg: MultiDegree, a: tuple[int, ...]) -> dict[int, int]:
    """Homology dimensions of one strand, by exact rank over the rationals."""
    return koszul._homology(*_strand_complex(datum, deg, a))


class TestPieceBasis:
    def test_present(self):
        d = datum_1var()
        assert rees_piece_basis(d, (1, 1), (2,)) == [C1.monomial(2)]

    def test_degree_one(self):
        # x lies in I^1, and the tower does not impose the J-power cut.
        d = datum_1var()
        assert rees_piece_basis(d, (1, 1), (1,)) == [C1.monomial(1)]

    def test_absent_below_ideal_power(self):
        d = datum_1var()
        assert rees_piece_basis(d, (1, 1), (0,)) == []

    def test_negative_degree_empty(self):
        d = datum_1var()
        assert rees_piece_basis(d, (-1, 1), (1,)) == []
        assert rees_piece_basis(d, (1, -1), (1,)) == []

    def test_relations_kill(self):
        d = datum_annihilated()
        assert rees_piece_basis(d, (1, 1), (1, 0)) == []


class TestRank:
    def test_small_ranks(self):
        assert _rank_exact([]) == 0
        assert _rank_exact([[0, 0], [0, 0]]) == 0
        assert _rank_exact([[1, 1], [1, 1]]) == 1
        assert _rank_exact([[1, 0], [0, 1]]) == 2

    def test_against_sympy(self):
        rng = random.Random(7)
        for _ in range(300):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 9)
            mat = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            assert _rank_exact(mat) == sympy.Matrix(mat).rank()

    def test_rank_deficient_against_sympy(self):
        # Products of thin factors: rank below min(rows, cols), with skipped
        # pivot columns in the middle of the elimination.
        rng = random.Random(8)
        for _ in range(100):
            rows, cols, inner = rng.randrange(2, 9), rng.randrange(2, 9), rng.randrange(1, 4)
            left = sympy.Matrix(rows, inner, lambda i, j: rng.randrange(-3, 4))
            right = sympy.Matrix(inner, cols, lambda i, j: rng.randrange(-3, 4))
            mat = (left * right).tolist()
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


def _oracle_rank(rows):
    """Rank by Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows if row]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _oracle_complex(datum, deg, a):
    """One strand built point by point: a rees_piece_basis call per exterior
    subset at its shifted multidegree and exponent, each element's
    multidegree shift read off its source tag."""
    d = datum.fam.d
    shifts = []
    for u, src in datum.cand.elements:
        if src == J_SOURCE:
            shifts.append(((1,) + (0,) * d, u.exponents))
        else:
            shifts.append(((0,) + tuple(int(i == src) for i in range(d)), u.exponents))
    n = len(shifts)
    chains = []
    for p in range(n + 1):
        basis = []
        for subset in itertools.combinations(range(n), p):
            bide = [deg.n0, *deg.n]
            exps = list(a)
            for idx in subset:
                b, e = shifts[idx]
                bide = [x - y for x, y in zip(bide, b)]
                exps = [x - y for x, y in zip(exps, e)]
            if rees_piece_basis(datum, tuple(bide), tuple(exps)):
                basis.append(subset)
        chains.append(basis)
    boundaries = []
    for p in range(1, n + 1):
        index = {s: i for i, s in enumerate(chains[p - 1])}
        mat = [[0] * len(chains[p]) for _ in chains[p - 1]]
        for col, subset in enumerate(chains[p]):
            for r in range(p):
                row = index.get(subset[:r] + subset[r + 1:])
                if row is not None:
                    mat[row][col] = (-1) ** r
        boundaries.append(mat)
    return chains, boundaries


def _oracle_profile(datum, deg, band, buffer):
    """The nonzero homology dimensions of every strand of the box
    [0, band + buffer]^m, built one strand per internal degree and keyed
    (index, internal degree), and whether the buffer beyond the band has
    none."""
    dims = {}
    certified = True
    for a in itertools.product(range(band + buffer + 1), repeat=datum.fam.ctx.num_vars):
        chains, boundaries = _oracle_complex(datum, deg, a)
        ranks = [0] + [_oracle_rank(mat) for mat in boundaries] + [0]
        for p in range(len(chains)):
            h = len(chains[p]) - ranks[p] - ranks[p + 1]
            if h:
                dims[(p, a)] = h
                certified = certified and max(a) <= band
    return dims, certified


def _band_sum(dims, band):
    """The alternating homology sum of the strands of [0, band]^m."""
    return sum((-1) ** p * dim for (p, a), dim in dims.items() if max(a) <= band)


def _oracle_direct(datum, deg):
    """euler_char_direct's band loop over the oracle profile: the value is
    the alternating homology sum over the band, the certificate the
    buffer's homology."""
    maxgd = max(1, datum.fam.max_generator_degree())
    first = (deg.n0 + sum(deg.n) + 1) * maxgd
    for doubling in range(koszul.BAND_DOUBLINGS + 1):
        band = first << doubling
        dims, certified = _oracle_profile(datum, deg, band, maxgd)
        if certified:
            break
    prov = {"multidegree": (deg.n0,) + deg.n, "band": band, "buffer": maxgd}
    return koszul.EulerValue(_band_sum(dims, band), prov, certified)


C7 = JointReductionCandidate(
    tuple((C2.monomial(*e), s) for e, s in [
        ((1, 0), 0), ((0, 1), 0), ((1, 0), 0),
        ((1, 0), J_SOURCE), ((0, 1), J_SOURCE), ((1, 0), J_SOURCE), ((0, 1), J_SOURCE),
    ]),
    MixedType(3, (3,)),
)


def datum_relations_top():
    # B = (x1^3), T = (x1, x2), and J-sourced elements of degree 2.
    fam = IdealFamily(
        ideal(C2, [(2, 0), (0, 2)]),
        (ideal(C2, [(1, 0), (0, 1)]),),
        QuotientModule(C2, ideal(C2, [(3, 0)]), ideal(C2, [(1, 0), (0, 1)])),
    )
    cand = JointReductionCandidate(
        ((C2.monomial(1, 0), 0), (C2.monomial(2, 0), J_SOURCE), (C2.monomial(0, 2), J_SOURCE)),
        MixedType(1, (1,)),
    )
    return ReesDatum(fam, cand)


def seeded_data(seed, count):
    """Certified one-ideal families in one or two variables with generators
    of degree at most 2, random relations and a searched candidate."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.choice((1, 2))
        ctx = RingContext(m)
        monos = [e for e in itertools.product(range(3), repeat=m) if 0 < sum(e) <= 2]
        j = ideal(ctx, [tuple(rng.randint(1, 2) if i == v else 0 for i in range(m)) for v in range(m)])
        i1 = ideal(ctx, rng.sample(monos, rng.randint(1, 2)))
        relations = ideal(ctx, rng.sample(monos, rng.randint(0, 1)))
        fam = IdealFamily(j, (i1,), QuotientModule(ctx, relations))
        mt = rng.choice((MixedType(0, (1,)), MixedType(1, (0,)), MixedType(1, (1,))))
        cand = search_joint_reduction(fam, mt, PoolPolicy(max_degree=2, budget=200))
        if cand is not None:
            out.append(ReesDatum(fam, cand))
    return out


def three_variable_data():
    """The koszul workload's shape, J maximal in three variables and I1
    from degree-1 generators, and one such family with relations and a
    non-unit top; one searched candidate per type."""
    x1, x2, x3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    j = ideal(C3, [x1, x2, x3])
    families = [IdealFamily(j, (ideal(C3, gens),), QuotientModule.free(C3))
                for gens in ([x1, x2], [x1], [x1, x2, x3])]
    module = QuotientModule(C3, ideal(C3, [(0, 0, 2)]), ideal(C3, [x1, x3]))
    families.append(IdealFamily(j, (ideal(C3, [x1, x2]),), module))
    out = []
    for fam in families:
        for mt in (MixedType(1, (1,)), MixedType(2, (0,)), MixedType(0, (2,))):
            cand = search_joint_reduction(fam, mt, PoolPolicy(max_degree=1, budget=200))
            assert cand is not None
            out.append(ReesDatum(fam, cand))
    return out


class TestVectorizedProfile:
    """euler_char_direct, and the Euler sum and buffer verdict of one band,
    against the homology of the same strands built point by point."""

    def assert_matches(self, datum, deg):
        direct = euler_char_direct(datum, deg)
        assert direct == _oracle_direct(datum, deg)
        return direct

    def test_relations_top_and_degree_two_elements(self):
        d = datum_relations_top()
        assert not d.fam.module.relations.is_zero() and not d.fam.module.top.is_unit()
        for deg in (MultiDegree(1, (1,)), MultiDegree(2, (1,)), MultiDegree(4, (4,))):
            self.assert_matches(d, deg)

    def test_negative_shifted_multidegrees(self):
        # Two J-sourced elements at n0 = 1 and one I-sourced at n = 0 put
        # some subsets below the origin.
        for d in (datum_2var(), datum_relations_top()):
            self.assert_matches(d, MultiDegree(1, (0,)))

    def test_band_doubles(self):
        # At multidegree 0 the strands have homology at every internal
        # degree, so every band's buffer fails and the band doubles to the cap.
        for d in (datum_1var(), datum_relations_top()):
            deg = MultiDegree(0, (0,))
            ev = self.assert_matches(d, deg)
            first = max(1, d.fam.max_generator_degree())
            assert ev.provenance["band"] == first * 2 ** koszul.BAND_DOUBLINGS
            assert not ev.certified

    def test_seven_elements_on_a_tiny_band(self):
        # 2^7 exterior subsets: a pattern does not fit a 64-bit mask.  At
        # (2, (2,)) on band 3 some internal degrees have patterns that
        # differ only in subsets of four or more elements.
        fam = IdealFamily(ideal(C2, [(1, 0), (0, 1)]), (ideal(C2, [(1, 0), (0, 1)]),),
                          QuotientModule.free(C2))
        d = ReesDatum(fam, C7)
        for deg in (MultiDegree(1, (1,)), MultiDegree(2, (2,))):
            dims, certified = _oracle_profile(d, deg, 3, 1)
            assert dims
            assert koszul._band_euler(d, deg, 3, 1) == (_band_sum(dims, 3), certified)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_families(self, seed):
        for d in seeded_data(seed, 4):
            base = initial_offset(d.fam)
            for deg in (MultiDegree(base, (base,)), MultiDegree(1, (base,))):
                self.assert_matches(d, deg)

    def test_three_variable_families(self):
        # Small bands: the oracle builds every strand point by point.
        nonzero = 0
        for d in three_variable_data():
            for deg in (MultiDegree(1, (1,)), MultiDegree(2, (1,)), MultiDegree(0, (2,))):
                for band in (2, 3):
                    dims, certified = _oracle_profile(d, deg, band, 1)
                    assert koszul._band_euler(d, deg, band, 1) == (_band_sum(dims, band), certified)
                    nonzero += bool(dims)
        assert nonzero >= 50

    def test_single_strands(self):
        d = datum_relations_top()
        deg = MultiDegree(2, (2,))
        for a in itertools.product(range(6), repeat=2):
            assert _strand_complex(d, deg, a) == _oracle_complex(d, deg, a)


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


    def test_dim4_sample_candidate_x(self):
        inst = parse_instance(SAMPLE.read_text())
        d = ReesDatum(inst.family, inst.candidates["x"])
        base = interpolate(inst.family, "P").base
        ev = euler_char_direct(d, MultiDegree(base, (base,) * inst.family.d))
        assert ev.certified
        assert ev.value == euler_char_via_difference(d).value
        assert ev.provenance == {"multidegree": (5, 5, 5), "band": 16, "buffer": 1}

    def test_corpus_direct_channel_is_pinned(self):
        # Value, band and certified flag of every direct chi in the corpus,
        # pinned by digest.
        rows = []
        for inst in direct_chi_instances():
            d = ReesDatum(inst.fam, inst.cand)
            base = interpolate(inst.fam, "P").base
            ev = euler_char_direct(d, MultiDegree(base, (base,) * inst.fam.d))
            rows.append([inst.label, ev.value, ev.provenance["band"], ev.certified])
        assert len(rows) == 127 and all(certified for _, _, _, certified in rows)
        assert Counter(value for _, value, _, _ in rows) == {0: 103, 1: 15, 2: 9}
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "c1a55cd0da0f5f0196901ccf0722a317a5dfe710c2fc30d7037841aab8208b26"


def exterior_subsets(n):
    """The exterior subsets of n elements, by size and then lexicographically,
    the column order of a support pattern."""
    return [s for p in range(n + 1) for s in itertools.combinations(range(n), p)]


def pattern_case(n, rows):
    """(subsets, rows) for n elements, each row given by its subsets' columns."""
    subsets = exterior_subsets(n)
    present = np.zeros((len(rows), len(subsets)), dtype=bool)
    for r, columns in enumerate(rows):
        present[r, columns] = True
    return subsets, present


@st.composite
def pattern_rows(draw):
    """(subsets, rows): the exterior subsets of n = 1..7 elements and up to
    six support-pattern rows over them.  A row is a few single subsets and
    a few pairs S, S + {e}, whose boundary map is a unit, so both acyclic
    and non-acyclic rows come up; at n = 7 a pattern spans three key
    words."""
    n = draw(st.integers(1, 7))
    subsets = exterior_subsets(n)
    column = {s: i for i, s in enumerate(subsets)}
    index = st.integers(0, len(subsets) - 1)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        columns = draw(st.lists(index, max_size=3))
        for i in draw(st.lists(index, max_size=3)):
            e = draw(st.integers(0, n - 1))
            if e not in subsets[i]:
                columns += [i, column[tuple(sorted(subsets[i] + (e,)))]]
        rows.append(columns)
    return pattern_case(n, rows)


class TestEulerPoincare:
    """The identity the direct value rests on, and the buffer certificate,
    on support patterns that need not come from a strand."""

    @settings(max_examples=300, deadline=None)
    @given(pattern_rows())
    # Rows equal in their first key word: the empty pattern, acyclic, and
    # one subset past the first 63 columns, not.
    @example(pattern_case(7, [[], [100]]))
    @example(pattern_case(7, [[127], []]))
    def test_chain_count_and_acyclic(self, case):
        subsets, rows = case
        acyclic = []
        for row in rows:
            h = koszul._homology(*koszul._pattern_complex(subsets, row))
            chain_sum = sum((-1) ** len(s) for s, here in zip(subsets, row) if here)
            assert chain_sum == sum((-1) ** p * dim for p, dim in h.items())
            acyclic.append(not h)
        assert koszul._acyclic(subsets, rows) == all(acyclic)


class TestUncertified:
    def test_both_channels_refuse(self):
        # x1 from I1 and from J: x2^(n0+n) stays outside the right side.
        m = ideal(C2, [(1, 0), (0, 1)])
        fam = IdealFamily(m, (m,), QuotientModule.free(C2))
        x1 = C2.monomial(1, 0)
        d = ReesDatum(fam, JointReductionCandidate(((x1, 0), (x1, J_SOURCE)), MixedType(0, (1,))))
        assert not d.certificate.holds
        message = "^candidate failed joint-reduction certification$"
        with pytest.raises(ValueError, match=message):
            euler_char_via_difference(d)
        with pytest.raises(ValueError, match=message):
            euler_char_direct(d, MultiDegree(2, (2,)))


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

    def test_bumped_window_value_is_refused(self, monkeypatch):
        # One window value off by one breaks the differenced window, wherever
        # it sits: every value enters some k-th difference with a nonzero
        # binomial weight.
        inst = parse_instance(SAMPLE.read_text())
        data = (ReesDatum(inst.family, inst.candidates["x"]), datum_2var())
        rng = random.Random(11)
        for d in data:
            fit = interpolate(d.fam, "P")
            extent = max(d.mixed_type.as_tuple()) + 2
            for point in ((0,) * (d.fam.d + 1),
                          tuple(rng.randrange(extent) for _ in range(d.fam.d + 1))):
                values = fit.values.copy()
                values[point] += 1
                bumped = FitResult(fit.poly, fit.base, fit.extent, fit.band_base,
                                   fit.band_extent, values)
                monkeypatch.setattr(koszul, "interpolate", lambda fam, which: bumped)
                with pytest.raises(NonConstantDifferenceError):
                    euler_char_via_difference(d)
            monkeypatch.undo()
            assert euler_char_via_difference(d).value == (0 if d is data[0] else 1)

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
            sliced = fit.values[(slice(extent),) * (d.fam.d + 1)]
            assert sliced.tolist() == window.tolist()

        def unexpected(*args):
            raise AssertionError("the fitted table covers this window")

        monkeypatch.setattr(koszul, "table_on_window", unexpected)
        assert [euler_char_via_difference(d).value for d in data] == values


def chi_recursion_sides(datum: ReesDatum, i: int):
    """Both sides of the chi recursion chi(M) = chi(M/x1*M) - chi(0_M : x1)
    for the first I_i-sourced element x1, all by the DIFFERENCE method."""
    elements = list(datum.cand.elements)
    x1 = elements.pop(next(idx for idx, (_, s) in enumerate(elements) if s == i))[0]
    mt = datum.mixed_type
    k = tuple(ki - 1 if idx == i else ki for idx, ki in enumerate(mt.k))
    smaller = JointReductionCandidate(tuple(elements), MixedType(mt.k0, k))
    module = datum.fam.module
    quot, tors = (
        euler_char_via_difference(ReesDatum(datum.fam.with_module(mod), smaller)).value
        for mod in (module.quotient_by_elements([x1]), module.annihilator_of(x1))
    )
    return euler_char_via_difference(datum).value, quot - tors


class TestChiVerification:
    def test_recursion_2var(self):
        assert chi_recursion_sides(datum_2var(), 0) == (1, 1)

    def test_recursion_annihilated(self):
        assert chi_recursion_sides(datum_annihilated(), 0) == (0, 0)
