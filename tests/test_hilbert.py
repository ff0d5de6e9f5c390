"""Unit tests for Hilbert functions, interpolation, and mixed multiplicities."""

import hashlib
import itertools
import json
import random
from functools import partial
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import build_corpus
from oracles import box_count, direct_piece, j_power_floor_f
from multimult import hilbert, monomials
from multimult.cli import run_request
from multimult.hilbert import (
    BinomialBasisPolynomial,
    IdealFamily,
    MixedType,
    MultiDegree,
    StabilizationError,
    _fit_window,
    _shift_matrix,
    interpolate,
    hf_F,
    hf_P,
    mixed_multiplicity,
    table_on_window,
    window_points,
)
from multimult.instances import parse_instance
from multimult.monomials import (
    MINUS_INFINITY,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    _count_difference,
    ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    krull_dim,
)

C1 = RingContext(1)
C2 = RingContext(2)
C3 = RingContext(3)
C4 = RingContext(4)
SAMPLE = Path(__file__).resolve().parent.parent / "docs" / "instances" / "dim4_joint_reduction.json"


def family_1var():
    x = ideal(C1, [(1,)])
    return IdealFamily(x, (x,), QuotientModule.free(C1))


def family_2var():
    m = ideal(C2, [(1, 0), (0, 1)])
    return IdealFamily(m, (m,), QuotientModule.free(C2))


def family_dim4():
    i1 = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    i2 = ideal(C4, [(0, 0, 1, 0)])
    j = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    return IdealFamily(j, (i1, i2), QuotientModule.free(C4))


class TestFamilyValidation:
    def test_j_must_be_primary(self):
        with pytest.raises(ValueError):
            IdealFamily(ideal(C2, [(1, 0)]), (ideal(C2, [(1, 0)]),), QuotientModule.free(C2))

    def test_need_an_ideal(self):
        m = ideal(C2, [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            IdealFamily(m, (), QuotientModule.free(C2))


def piece_by_generators(fam, deg):
    """J^n0 * I^n * T built one factor at a time, as pairwise generator sums
    with divisible ones dropped, in plain Python."""
    gens = set(fam.module.top.gens)
    factors = [fam.j] * deg.n0 + [i for i, ni in zip(fam.ideals, deg.n) for _ in range(ni)]
    for factor in factors:
        sums = {tuple(a + b for a, b in zip(g, h)) for g in gens for h in factor.gens}
        gens = {
            g for g in sums
            if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in sums)
        }
    return ideal(fam.ctx, sorted(gens))


class TestPiece:
    """IdealFamily.piece against the per-generator product oracle."""

    def test_every_corpus_family_at_small_degrees(self):
        for fam in {inst.fam for inst in build_corpus()}:
            for deg in itertools.product(range(3), repeat=fam.d + 1):
                deg = MultiDegree(deg[0], deg[1:])
                assert fam.piece(deg) == piece_by_generators(fam, deg), (fam, deg)

    def test_module_with_a_top(self):
        # The corpus modules are cyclic; T = (x1, x2^2) is not the unit ideal.
        top = ideal(C2, [(1, 0), (0, 2)])
        fam = IdealFamily(ideal(C2, [(2, 0), (0, 1)]), (ideal(C2, [(1, 1), (0, 2)]),),
                          QuotientModule(C2, ideal(C2, [(3, 0)]), top))
        base = interpolate(fam, "P").base
        points = [MultiDegree(n0, (n1,)) for n0, n1 in itertools.product(range(3), repeat=2)]
        for deg in points + [MultiDegree(base, (base,)), MultiDegree(0, (base + 1,))]:
            assert fam.piece(deg) == piece_by_generators(fam, deg), deg


class TestHilbertFunctions:
    def test_hf_p_1var(self):
        fam = family_1var()
        for n0 in range(4):
            for n in range(4):
                assert hf_P(fam, MultiDegree(n0, (n,))) == 1

    def test_hf_f_1var(self):
        fam = family_1var()
        for n0 in range(4):
            for n in range(4):
                assert hf_F(fam, MultiDegree(n0, (n,))) == n0

    def test_hf_f_zero_at_n0_zero(self):
        assert hf_F(family_2var(), MultiDegree(0, (5,))) == 0

    def test_zero_module(self):
        m = ideal(C2, [(1, 0), (0, 1)])
        fam = IdealFamily(m, (m,), QuotientModule(C2, MonomialIdeal.unit(C2)))
        assert hf_P(fam, MultiDegree(2, (3,))) == 0
        assert hf_F(fam, MultiDegree(2, (3,))) == 0

    def test_hf_p_2var(self):
        # ell(m^t / m^(t+1)) = t+1 in two variables
        fam = family_2var()
        assert hf_P(fam, MultiDegree(2, (3,))) == 6


class TestBinomialBasisPolynomial:
    def test_evaluate(self):
        p = BinomialBasisPolynomial(2, {(1, 1): 1})
        assert p.evaluate((2, 3)) == 12

    def test_total_degree(self):
        p = BinomialBasisPolynomial(2, {(2, 1): 3})
        assert p.total_degree == 3
        assert BinomialBasisPolynomial(2, {}).total_degree == MINUS_INFINITY


def generalized_binomial(x: int, j: int) -> int:
    """binom(x, j) for any integer x, as the falling factorial over j!."""
    num = 1
    for i in range(j):
        num *= x - i
    return num // factorial(j)


@st.composite
def polynomial_and_type(draw):
    """A coefficient dict on the binomial basis in 1-4 axes, and a type."""
    num_axes = draw(st.integers(1, 4))
    index = st.tuples(*(st.integers(0, 4 - num_axes // 2) for _ in range(num_axes)))
    coeffs = draw(st.dictionaries(index, st.integers(-5, 5), max_size=5))
    mt = draw(st.tuples(*(st.integers(0, 3) for _ in range(num_axes))))
    return BinomialBasisPolynomial(num_axes, coeffs), mt


class TestClosedForms:
    """The index readings of the binomial basis against pointwise oracles."""

    @settings(max_examples=300, deadline=None)
    @given(polynomial_and_type())
    def test_difference_is_constant_exactly_when_mixed_multiplicity_is_defined(self, case):
        # On a box wider than degree + max(t) per axis, the t-th difference
        # of the values is constant exactly when the polynomial's t-th
        # difference is.  mixed_multiplicity reads only the coefficients.
        poly, t = case
        extent = max(0, poly.total_degree) + max(t) + 2
        values = np.array(
            [poly.evaluate(pt) for pt in itertools.product(range(extent), repeat=len(t))],
            dtype=object,
        ).reshape((extent,) * len(t))
        for axis, count in enumerate(t):
            values = np.diff(values, n=count, axis=axis)
        constant = values.flat[0] if (values == values.flat[0]).all() else None
        fit = hilbert.FitResult(poly, 1, 2, 3, 2, np.zeros(1, dtype=np.int64))
        fam = SimpleNamespace(d=len(t) - 1)
        with mock.patch.object(hilbert, "interpolate", lambda fam, which: fit):
            value, defined = mixed_multiplicity(fam, MixedType(t[0], t[1:]))
        assert defined == (constant is not None)
        if defined:
            assert value == constant == poly.coefficient(t)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 8))
    def test_shift_rows_reproduce_shifted_binomials(self, base, degree):
        shift = _shift_matrix(base, degree)
        for v in range(base + degree + 3):
            for j, row in enumerate(shift):
                lhs = sum(c * comb(v + k, k) for k, c in enumerate(row))
                assert lhs == generalized_binomial(v - base, j), (base, degree, v, j)


class TestInterpolation:
    def test_constant_1var(self):
        fit = interpolate(family_1var(), "P")
        assert fit.poly.coeffs == {(0, 0): 1}

    def test_f_1var(self):
        fit = interpolate(family_1var(), "F")
        # F(n0, n) = n0 = binom(n0+1,1) - 1
        assert fit.poly.coeffs == {(1, 0): 1, (0, 0): -1}

    def test_2var_top_coefficient(self):
        # P(n0, n) = n0 + n + 1; the coefficient at (0,(1)) is the classical
        # mixed multiplicity e(m|m) = 1.
        fit = interpolate(family_2var(), "P")
        assert fit.poly.coefficient((0, 1)) == 1
        assert fit.poly.coefficient((1, 0)) == 1
        assert fit.poly.total_degree == 1

    def test_degree_law(self):
        for fam in (family_1var(), family_2var(), family_dim4()):
            q = krull_dim(fam.saturated_module())
            fit = interpolate(fam, "P")
            assert fit.poly.total_degree == q - 1

    def test_zero_module_gives_zero_poly(self):
        m = ideal(C2, [(1, 0), (0, 1)])
        fam = IdealFamily(m, (m,), QuotientModule(C2, MonomialIdeal.unit(C2)))
        assert not interpolate(fam, "P").poly.coeffs

    def test_f_p_compatibility(self):
        # The first difference of F along axis 0 equals P on a common window.
        for fam in (family_1var(), family_2var()):
            fit_f = interpolate(fam, "F")
            base, extent = fit_f.base, fit_f.extent
            tbl_f = table_on_window(fam, "F", base, extent)
            tbl_p = table_on_window(fam, "P", base, extent)
            diff = np.diff(tbl_f, axis=0)
            sliced = tbl_p[tuple(slice(0, s) for s in diff.shape)]
            assert (diff == sliced).all()

    def test_corpus_f_fits_are_pinned(self):
        # Each distinct corpus family's F fit: the label of its first
        # instance, its coefficients, base and window values, pinned by a
        # digest computed when hf_F still counted with the J^n0 floor.
        payloads, seen = [], set()
        for inst in build_corpus():
            if inst.fam in seen:
                continue
            seen.add(inst.fam)
            fit = interpolate(inst.fam, "F")
            coeffs = sorted([list(k), v] for k, v in fit.poly.coeffs.items())
            payloads.append([inst.label, coeffs, fit.base, fit.values.tolist()])
        assert len(payloads) == 119
        digest = hashlib.sha256(json.dumps(payloads).encode()).hexdigest()
        assert digest == "42a9e645d6056071fca40ec1edd75132e2ad7e8003dd9c6c93d58950e63fb7e2"


class TestStabilization:
    """A window that never stabilizes raises StabilizationError, which logs
    one residual entry per base tried: start, 2 start, ..., 64 start."""

    def test_non_polynomial_tries_every_base(self):
        # 2^v has nonzero differences of every order: no window is
        # consistent with a line.
        with pytest.raises(StabilizationError, match="up to base 192") as caught:
            _fit_window(lambda pt: 2 ** pt[0], 1, 1, 3)
        bases = [3 * 2**k for k in range(7)]
        assert caught.value.residuals == [(b, "inconsistent fit system") for b in bases]

    def test_band_misses_are_logged(self):
        # v on the first window {1, 2, 3}, 2^v beyond it: the line through
        # the window misses the band (4,), (5,), and no later window fits.
        def value(pt):
            return pt[0] if pt[0] <= 3 else 2 ** pt[0]

        with pytest.raises(StabilizationError, match="up to base 64") as caught:
            _fit_window(value, 1, 1, 1)
        first, *rest = caught.value.residuals
        assert first == (1, [((4,), 16 - 4), ((5,), 32 - 5)])
        assert rest == [(2**k, "inconsistent fit system") for k in range(1, 7)]


class TestIntegerFit:
    """The forward-difference fit against polynomials built on the binomial
    basis, where the answer is known by construction."""

    @staticmethod
    def _cases():
        rng = random.Random(20210309)
        for _ in range(200):
            num_axes, degree, base = rng.randint(1, 3), rng.randint(0, 4), rng.randint(1, 12)
            indices = [
                idx
                for idx in itertools.product(range(degree + 1), repeat=num_axes)
                if sum(idx) <= degree
            ]
            coeffs = {idx: rng.randint(-6, 6) for idx in indices}
            yield rng, num_axes, degree, base, coeffs

    @staticmethod
    def _evaluate(coeffs, pt):
        total = 0
        for idx, c in coeffs.items():
            for v, k in zip(pt, idx):
                c *= comb(v + k, k)
            total += c
        return total

    def test_recovers_coefficients(self):
        for _, num_axes, degree, base, coeffs in self._cases():
            fit = _fit_window(lambda pt: self._evaluate(coeffs, pt), num_axes, degree, base)
            assert fit.base == base
            assert fit.poly.coeffs == {idx: c for idx, c in coeffs.items() if c}

    def test_bumped_box_value_rejects_window(self):
        for rng, num_axes, degree, base, coeffs in self._cases():
            bumped = tuple(rng.randrange(base, base + degree + 2) for _ in range(num_axes))
            delta = rng.choice((-1, 1))

            def value(pt):
                return self._evaluate(coeffs, pt) + (delta if pt == bumped else 0)

            fit = _fit_window(value, num_axes, degree, base)
            assert fit.base > base
            assert fit.poly.coeffs == {idx: c for idx, c in coeffs.items() if c}


class TestNextTopBottom:
    """hf_P takes J * top as the piece at the next point in n0; it must be
    the same ideal, and hf_P must equal the count with the bottom built as
    top * J."""

    @staticmethod
    def _check(fam, deg):
        q = fam.module.relations
        top = fam.piece(deg)
        bottom = ideal_product(top, fam.j)
        assert fam.piece(MultiDegree(deg.n0 + 1, deg.n)) == bottom
        expected = _count_difference(ideal_sum(top, q), ideal_sum(bottom, q), colon_floor=fam.j)
        assert hf_P(fam, deg) == expected

    def test_every_corpus_family(self):
        families = {inst.fam for inst in build_corpus()}
        for fam in families:
            fit = interpolate(fam, "P")
            for corner in (fit.base, fit.band_base):
                self._check(fam, MultiDegree(corner, (corner,) * fam.d))

    def test_module_with_a_top(self):
        # T = (x1, x2^2) and relations (x1^3): a subquotient, not a cyclic module.
        top = ideal(C2, [(1, 0), (0, 2)])
        fam = IdealFamily(ideal(C2, [(2, 0), (0, 1)]), (ideal(C2, [(1, 1), (0, 2)]),),
                          QuotientModule(C2, ideal(C2, [(3, 0)]), top))
        for n0, n1 in itertools.product(range(4), range(4)):
            self._check(fam, MultiDegree(n0, (n1,)))


def floorless_p(fam, deg):
    """hf_P counted by the per-generator colon analysis, with no floor, on
    the directly built piece."""
    q = fam.module.relations
    top = direct_piece(fam, deg)
    return box_count(ideal_sum(top, q), ideal_sum(ideal_product(top, fam.j), q))


def floorless_f(fam, deg):
    """hf_F counted by the per-generator colon analysis, with no floor, on
    the directly built piece."""
    q = fam.module.relations
    top = direct_piece(fam, MultiDegree(0, deg.n))
    bottom = ideal_product(top, ideal_power(fam.j, deg.n0))
    return box_count(ideal_sum(top, q), ideal_sum(bottom, q))


def count_floor_enumerations(monkeypatch):
    """The ideals whose standard monomials get enumerated from now on."""
    seen = []
    enumerate_rows = monomials._standard_rows

    def counted(w):
        seen.append(w)
        return enumerate_rows(w)

    monkeypatch.setattr(monomials, "_standard_rows", counted)
    return seen


class TestColonFloor:
    """hf_P counts with the colon floor J, whose standard monomials are kept
    on the floor ideal; with standard set {1} the candidates are top's own
    generators.  hf_F sums hf_P values, so it counts with that floor too.
    Both must equal the floor-less count, and each floor ideal is enumerated
    once."""

    def test_every_corpus_family_against_the_floorless_count(self):
        families = {inst.fam for inst in build_corpus()}
        standard_sizes = set()
        for fam in families:
            standard_sizes.add(len(fam.j.standard[0]))
            for which, hf, floorless in (("P", hf_P, floorless_p), ("F", hf_F, floorless_f)):
                fit = interpolate(fam, which)
                for corner in (fit.base, fit.band_base):
                    deg = MultiDegree(corner, (corner,) * fam.d)
                    assert hf(fam, deg) == floorless(fam, deg), (fam.j, which, corner)
        # J maximal (standard set {1}) and J not maximal both occur.
        assert 1 in standard_sizes and max(standard_sizes) > 1

    def test_sample_mixed_enumerates_the_floor_once(self, monkeypatch):
        seen = count_floor_enumerations(monkeypatch)
        evals = []
        evaluate = hilbert.hf_P
        monkeypatch.setattr(hilbert, "hf_P", lambda fam, deg: evals.append(deg) or evaluate(fam, deg))
        inst = parse_instance(SAMPLE.read_text(), SAMPLE.name)
        run_request(inst, next(r for r in inst.requests if r["command"] == "mixed"))
        assert len(evals) == 133
        assert seen == [inst.family.j]

    def test_hf_f_enumerates_only_j(self, monkeypatch):
        # A counting-style family: J has pure powers of degree up to 2 and a
        # mixed generator, so every J^n0 has many standard monomials, and
        # none of them is enumerated.
        # A fresh ring, so no power of an equal J kept from another test
        # arrives with its standard monomials already enumerated.
        ctx = RingContext(3)
        j = ideal(ctx, [(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1)])
        fam = IdealFamily(j, (ideal(ctx, [(1, 0, 0), (0, 1, 0)]),), QuotientModule.free(ctx))
        seen = count_floor_enumerations(monkeypatch)
        calls = spy_counts(monkeypatch)
        for n0, n1 in itertools.product(range(5), range(4)):
            assert hf_F(fam, MultiDegree(n0, (n1,))) == floorless_f(fam, MultiDegree(n0, (n1,)))
        assert seen == [j]
        # One count per P value below the grid's top row, each on floor J.
        assert len(calls) == 4 * 4
        assert all(floor is fam.j for _, _, floor in calls)

    def test_floor_with_no_standard_monomials_counts_zero(self):
        # T inside B: the annihilator B : T is the unit ideal, with no
        # standard monomial, so there is no candidate.
        b = ideal(C2, [(2, 0), (1, 1)])
        t = ideal(C2, [(3, 0), (1, 2)])
        unit = MonomialIdeal.unit(C2)
        assert len(unit.standard[0]) == 0
        assert _count_difference(ideal_sum(t, b), b, unit) == 0
        assert QuotientModule(C2, b, t).annihilator() == unit
        assert QuotientModule(C2, b, t).length() == 0

    def test_unit_top_against_its_own_floor(self):
        for w in (ideal(C2, [(3, 0), (1, 1), (0, 2)]),
                  ideal(C3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]),
                  ideal(C2, [(1, 0), (0, 1)])):
            expected = len(w.standard[0])
            assert _count_difference(MonomialIdeal.unit(w.ctx), w, w) == expected
            assert expected == box_count(MonomialIdeal.unit(w.ctx), w)

    def test_cyclic_length_enumerates_the_floor_once(self, monkeypatch):
        b = ideal(C3, [(3, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])
        seen = count_floor_enumerations(monkeypatch)
        module = QuotientModule(C3, b)
        lengths = [module.length() for _ in range(3)]
        assert lengths == [box_count(MonomialIdeal.unit(C3), b)] * 3
        assert seen == [b]


def spy_counts(monkeypatch):
    """The arguments of every length count the Hilbert functions make from
    now on."""
    calls = []
    count = hilbert._count_difference
    monkeypatch.setattr(hilbert, "_count_difference", lambda *args: calls.append(args) or count(*args))
    return calls


@st.composite
def content_families(draw):
    """A family in 2-4 variables whose ideals carry contents.  J holds a
    power of every variable; each I_i is principal, has a common factor, or
    is drawn freely; the top is sometimes not the unit ideal; the relations
    are zero, drawn freely (so Q : c(n) stabilizes), or hold the generator
    of a principal I_i (so Q : c(n) becomes the unit ideal)."""
    m = draw(st.integers(2, 4))
    ctx = RingContext(m)

    def rows(top, **kwargs):
        return st.lists(st.tuples(*(st.integers(0, top) for _ in range(m))), **kwargs)

    pure = [tuple(draw(st.integers(1, 2)) if j == i else 0 for j in range(m)) for i in range(m)]
    j = ideal(ctx, pure + draw(rows(1, max_size=2)))
    ideals = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["principal", "common", "drawn"]))
        if kind == "principal":
            gens = draw(rows(2, min_size=1, max_size=1))
        elif kind == "common":
            (factor,) = draw(rows(1, min_size=1, max_size=1))
            gens = [tuple(a + b for a, b in zip(factor, g)) for g in draw(rows(1, min_size=2, max_size=3))]
        else:
            gens = draw(rows(2, min_size=1, max_size=3))
        ideals.append(ideal(ctx, gens))
    top = ideal(ctx, draw(rows(1, min_size=1, max_size=2)))
    relations_kind = draw(st.sampled_from(["zero", "drawn", "principal"]))
    relations = draw(rows(3, min_size=1, max_size=2)) if relations_kind != "zero" else []
    principal = [i.gens[0] for i in ideals if len(i.gens) == 1]
    if relations_kind == "principal" and principal:
        relations = [draw(st.sampled_from(principal))]
    return IdealFamily(j, tuple(ideals), QuotientModule(ctx, ideal(ctx, relations), top))


class TestFAsSumOfP:
    """hf_F(n0, n) is the sum of hf_P(k, n) over k < n0, since length is
    additive along I^n M, J I^n M, ..., J^n0 I^n M.  It must equal the one
    count with J^n0 as its floor and the floor-less count."""

    @settings(max_examples=100, deadline=None)
    @given(content_families(), st.integers(0, 4), st.data())
    def test_against_the_j_power_floor(self, fam, n0, data):
        n = tuple(data.draw(st.integers(0, 3)) for _ in range(fam.d))
        deg = MultiDegree(n0, n)
        assert hf_F(fam, deg) == j_power_floor_f(fam, deg) == floorless_f(fam, deg)
        assert hf_F(fam, MultiDegree(0, n)) == 0


class TestContentFreeCounts:
    """Each Hilbert value is counted on the content-free piece X'(n0, n)
    modulo Q : c(n), once per memo key on the family, and piece(n0, n) is
    c(n) X'(n0, n)."""

    @settings(max_examples=150, deadline=None)
    @given(content_families(), st.integers(0, 2))
    def test_against_the_direct_floorless_count(self, fam, base):
        for pt in window_points(fam.d + 1, base, 2):
            deg = MultiDegree(pt[0], pt[1:])
            assert fam.piece(deg) == direct_piece(fam, deg), deg
            assert hf_P(fam, deg) == floorless_p(fam, deg), ("P", deg)
            assert hf_F(fam, deg) == floorless_f(fam, deg), ("F", deg)
        # An equal family from the same parts keeps its own memo.
        twin = IdealFamily(fam.j, fam.ideals, fam.module)
        assert twin == fam and not twin._hilbert_values
        deg = MultiDegree(base + 1, (base,) * fam.d)
        assert hf_P(twin, deg) == hf_P(fam, deg)

    @pytest.mark.parametrize("relations, counts", [
        # Q = 0: one count per (n0, n1), whatever n2.
        ([], 2),
        # Q : x3^n2 = (x1 x3^(2 - n2)) changes twice, then stays (x1).
        ([(1, 0, 2)], 6),
        # Q : x3^n2 is the unit ideal once n2 >= 1.
        ([(0, 0, 1)], 4),
    ])
    def test_principal_axis_counts_once_per_colon(self, monkeypatch, relations, counts):
        j = ideal(C3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        fam = IdealFamily(j, (ideal(C3, [(1, 0, 0), (0, 1, 0)]), ideal(C3, [(0, 0, 1)])),
                          QuotientModule(C3, ideal(C3, relations)))
        calls = spy_counts(monkeypatch)
        for n0, n1, n2 in itertools.product((2,), (1, 2), range(5)):
            deg = MultiDegree(n0, (n1, n2))
            assert hf_P(fam, deg) == floorless_p(fam, deg), deg
        assert len(calls) == counts

    def test_common_factor_is_divided_out(self, monkeypatch):
        # I1 = x1 * (x2, x3): the counts see (x2, x3)^n1, not I1^n1.
        i1 = ideal(C3, [(1, 1, 0), (1, 0, 1)])
        j = ideal(C3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
        fam = IdealFamily(j, (i1,), QuotientModule(C3, ideal(C3, [(3, 2, 0)])))
        calls = spy_counts(monkeypatch)
        deg = MultiDegree(1, (2,))
        assert hf_P(fam, deg) == floorless_p(fam, deg)
        ((top, bot, floor),) = calls
        part = ideal(C3, [(0, 1, 0), (0, 0, 1)])
        assert fam.content_free_piece(1, (2,)) == ideal_product(j, ideal_power(part, 2))
        assert floor == j
        # Q : x1^2 = (x1 x2^2) enters both sides of the count.
        assert top.contains(C3.monomial(1, 2, 0)) and bot.contains(C3.monomial(1, 2, 0))
        assert fam.piece(deg) == direct_piece(fam, deg)
        assert fam.content((2,))[0] == (2, 0, 0)

    def test_sample_mixed_reuses_counts(self, monkeypatch):
        calls = spy_counts(monkeypatch)
        evals = []
        evaluate = hilbert.hf_P
        monkeypatch.setattr(hilbert, "hf_P", lambda fam, deg: evals.append(deg) or evaluate(fam, deg))
        inst = parse_instance(SAMPLE.read_text(), SAMPLE.name)
        run_request(inst, next(r for r in inst.requests if r["command"] == "mixed"))
        # I2 = (x3) is principal and M = A, so n2 never enters a count.
        assert len(evals) == 133
        assert len(calls) == 29
        assert len({(deg.n0, deg.n[0]) for deg in evals}) == 29

    def test_two_parses_keep_their_own_memo(self, monkeypatch):
        first, second = (parse_instance(SAMPLE.read_text(), SAMPLE.name).family for _ in range(2))
        assert first == second and hash(first) == hash(second)
        calls = spy_counts(monkeypatch)
        deg = MultiDegree(3, (2, 5))
        assert hf_P(first, deg) == hf_P(second, deg)
        assert len(calls) == 2
        assert hf_P(first, MultiDegree(3, (2, 9))) == hf_P(second, deg)
        assert len(calls) == 2
        assert first._hilbert_values is not second._hilbert_values

    def test_piece_shift_near_int64(self):
        # c(n) = x2^(2 (2^62 - 1)), of degree 2^63 - 2, times J^n0.
        j = ideal(C2, [(1, 0), (0, 1)])
        fam = IdealFamily(j, (j, ideal(C2, [(0, 2**62 - 1)])), QuotientModule.free(C2))
        got = fam.piece(MultiDegree(1, (0, 2)))
        assert got.gens == ((0, 2**63 - 1), (1, 2**63 - 2))
        assert got.degrees.tolist() == [2**63 - 1] * 2
        for deg in (MultiDegree(2, (0, 2)), MultiDegree(1, (1, 2)), MultiDegree(0, (0, 3))):
            with pytest.raises(OverflowError):
                fam.piece(deg)
        # c(n) = (2^62, 2^62): each exponent fits int64 and the degree does
        # not, so the Hilbert values there raise as the piece does.
        fam = IdealFamily(j, (ideal(C2, [(2**61, 2**61)]),), QuotientModule.free(C2))
        assert fam.content((1,))[2] == 2**62
        for evaluate in (fam.piece, partial(hf_P, fam), partial(hf_F, fam)):
            with pytest.raises(OverflowError):
                evaluate(MultiDegree(1, (2,)))

    def test_zero_pieces_with_content(self):
        # A zero top, and a zero I_2 beside a principal I_1: the shifted
        # content-free piece is the zero ideal, and every value is 0.
        j = ideal(C2, [(1, 0), (0, 1)])
        zero = MonomialIdeal.zero(C2)
        families = (
            IdealFamily(j, (ideal(C2, [(1, 0)]),), QuotientModule(C2, zero, zero)),
            IdealFamily(j, (ideal(C2, [(1, 1)]), zero), QuotientModule.free(C2)),
        )
        for fam in families:
            deg = MultiDegree(1, (2,) * fam.d)
            assert fam.piece(deg).is_zero() and direct_piece(fam, deg).is_zero()
            assert hf_P(fam, deg) == hf_F(fam, deg) == 0

    def test_negative_exponents_are_refused(self):
        # The sample family, and a family without content whose I1 = (1)
        # never reaches IdealFamily.content.
        unit_axis = IdealFamily(ideal(C2, [(1, 0), (0, 1)]), (MonomialIdeal.unit(C2),),
                                QuotientModule.free(C2))
        assert unit_axis._content_split[2] is None
        cases = [(family_dim4(), pt) for pt in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (0, -1, 1))]
        cases += [(unit_axis, pt) for pt in ((1, -1), (-1, 1), (-1, 0))]
        for fam, pt in cases:
            for evaluate in (fam.piece, partial(hf_P, fam), partial(hf_F, fam)):
                with pytest.raises(ValueError, match="non-negative"):
                    evaluate(MultiDegree(pt[0], pt[1:]))


class TestMixedMultiplicity:
    def test_2var_classical(self):
        value, defined = mixed_multiplicity(family_2var(), MixedType(0, (1,)))
        assert value == 1
        assert defined

    def test_1var_vanishing(self):
        value, defined = mixed_multiplicity(family_1var(), MixedType(0, (1,)))
        assert value == 0
        assert defined

    def test_undefined_below_top(self):
        # In two variables the coefficient at (1,(1)) is 1, so the index
        # (0,(1)) sits below a nonzero coefficient along axis 0 only; the
        # strictly-greater index (1,(1)) does not dominate (0,(2)).
        value, defined = mixed_multiplicity(family_2var(), MixedType(0, (0,)))
        assert not defined

    def test_dim4_maximal_degrees(self):
        value, defined = mixed_multiplicity(family_dim4(), MixedType(2, (0, 1)))
        assert value == 0
        assert defined
