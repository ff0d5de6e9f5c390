"""Unit tests for Hilbert functions, interpolation, and mixed multiplicities."""

import itertools
import random
from math import comb
from pathlib import Path

import numpy as np
import pytest

from corpus import build_corpus
from multimult import hilbert, monomials
from multimult.cli import run_request
from multimult.hilbert import (
    BinomialBasisPolynomial,
    IdealFamily,
    MixedType,
    MultiDegree,
    _fit_window,
    interpolate,
    hf_F,
    hf_P,
    mixed_multiplicity,
    table_on_window,
)
from multimult.instances import parse_instance
from multimult.monomials import (
    INFINITE,
    MINUS_INFINITY,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    _box,
    _count_difference,
    _grlex_unique,
    _members_mask,
    _row_sums,
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

    def test_difference_identity(self):
        p = BinomialBasisPolynomial(2, {(1, 1): 2, (0, 0): 5})
        assert p.difference(MixedType(0, (0,))) == p

    def test_difference_of_constant_is_zero(self):
        p = BinomialBasisPolynomial(2, {(0, 0): 7})
        assert p.difference(MixedType(1, (0,))).is_zero()

    def test_difference_drops_to_constant(self):
        p = BinomialBasisPolynomial(2, {(1, 1): 1})
        d = p.difference(MixedType(1, (1,)))
        assert d.coeffs == {(0, 0): 1}

    def test_difference_matches_pointwise(self):
        p = BinomialBasisPolynomial(2, {(2, 1): 3, (1, 0): -2})
        d = p.difference(MixedType(1, (0,)))
        for a in range(5):
            for b in range(5):
                assert d.evaluate((a, b)) == p.evaluate((a + 1, b)) - p.evaluate((a, b))

    def test_total_degree(self):
        p = BinomialBasisPolynomial(2, {(2, 1): 3})
        assert p.total_degree == 3
        assert BinomialBasisPolynomial.zero(2).total_degree == MINUS_INFINITY


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
        assert interpolate(fam, "P").poly.is_zero()

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


def _colon_pure_bounds(bot, g):
    """Per-variable least pure-power exponent of (bot : x^g), without
    minimalizing the colon.  None marks a variable with no pure power.

    A colon row is a power of x_j (or 1) exactly when its degree equals its
    j-th exponent."""
    colon = np.maximum(bot.matrix - np.asarray(g, dtype=np.int64), 0)
    degs = _row_sums(colon)
    bounds = []
    for j in range(bot.ctx.num_vars):
        pure = colon[degs == colon[:, j], j]
        bounds.append(int(pure.min()) if len(pure) else None)
    return bounds


def box_count(top, bot):
    """The per-generator colon-box counter, with no floor: the monomials in
    `top` and not in `bot`, or INFINITE.

    Every such monomial factors as g*v with g a minimal generator of `top`
    and v a standard monomial of bot : g, so the count is the size of the
    deduplicated candidate set { g*v : g*v not in bot }.  Finiteness holds
    exactly when every colon bot : g contains a power of each variable.
    """
    if top.is_zero() or bot.is_unit():
        return 0
    blocks = []
    for g in top.matrix:
        bounds = _colon_pure_bounds(bot, g)
        if all(b == 0 for b in bounds):
            continue  # g already lies in bot
        if any(b is None for b in bounds):
            return INFINITE
        blocks.append(_box(bounds) + g)
    if not blocks:
        return 0
    pts, _ = _grlex_unique(np.concatenate(blocks))
    return int(np.count_nonzero(~_members_mask(bot, pts)))


def floorless_p(fam, deg):
    """hf_P counted by the per-generator colon analysis, with no floor."""
    q = fam.module.relations
    top = fam.piece(deg)
    return box_count(ideal_sum(top, q), ideal_sum(ideal_product(top, fam.j), q))


def floorless_f(fam, deg):
    """hf_F counted by the per-generator colon analysis, with no floor."""
    q = fam.module.relations
    top = fam.piece(MultiDegree(0, deg.n))
    bottom = ideal_product(top, ideal_power(fam.j, deg.n0))
    return box_count(ideal_sum(top, q), ideal_sum(bottom, q))


def count_floor_enumerations(monkeypatch):
    """The ideals whose standard monomials get enumerated from now on."""
    seen = []
    enumerate_box = monomials._standard_rows

    def counted(w):
        seen.append(w)
        return enumerate_box(w)

    monkeypatch.setattr(monomials, "_standard_rows", counted)
    return seen


class TestColonFloor:
    """hf_P and hf_F count with a colon floor (J, and J^n0) whose standard
    monomials are kept on the floor ideal; with standard set {1} the
    candidates are top's own generators.  Both must equal the floor-less
    count, and each floor ideal is enumerated once."""

    def test_every_corpus_family_against_the_floorless_count(self):
        families = {inst.fam for inst in build_corpus()}
        standard_sizes = set()
        for fam in families:
            standard_sizes.add(len(fam.j.standard_rows))
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
        interpolate.cache_clear()
        inst = parse_instance(SAMPLE.read_text(), SAMPLE.name)
        run_request(inst, next(r for r in inst.requests if r["command"] == "mixed"))
        assert len(evals) == 133
        assert seen == [inst.family.j]

    def test_hf_f_enumerates_each_power_of_j_once(self, monkeypatch):
        # A counting-style family: J has pure powers of degree up to 2 and a
        # mixed generator, so every J^n0 has many standard monomials.
        j = ideal(C3, [(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1)])
        fam = IdealFamily(j, (ideal(C3, [(1, 0, 0), (0, 1, 0)]),), QuotientModule.free(C3))
        seen = count_floor_enumerations(monkeypatch)
        monomials._powers.cache_clear()
        for n0, n1 in itertools.product(range(5), range(4)):
            assert hf_F(fam, MultiDegree(n0, (n1,))) == floorless_f(fam, MultiDegree(n0, (n1,)))
        assert seen == [ideal_power(j, n0) for n0 in range(1, 5)]

    def test_floor_with_no_standard_monomials_counts_zero(self):
        # T inside B: the annihilator B : T is the unit ideal, with no
        # standard monomial, so there is no candidate.
        b = ideal(C2, [(2, 0), (1, 1)])
        t = ideal(C2, [(3, 0), (1, 2)])
        unit = MonomialIdeal.unit(C2)
        assert len(unit.standard_rows) == 0
        assert _count_difference(ideal_sum(t, b), b, unit) == 0
        assert QuotientModule(C2, b, t).annihilator() == unit
        assert QuotientModule(C2, b, t).length() == 0

    def test_unit_top_against_its_own_floor(self):
        for w in (ideal(C2, [(3, 0), (1, 1), (0, 2)]),
                  ideal(C3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]),
                  ideal(C2, [(1, 0), (0, 1)])):
            expected = len(w.standard_rows)
            assert _count_difference(MonomialIdeal.unit(w.ctx), w, w) == expected
            assert expected == box_count(MonomialIdeal.unit(w.ctx), w)

    def test_cyclic_length_enumerates_the_floor_once(self, monkeypatch):
        b = ideal(C3, [(3, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])
        seen = count_floor_enumerations(monkeypatch)
        module = QuotientModule(C3, b)
        lengths = [module.length() for _ in range(3)]
        assert lengths == [box_count(MonomialIdeal.unit(C3), b)] * 3
        assert seen == [b]


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
