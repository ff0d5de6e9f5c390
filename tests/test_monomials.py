"""Unit tests for monomial and monomial-ideal arithmetic."""

import copy
import itertools
import pickle
from pathlib import Path

import pytest

from multimult import monomials
from multimult.cli import run_instance
from multimult.instances import parse_instance
from multimult.monomials import (
    INFINITE,
    MINUS_INFINITY,
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    colon_by_ideal,
    colon_by_monomial,
    ideal,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    krull_dim,
    saturation,
)

C2 = RingContext(2)
C3 = RingContext(3)
C4 = RingContext(4)
SAMPLE = Path(__file__).resolve().parent.parent / "docs" / "instances" / "dim4_joint_reduction.json"


def gens_of(i):
    return set(i.gens)


class TestMonomial:
    def test_product(self):
        assert C2.monomial(1, 0) * C2.monomial(0, 2) == C2.monomial(1, 2)

    def test_divides(self):
        assert C2.monomial(1, 1).divides(C2.monomial(2, 1))
        assert not C2.monomial(1, 1).divides(C2.monomial(2, 0))

    def test_str(self):
        assert str(C3.monomial(2, 0, 1)) == "x1^2*x3"
        assert str(C3.one()) == "1"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((-1, 0))


class TestIdealConstruction:
    def test_minimality(self):
        i = ideal(C2, [(1, 0), (2, 0), (1, 1)])
        assert gens_of(i) == {(1, 0)}

    def test_zero_and_unit(self):
        assert MonomialIdeal.zero(C2).is_zero()
        assert MonomialIdeal.unit(C2).is_unit()
        assert ideal(C2, [(0, 0), (1, 0)]).is_unit()

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            ideal(C2, [(1, 0, 0)])


class TestIdealArithmetic:
    def test_product_principal(self):
        a = ideal(C2, [(1, 0)])
        b = ideal(C2, [(0, 1)])
        assert gens_of(ideal_product(a, b)) == {(1, 1)}

    def test_product_maximal_square(self):
        m = ideal(C2, [(1, 0), (0, 1)])
        assert gens_of(ideal_product(m, m)) == {(2, 0), (1, 1), (0, 2)}

    def test_product_for_saturated_family(self):
        i1 = ideal(C3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        i2 = ideal(C3, [(0, 0, 1)])
        assert gens_of(ideal_product(i1, i2)) == {(1, 0, 1), (0, 1, 1), (0, 0, 2)}

    def test_product_with_unit_is_the_other_factor(self):
        unit = MonomialIdeal.unit(C2)
        for a in (ideal(C2, [(1, 0), (0, 2)]), MonomialIdeal.zero(C2)):
            assert ideal_product(a, unit) is a
            assert ideal_product(unit, a) is a
        with pytest.raises(ContextMismatchError):
            ideal_product(unit, ideal(C3, [(1, 0, 0)]))

    def test_sum_with_unit_is_the_unit_operand(self):
        # The sum is (1) by construction: nothing is minimalized or memoized.
        ctx = RingContext(2)
        unit = MonomialIdeal.unit(ctx)
        for a in (ideal(ctx, [(1, 0), (0, 2)]), unit, MonomialIdeal.zero(ctx)):
            assert ideal_sum(a, unit) is unit
            assert ideal_sum(unit, a) is unit
        assert monomials._ideal_sum_cached.__wrapped__ not in ctx.memo
        assert gens_of(ideal_sum(ideal(ctx, [(1, 0)]), ideal(ctx, [(0, 1)]))) == {(1, 0), (0, 1)}
        assert monomials._ideal_sum_cached.__wrapped__ in ctx.memo

    def test_power(self):
        m = ideal(C2, [(1, 0), (0, 1)])
        assert ideal_power(m, 0).is_unit()
        assert gens_of(ideal_power(ideal(C2, [(1, 0)]), 3)) == {(3, 0)}
        assert gens_of(ideal_power(m, 2)) == {(2, 0), (1, 1), (0, 2)}

    def test_colon_by_monomial(self):
        q = ideal(C2, [(1, 1)])
        assert gens_of(colon_by_monomial(q, C2.monomial(1, 0))) == {(0, 1)}
        q2 = ideal(C2, [(2, 0), (0, 1)])
        assert gens_of(colon_by_monomial(q2, C2.monomial(1, 0))) == {(1, 0), (0, 1)}
        q3 = ideal(C3, [(0, 0, 1)])
        assert colon_by_monomial(q3, C3.monomial(0, 0, 1)).is_unit()

    def test_intersection(self):
        a = ideal(C2, [(1, 0)])
        b = ideal(C2, [(0, 1)])
        assert gens_of(ideal_intersection(a, b)) == {(1, 1)}
        assert gens_of(ideal_intersection(ideal(C2, [(2, 0)]), a)) == {(2, 0)}
        m = ideal(C2, [(1, 0), (0, 1)])
        ab = ideal(C2, [(1, 1)])
        assert gens_of(ideal_intersection(m, ab)) == {(1, 1)}

    def test_saturation_kills_factor(self):
        q = ideal(C2, [(2, 1)])
        i = ideal(C2, [(1, 0)])
        assert gens_of(saturation(q, i)) == {(0, 1)}

    def test_saturation_reaches_unit(self):
        # (x3) : (x1x3, x2x3, x3^2)^inf = (1)
        q = ideal(C3, [(0, 0, 1)])
        i = ideal(C3, [(1, 0, 1), (0, 1, 1), (0, 0, 2)])
        assert saturation(q, i).is_unit()

    def test_saturation_by_unit(self):
        q = ideal(C2, [(1, 1)])
        assert saturation(q, MonomialIdeal.unit(C2)) == q

    def test_colon_by_ideal(self):
        q = ideal(C2, [(2, 0), (1, 1)])
        i = ideal(C2, [(1, 0), (0, 1)])
        # q : i = (x1)
        assert gens_of(colon_by_ideal(q, i)) == {(1, 0)}


class TestDimensionAndLength:
    def test_dim_free(self):
        assert krull_dim(QuotientModule.free(C4)) == 4

    def test_dim_hypersurface(self):
        assert krull_dim(QuotientModule(C4, ideal(C4, [(0, 0, 1, 0)]))) == 3

    def test_dim_vertex_cover(self):
        assert krull_dim(QuotientModule(C2, ideal(C2, [(1, 1)]))) == 1

    def test_dim_zero_module(self):
        assert krull_dim(QuotientModule(C2, MonomialIdeal.unit(C2))) == MINUS_INFINITY

    def test_length_point(self):
        top = MonomialIdeal.unit(C2)
        bot = ideal(C2, [(1, 0), (0, 1)])
        zero = MonomialIdeal.zero(C2)
        assert QuotientModule(C2, ideal_sum(bot, zero), ideal_sum(top, zero)).length() == 1

    def test_length_two(self):
        top = MonomialIdeal.unit(C2)
        bot = ideal(C2, [(2, 0), (0, 1)])
        zero = MonomialIdeal.zero(C2)
        assert QuotientModule(C2, ideal_sum(bot, zero), ideal_sum(top, zero)).length() == 2

    def test_length_infinite(self):
        c1 = RingContext(1)
        top = ideal(c1, [(1,)])
        bot = MonomialIdeal.zero(c1)
        assert QuotientModule(c1, ideal_sum(bot, bot), ideal_sum(top, bot)).length() == INFINITE

    def test_standard_monomials(self):
        w = ideal(C2, [(2, 0), (0, 2), (1, 1)])
        assert w.standard[0].tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_standard_monomials_requires_primary(self):
        with pytest.raises(ValueError):
            ideal(C2, [(1, 0)]).standard

    def test_minimal_primes(self):
        q = ideal(C2, [(1, 1)])
        assert set(q.minimal_primes()) == {frozenset({0}), frozenset({1})}


def brute_force_length(bot):
    """Count standard monomials of `bot` degree by degree, stopping once a
    whole degree lies inside; diverges only on non-primary input, so cap."""
    m = bot.ctx.num_vars
    total = 0
    for deg in range(0, 64):
        layer = [
            e
            for e in itertools.product(range(deg + 1), repeat=m)
            if sum(e) == deg
        ]
        outside = [e for e in layer if not bot.contains(Monomial(e))]
        if not outside:
            return total
        total += len(outside)
    raise AssertionError("no stabilization: ideal not primary")


class TestLengthOracle:
    def test_oracle_matches(self):
        cases = [
            ideal(C2, [(3, 0), (0, 2)]),
            ideal(C2, [(2, 0), (1, 1), (0, 3)]),
            ideal(C3, [(1, 0, 0), (0, 2, 0), (0, 0, 3)]),
            ideal(C3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]),
        ]
        zero2 = MonomialIdeal.zero(C2)
        zero3 = MonomialIdeal.zero(C3)
        for bot in cases:
            zero = zero2 if bot.ctx == C2 else zero3
            unit = MonomialIdeal.unit(bot.ctx)
            got = QuotientModule(bot.ctx, ideal_sum(bot, zero), ideal_sum(unit, zero)).length()
            assert got == brute_force_length(bot)


class TestSaturatedDimensionNeverZero:
    def test_dim_of_saturation(self):
        # The saturated quotient A/(Q : I^inf) is either zero or has positive
        # dimension: any I-power-torsion of finite length is killed.
        cases = [
            (ideal(C2, [(2, 0)]), ideal(C2, [(1, 0)])),
            (ideal(C2, [(1, 1)]), ideal(C2, [(1, 0), (0, 1)])),
            (ideal(C3, [(0, 0, 1)]), ideal(C3, [(1, 0, 1), (0, 1, 1), (0, 0, 2)])),
            (ideal(C2, [(2, 0), (0, 2)]), ideal(C2, [(1, 0), (0, 1)])),
        ]
        for q, i in cases:
            mod = QuotientModule(q.ctx, q).saturate(i)
            assert krull_dim(mod) != 0


class TestCopies:
    def test_used_context_deepcopies_and_pickles(self):
        # The memo of a used context is keyed by functions and by ideals
        # that hash their own context; each copy starts with a fresh memo.
        inst = parse_instance(SAMPLE.read_text(), SAMPLE.name)
        run_instance(inst)
        assert inst.family.ctx.memo
        module = copy.deepcopy(inst.family.module)
        assert module == inst.family.module and module.ctx.memo == {}
        assert module.top.ctx is module.ctx
        family = pickle.loads(pickle.dumps(inst.family))
        assert family == inst.family and family.ctx.memo == {}
        assert family.j.ctx is family.ctx
