"""The matrix-backed ideal arithmetic against a pure-Python oracle.

The oracle works on raw generator lists: it drops every row divisible by a
different row, removes duplicates, and sorts in grlex order.  Every
operation is checked on unminimalized inputs, so duplicate rows, the zero
ideal (no rows), the unit ideal (a zero row), one variable and rows of equal
degree all reach the minimalizer.  Rows with exponents up to 2**40 (or 2**20
in eight variables) make the packed grlex keys span several words, and the
fast paths (principal products, zero sums, containment in a sum by parts)
are checked against the general arithmetic.  The column-wise kernels
(`_row_sums`, `_divides_any`) are checked against the broadcast reductions
they replaced, kept here as oracles.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from multimult.monomials import (
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    RingContext,
    _colon_pure_bounds,
    _divides_any,
    _grlex_unique,
    _grlex_words,
    _ideal_product_cached,
    _members_mask,
    _row_sums,
    _rows_in,
    colon_by_monomial,
    first_outside_sum,
    ideal,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
)

CONTEXTS = {m: RingContext(m) for m in (1, 2, 3, 4, 8)}
CASES = settings(max_examples=300, deadline=None)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def oracle(rows):
    rows = set(map(tuple, rows))
    minimal = [r for r in rows if not any(s != r and divides(s, r) for s in rows)]
    return tuple(sorted(minimal, key=lambda r: (sum(r), r)))


def oracle_product(xs, ys):
    return [tuple(a + b for a, b in zip(x, y)) for x in xs for y in ys]


@st.composite
def row_lists(draw, m, max_rows=6):
    """Rows with small exponents, often of one shared degree, with repeats."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(*(st.integers(0, 3) for _ in range(m))), max_size=max_rows))
    else:
        degree = draw(st.integers(0, 3))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, m - 1), min_size=degree, max_size=degree).map(
                    lambda vs: tuple(vs.count(i) for i in range(m))
                ),
                max_size=max_rows,
            )
        )
    return rows + draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else rows


@st.composite
def operands(draw):
    m = draw(st.integers(1, 4))
    return m, draw(row_lists(m)), draw(row_lists(m))


@st.composite
def wide_operands(draw):
    """Two row lists whose grlex keys need two or more int64 words.

    Exponents are small, near the top value or anywhere up to it; the first
    list holds the row (top, ..., top), so both the degree radix and every
    exponent radix exceed the top value.  Rows repeat and share degrees.
    """
    m, top = draw(st.sampled_from([(1, 2**40), (2, 2**40), (3, 2**40), (4, 2**40), (8, 2**20)]))
    value = st.one_of(st.integers(0, 2), st.integers(top - 2, top), st.integers(0, top))
    rows = st.lists(st.tuples(*(value for _ in range(m))), max_size=6)
    xs = draw(rows) + [(top,) * m]
    ys = draw(rows)
    xs += draw(st.lists(st.sampled_from(xs), max_size=2))
    ys += draw(st.lists(st.sampled_from(xs), max_size=2))
    return m, xs, ys


def as_matrix(rows, m):
    return np.array(rows, dtype=np.int64).reshape(len(rows), m)


def words_of(rows):
    return _grlex_words(rows, rows.sum(axis=1))


def broadcast_row_sums(rows):
    """The reduction along the exponent axis that `_row_sums` replaced."""
    return rows.sum(axis=1)


def broadcast_divides_any(gens, points):
    """The broadcast divisibility test that `_divides_any` replaced."""
    return (gens[None, :, :] <= points[:, None, :]).all(axis=2).any(axis=1)


def below(row, degree):
    """`row` with exponents lowered, first to last, until its total degree
    is less than `degree` (which must be positive)."""
    row = list(row)
    for i in range(len(row)):
        row[i] = max(0, min(row[i], degree - 1 - sum(row) + row[i]))
    return tuple(row)


def edge_cases():
    """(m, gens, points) with empty matrices, the zero ideal (no rows) and
    the unit ideal (a zero row), for one variable up to eight."""
    for m in CONTEXTS:
        rows = [tuple((i + j) % 3 for j in range(m)) for i in range(4)]
        unit = [(0,) * m]
        yield from [(m, [], rows), (m, rows, []), (m, [], []), (m, unit, rows), (m, unit, []),
                    (m, rows, rows)]


class TestAgainstOracle:
    @CASES
    @given(operands())
    def test_ideal(self, case):
        m, xs, _ = case
        got = ideal(CONTEXTS[m], xs)
        assert got.gens == oracle(xs)
        assert got.matrix.tolist() == [list(g) for g in got.gens]
        assert got.degrees.tolist() == [sum(g) for g in got.gens]

    @CASES
    @given(operands())
    def test_sum(self, case):
        m, xs, ys = case
        ctx = CONTEXTS[m]
        assert ideal_sum(ideal(ctx, xs), ideal(ctx, ys)).gens == oracle(xs + ys)

    @CASES
    @given(operands())
    def test_product(self, case):
        m, xs, ys = case
        ctx = CONTEXTS[m]
        got = ideal_product(ideal(ctx, xs), ideal(ctx, ys))
        assert got.gens == oracle(oracle_product(xs, ys))

    @CASES
    @given(operands(), st.integers(0, 3))
    def test_power(self, case, n):
        m, xs, _ = case
        expected = [(0,) * m]
        for _ in range(n):
            expected = oracle(oracle_product(expected, xs))
        assert ideal_power(ideal(CONTEXTS[m], xs), n).gens == oracle(expected)

    @CASES
    @given(operands())
    def test_intersection(self, case):
        m, xs, ys = case
        ctx = CONTEXTS[m]
        lcms = [tuple(map(max, x, y)) for x in xs for y in ys]
        assert ideal_intersection(ideal(ctx, xs), ideal(ctx, ys)).gens == oracle(lcms)

    @CASES
    @given(operands(), st.data())
    def test_colon_by_monomial(self, case, data):
        m, xs, _ = case
        u = data.draw(st.tuples(*(st.integers(0, 3) for _ in range(m))))
        got = colon_by_monomial(ideal(CONTEXTS[m], xs), Monomial(u))
        assert got.gens == oracle([tuple(max(a - b, 0) for a, b in zip(x, u)) for x in xs])

    @CASES
    @given(operands())
    def test_first_outside_is_the_first_failing_generator(self, case):
        m, xs, ys = case
        ctx = CONTEXTS[m]
        big, small = ideal(ctx, xs), ideal(ctx, ys)
        loop = next(
            (Monomial(g) for g in small.gens if not any(divides(x, g) for x in big.gens)),
            None,
        )
        assert big.first_outside(small) == loop
        assert big.contains_ideal(small) == (loop is None)
        assert all(big.contains(Monomial(g)) == any(divides(x, g) for x in big.gens)
                   for g in small.gens)

    @CASES
    @given(operands())
    def test_members_mask(self, case):
        # The points repeat rows and may equal generators of the ideal.
        m, xs, ys = case
        i = ideal(CONTEXTS[m], xs)
        points = ys + xs[:2] + ys[:2]
        mask = _members_mask(i, np.array(points, dtype=np.int64).reshape(len(points), m))
        assert mask.tolist() == [any(divides(g, p) for g in i.gens) for p in points]


class TestColumnKernels:
    """Both kernels against the broadcast forms, and the degree gate of
    `_members_mask`."""

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_row_sums(self, case):
        m, xs, ys = case
        rows = as_matrix(xs + ys, m)
        got = _row_sums(rows)
        assert got.dtype == np.int64
        assert got.tolist() == broadcast_row_sums(rows).tolist()

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_divides_any(self, case):
        m, xs, ys = case
        gens, points = as_matrix(xs, m), as_matrix(ys + xs[:2], m)
        assert _divides_any(gens, points).tolist() == broadcast_divides_any(gens, points).tolist()

    @pytest.mark.parametrize("m, xs, ys", list(edge_cases()))
    def test_kernels_on_edge_cases(self, m, xs, ys):
        gens, points = as_matrix(xs, m), as_matrix(ys, m)
        assert _row_sums(points).tolist() == broadcast_row_sums(points).tolist()
        mask = _divides_any(gens, points)
        assert mask.shape == (len(ys),)
        assert mask.tolist() == broadcast_divides_any(gens, points).tolist()

    @CASES
    @given(operands())
    def test_members_mask_below_the_least_degree(self, case):
        m, xs, ys = case
        i = ideal(CONTEXTS[m], xs)
        assume(not i.is_zero() and not i.is_unit())
        points = as_matrix([below(p, int(i.degrees[0])) for p in ys + xs], m)
        # The gate answers before the sort that finds generators among the points.
        with mock.patch("multimult.monomials._rows_in", side_effect=AssertionError):
            assert not _members_mask(i, points).any()

    @CASES
    @given(operands())
    def test_members_mask_straddling_the_least_degree(self, case):
        m, xs, ys = case
        i = ideal(CONTEXTS[m], xs)
        assume(not i.is_zero() and not i.is_unit())
        points = [below(p, int(i.degrees[0])) for p in ys + xs] + ys + xs
        mask = _members_mask(i, as_matrix(points, m))
        assert mask.tolist() == [any(divides(g, p) for g in i.gens) for p in points]

    @CASES
    @given(operands(), st.data())
    def test_colon_pure_bounds(self, case, data):
        m, xs, _ = case
        i = ideal(CONTEXTS[m], xs)
        g = data.draw(st.tuples(*(st.integers(0, 3) for _ in range(m))))

        def least_pure_powers(rows):
            # Per variable, the least exponent of a row supported on it alone.
            return [
                min((r[j] for r in rows if all(r[k] == 0 for k in range(m) if k != j)),
                    default=None)
                for j in range(m)
            ]

        colon = [tuple(max(a - b, 0) for a, b in zip(x, g)) for x in i.gens]
        assert _colon_pure_bounds(i, np.array(g, dtype=np.int64)) == least_pure_powers(colon)
        own = least_pure_powers(i.gens)
        assert i.pure_power_bounds() == (None if None in own else tuple(own))

    def test_members_mask_below_the_greatest_degree(self):
        # Every point lies below x2^3, the generator of greatest degree; two
        # of them lie in the ideal through x1.
        i = ideal(CONTEXTS[2], [(1, 0), (0, 3)])
        points = as_matrix([(0, 0), (0, 1), (1, 1), (0, 2), (2, 0)], 2)
        assert _members_mask(i, points).tolist() == [False, False, True, False, True]


class TestPackedKeys:
    """`_grlex_unique` and `_rows_in` sort by packed grlex words."""

    @CASES
    @given(wide_operands())
    def test_wide_rows_need_several_words(self, case):
        m, xs, ys = case
        assert len(words_of(as_matrix(xs, m))) > 1
        assert len(words_of(as_matrix(xs + ys, m))) > 1

    @CASES
    @given(operands())
    def test_small_rows_need_one_word(self, case):
        m, xs, ys = case
        words = words_of(as_matrix(xs + ys, m))
        assert len(words) == 1 and words[0].shape == (len(xs + ys),)

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_grlex_unique(self, case):
        m, xs, ys = case
        rows, degs = _grlex_unique(as_matrix(xs + ys, m))
        expected = sorted(set(xs + ys), key=lambda r: (sum(r), r))
        assert list(map(tuple, rows.tolist())) == expected
        assert degs.tolist() == [sum(r) for r in expected]

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_rows_in(self, case):
        m, xs, ys = case
        distinct = sorted(set(xs))
        points = ys + xs + ys[:2]
        mask = _rows_in(as_matrix(points, m), as_matrix(distinct, m))
        assert mask.tolist() == [p in set(distinct) for p in points]

    @CASES
    @given(wide_operands())
    def test_members_mask(self, case):
        m, xs, ys = case
        i = ideal(CONTEXTS[m], xs)
        points = ys + xs[:2] + ys[:2]
        mask = _members_mask(i, as_matrix(points, m))
        assert mask.tolist() == [any(divides(g, p) for g in xs) for p in points]

    @CASES
    @given(wide_operands())
    def test_sum(self, case):
        m, xs, ys = case
        ctx = CONTEXTS[m]
        assert ideal_sum(ideal(ctx, xs), ideal(ctx, ys)).gens == oracle(xs + ys)


class TestFastPaths:
    @CASES
    @given(st.one_of(operands(), wide_operands()), st.data())
    def test_principal_product_is_a_shift(self, case, data):
        m, xs, _ = case
        ctx = CONTEXTS[m]
        u = data.draw(st.tuples(*(st.integers(0, 3) for _ in range(m))))
        a, pu = ideal(ctx, xs), ideal(ctx, [u])
        entries = _ideal_product_cached.cache_info().currsize
        for got in (ideal_product(a, pu), ideal_product(pu, a)):
            assert got.gens == oracle(oracle_product(xs, [u]))
            assert got.matrix.tolist() == (a.matrix + np.array(u)).tolist()
        assert _ideal_product_cached.cache_info().currsize == entries

    @CASES
    @given(operands())
    def test_sum_with_zero_is_the_other_operand(self, case):
        m, xs, _ = case
        # With `a` zero as well, either operand is the answer.
        a, zero = ideal(CONTEXTS[m], xs), MonomialIdeal.zero(CONTEXTS[m])
        assert ideal_sum(a, zero) == a and ideal_sum(zero, a) == a
        if not a.is_zero():
            assert ideal_sum(a, zero) is a
            assert ideal_sum(zero, a) is a

    @CASES
    @given(st.integers(1, 4).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(row_lists(m), max_size=4), row_lists(m))
    ), st.sampled_from(["none", "zero", "unit"]))
    def test_first_outside_sum(self, case, extra):
        m, part_rows, ys = case
        ctx = CONTEXTS[m]
        parts = [ideal(ctx, rows) for rows in part_rows]
        if extra == "zero":
            parts.insert(0, MonomialIdeal.zero(ctx))
        elif extra == "unit":
            parts.append(MonomialIdeal.unit(ctx))
        other = ideal(ctx, ys)
        total = MonomialIdeal.zero(ctx)
        for part in parts:
            total = ideal_sum(total, part)
        assert first_outside_sum(parts, other) == total.first_outside(other)

    def test_first_outside_sum_checks_the_ring(self):
        with pytest.raises(ContextMismatchError):
            first_outside_sum([MonomialIdeal.zero(CONTEXTS[2])], MonomialIdeal.unit(CONTEXTS[3]))


class TestIdentity:
    def test_permuted_and_duplicated_generators(self):
        ctx = CONTEXTS[3]
        rows = [(2, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 3)]
        a = ideal(ctx, rows)
        b = ideal(ctx, rows[::-1] + rows[:2] + [(3, 0, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_rings_of_different_sizes_differ(self):
        # Equal matrix bytes: two generators in two variables, one in four.
        a = ideal(CONTEXTS[2], [(1, 0), (0, 1)])
        b = ideal(CONTEXTS[4], [(0, 1, 1, 0)])
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a != b
        assert MonomialIdeal.zero(CONTEXTS[2]) != MonomialIdeal.zero(CONTEXTS[3])
        assert MonomialIdeal.unit(CONTEXTS[1]) != MonomialIdeal.unit(CONTEXTS[2])

    def test_stored_arrays_are_read_only(self):
        i = ideal(CONTEXTS[2], [(2, 0), (0, 1)])
        with pytest.raises(ValueError):
            i.matrix[0, 0] = 7
        with pytest.raises(ValueError):
            i.degrees[0] = 7
        assert i.gens == ((0, 1), (2, 0))

    def test_first_outside_checks_the_ring(self):
        with pytest.raises(ContextMismatchError):
            MonomialIdeal.unit(CONTEXTS[2]).first_outside(MonomialIdeal.unit(CONTEXTS[3]))
