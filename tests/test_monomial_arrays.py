"""The matrix-backed ideal arithmetic against a pure-Python oracle.

The oracle works on raw generator lists: it drops every row divisible by a
different row, removes duplicates, and sorts in grlex order.  Every
operation is checked on unminimalized inputs, so duplicate rows, the zero
ideal (no rows), the unit ideal (a zero row), one variable and rows of equal
degree all reach the minimalizer.  Rows with exponents up to 2**40 (or 2**20
in eight variables) make the packed grlex keys span several words, and the
fast paths (principal and zero products, zero sums, containment in a sum
by parts, the one-degree exit of the divisibility pass) are checked against
the general arithmetic.  The column-wise kernels (`_row_sums`,
`_divides_any`) and the membership test are checked against the broadcast
reductions they replaced, kept here as oracles.  The sum-set kernel behind
products and count candidates is checked against the pairwise oracle and the
floor-less box counter, on one-word and multi-word keys, and the staircase
enumeration of standard monomials against the box filter.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import box_count, box_standard_rows
from multimult.monomials import (
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    RingContext,
    _count_difference,
    _divides,
    _divides_any,
    _drop_divisible,
    _grlex_unique,
    _grlex_words,
    _ideal_product_cached,
    _members_mask,
    _row_sums,
    _rows_in,
    _standard_rows,
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


@st.composite
def primary_ideals(draw, m_values=(2, 3, 4), top=5):
    """(m, rows): a power x_i^e of every variable, e in 1..top, with extra
    rows, and sometimes the zero row (the unit ideal)."""
    m = draw(st.sampled_from(m_values))
    pure = [tuple(draw(st.integers(1, top)) if j == i else 0 for j in range(m)) for i in range(m)]
    extra = draw(st.lists(st.tuples(*(st.integers(0, top - 1) for _ in range(m))), max_size=6))
    unit = [(0,) * m] if draw(st.integers(0, 9)) == 0 else []
    return m, pure + extra + unit


def with_floor(case):
    """`case` with the rows of a small m-primary ideal in its ring."""
    return st.tuples(st.just(case), primary_ideals(m_values=(case[0],), top=3))


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
        # The divisibility pass compares rows only across degree blocks.
        with mock.patch("multimult.monomials._divides", wraps=_divides) as spy:
            got = ideal(CONTEXTS[m], xs)
        assert spy.called == (len({sum(x) for x in xs}) > 1)
        assert got.gens == oracle(xs)
        assert got.matrix.tolist() == [list(g) for g in got.gens]
        assert got.degrees.tolist() == [sum(g) for g in got.gens]
        assert got.maxima == tuple(got.matrix.max(axis=0, initial=0).tolist())

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
        pts = as_matrix(points, m)
        mask = _members_mask(i, pts, broadcast_row_sums(pts))
        assert mask.tolist() == [any(divides(g, p) for g in i.gens) for p in points]
        assert mask.tolist() == broadcast_divides_any(i.matrix, pts).tolist()


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
            assert not _members_mask(i, points, broadcast_row_sums(points)).any()

    @CASES
    @given(operands())
    def test_members_mask_straddling_the_least_degree(self, case):
        m, xs, ys = case
        i = ideal(CONTEXTS[m], xs)
        assume(not i.is_zero() and not i.is_unit())
        points = [below(p, int(i.degrees[0])) for p in ys + xs] + ys + xs
        pts = as_matrix(points, m)
        mask = _members_mask(i, pts, broadcast_row_sums(pts))
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

        colon = least_pure_powers([tuple(max(a - b, 0) for a, b in zip(x, g)) for x in i.gens])
        assert colon_by_monomial(i, Monomial(g)).pure_power_bounds() == (
            None if None in colon else tuple(colon))
        own = least_pure_powers(i.gens)
        assert i.pure_power_bounds() == (None if None in own else tuple(own))

    def test_members_mask_below_the_greatest_degree(self):
        # Every point lies below x2^3, the generator of greatest degree; two
        # of them lie in the ideal through x1.
        i = ideal(CONTEXTS[2], [(1, 0), (0, 3)])
        points = as_matrix([(0, 0), (0, 1), (1, 1), (0, 2), (2, 0)], 2)
        mask = _members_mask(i, points, broadcast_row_sums(points))
        assert mask.tolist() == [False, False, True, False, True]


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
        # The divisibility pass on these rows is the rest of the minimalizer;
        # rows of one degree come back as they are, with no comparison.
        one_block = len(set(degs.tolist())) <= 1
        with mock.patch("multimult.monomials._divides", wraps=_divides) as spy:
            kept, kept_degs = _drop_divisible(rows, degs)
        assert spy.called == (not one_block)
        assert (kept is rows and kept_degs is degs) == one_block
        assert tuple(map(tuple, kept.tolist())) == oracle(xs + ys)
        assert kept_degs.tolist() == [sum(r) for r in oracle(xs + ys)]

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_rows_in(self, case):
        m, xs, ys = case
        distinct = sorted(set(xs))
        points = ys + xs + ys[:2]
        pts, rows = as_matrix(points, m), as_matrix(distinct, m)
        mask = _rows_in(pts, rows, pts.sum(axis=1), rows.sum(axis=1))
        assert mask.tolist() == [p in set(distinct) for p in points]

    @CASES
    @given(wide_operands())
    def test_members_mask(self, case):
        m, xs, ys = case
        i = ideal(CONTEXTS[m], xs)
        points = ys + xs[:2] + ys[:2]
        pts = as_matrix(points, m)
        mask = _members_mask(i, pts, broadcast_row_sums(pts))
        assert mask.tolist() == [any(divides(g, p) for g in xs) for p in points]
        assert mask.tolist() == broadcast_divides_any(i.matrix, pts).tolist()

    @CASES
    @given(wide_operands())
    def test_sum(self, case):
        m, xs, ys = case
        ctx = CONTEXTS[m]
        assert ideal_sum(ideal(ctx, xs), ideal(ctx, ys)).gens == oracle(xs + ys)


def several_words(a, b):
    """Whether the grlex keys of the sums of a row of `a` and a row of `b`
    overflow one int64 word: the product of the key radices, each column's
    greatest value over the sums plus one, exceeds 2**63."""
    rows_a, rows_b = a.tolist(), b.tolist()
    radices = [max(map(sum, rows_a)) + max(map(sum, rows_b)) + 1] + [
        max(col_a) + max(col_b) + 1 for col_a, col_b in zip(zip(*rows_a), zip(*rows_b))
    ]
    return math.prod(radices) > 1 << 63


def multiword_spy():
    """A spy on `_grlex_unique`, which the sum-set kernel calls only when
    the keys of the sums need more than one word."""
    return mock.patch("multimult.monomials._grlex_unique", wraps=_grlex_unique)


class TestSumKernel:
    """Products and count candidates are distinct pairwise sums of packed
    grlex words, with a multi-word fallback."""

    @CASES
    @given(operands())
    def test_product_in_one_word(self, case):
        m, xs, ys = case
        a, b = ideal(CONTEXTS[m], xs), ideal(CONTEXTS[m], ys)
        with multiword_spy() as spy:
            got = _ideal_product_cached.__wrapped__(a, b)
        assert not spy.called
        assert got.gens == oracle(oracle_product(xs, ys))
        assert got.degrees.tolist() == [sum(g) for g in got.gens]

    @CASES
    @given(wide_operands())
    @example((2, [(2**40, 0), (0, 2**40)], [(1, 0), (0, 1)]))
    def test_product_in_several_words(self, case):
        m, xs, ys = case
        a, b = ideal(CONTEXTS[m], xs), ideal(CONTEXTS[m], ys)
        with multiword_spy() as spy:
            got = _ideal_product_cached.__wrapped__(a, b)
        assert spy.called == (bool(ys) and several_words(a.matrix, b.matrix))
        assert got.gens == oracle(oracle_product(xs, ys))
        assert got.degrees.tolist() == [sum(g) for g in got.gens]

    @CASES
    @given(st.one_of(operands(), wide_operands()).flatmap(with_floor))
    @example(((2, [(2**40, 0), (0, 2**40)], [(1, 1)]), (2, [(2, 0), (0, 2)])))
    # The last standard row (1, 0) is not of the greatest degree, 2.
    @example(((2, [(1, 0), (0, 1)], [(3, 3)]), (2, [(2, 0), (1, 1), (0, 3)])))
    def test_count_difference(self, cases):
        # bot holds floor * top, so the floor is a colon floor of the pair.
        (m, xs, ys), (_, floor_rows) = cases
        ctx = CONTEXTS[m]
        floor = ideal(ctx, floor_rows)
        top = ideal(ctx, xs)
        bot = ideal_sum(ideal_product(top, floor), ideal(ctx, ys))
        std, std_degrees, std_tops = floor.standard
        assert std_degrees.tolist() == broadcast_row_sums(std).tolist()
        assert std_tops == (max(std_degrees.tolist(), default=0),
                            *std.max(axis=0, initial=0).tolist())
        # Only the multi-word fallback sums the candidate rows, once; the
        # membership test takes the degrees it is given.
        with multiword_spy() as spy, mock.patch(
            "multimult.monomials._row_sums", wraps=_row_sums
        ) as row_sums:
            got = _count_difference(top, bot, floor)
        assert got == box_count(top, bot)
        pairs = not (top.is_zero() or top.is_unit() or bot.is_unit()) and len(std) > 1
        assert spy.called == (pairs and several_words(top.matrix, std))
        assert row_sums.call_count == spy.call_count

    def test_product_peak_memory(self):
        # 455 x 78 pairs in four variables: the broadcast pair matrix alone
        # held 455 * 78 * 4 * 8 bytes.
        ctx = CONTEXTS[4]
        variables = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        a = ideal_power(ideal(ctx, variables), 12)
        b = ideal_power(ideal(ctx, variables[:3]), 11)
        pair_matrix = len(a.matrix) * len(b.matrix) * 4 * 8
        tracemalloc.start()
        try:
            got = _ideal_product_cached.__wrapped__(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(a.matrix), len(b.matrix)) == (455, 78)
        assert peak < pair_matrix / 2
        # Every monomial of degree 23 with x4 at most 12.
        assert set(got.degrees.tolist()) == {23} and got.matrix[:, 3].max() == 12
        assert len(got.matrix) == sum((25 - x4) * (24 - x4) // 2 for x4 in range(13))


class TestStandardRows:
    @CASES
    @given(primary_ideals())
    def test_staircase_against_the_box_filter(self, case):
        m, rows = case
        w = ideal(CONTEXTS[m], rows)
        got = _standard_rows(w)
        assert got.shape[1] == m
        assert got.tolist() == box_standard_rows(w).tolist()

    def test_requires_a_power_of_every_variable(self):
        with pytest.raises(ValueError):
            _standard_rows(ideal(CONTEXTS[2], [(3, 0), (1, 1)]))


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
    @given(st.one_of(operands(), wide_operands()))
    def test_product_with_zero_is_the_zero_factor(self, case):
        m, xs, _ = case
        a, zero = ideal(CONTEXTS[m], xs), MonomialIdeal.zero(CONTEXTS[m])
        with mock.patch("multimult.monomials._ideal_product_cached") as cached:
            assert ideal_product(a, zero) is (a if a.is_zero() else zero)
            assert ideal_product(zero, a) is zero
        assert not cached.called

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
        # Equal rings held in distinct objects are one ring.
        c = ideal(RingContext(2), [(2, 0), (0, 1)])
        assert c.ctx is not a.ctx
        assert ideal_product(a, c) == ideal(CONTEXTS[2], [(3, 0), (1, 1), (0, 2)])

    def test_equal_ideals_from_different_routes(self):
        # (x1, x2)^2 * x3 built from rows, as a product of two non-principal
        # ideals, and as a shift; each is the same key of the product cache.
        ctx = CONTEXTS[3]
        maximal = ideal(ctx, [(1, 0, 0), (0, 1, 0)])
        routes = [
            ideal(ctx, [(0, 2, 1), (1, 1, 1), (2, 0, 1), (1, 1, 1)]),
            ideal_product(maximal, ideal(ctx, [(1, 0, 1), (0, 1, 1)])),
            ideal_product(ideal(ctx, [(0, 0, 1)]), ideal_power(maximal, 2)),
        ]
        assert routes[0] is not routes[1] and routes[1] is not routes[2]
        assert all(r == routes[0] for r in routes)
        assert len({hash(r) for r in routes}) == 1
        other = ideal(ctx, [(0, 0, 2), (1, 0, 0), (0, 3, 0)])
        first = ideal_product(routes[0], other)
        hits = _ideal_product_cached.cache_info().hits
        for r in routes:
            assert ideal_product(r, other) is first
        assert _ideal_product_cached.cache_info().hits == hits + len(routes)

    def test_hash_on_first_use(self):
        shift = ideal_product(ideal(CONTEXTS[2], [(1, 0), (0, 1)]), ideal(CONTEXTS[2], [(2, 2)]))
        assert shift._key is None and shift._hash is None
        assert hash(shift) == hash(ideal(CONTEXTS[2], [(2, 3), (3, 2)]))
        assert shift._key is not None

    def test_is_unit(self):
        for ctx in CONTEXTS.values():
            m = ctx.num_vars
            assert not MonomialIdeal.zero(ctx).is_unit()
            assert MonomialIdeal.unit(ctx).is_unit()
            holds_one = ideal(ctx, [(2,) * m, (0,) * m, (1,) * m, (0,) * m])
            assert holds_one.is_unit() and holds_one == MonomialIdeal.unit(ctx)
            assert not ideal(ctx, [(1,) * m]).is_unit()
            assert not ideal_product(holds_one, ideal(ctx, [(1,) * m])).is_unit()

    def test_stored_arrays_are_read_only(self):
        i = ideal(CONTEXTS[2], [(2, 0), (0, 1)])
        with pytest.raises(ValueError):
            i.matrix[0, 0] = 7
        with pytest.raises(ValueError):
            i.degrees[0] = 7
        assert i.gens == ((0, 1), (2, 0))
        assert i.maxima == (2, 1) and i.key_tops() == (2, 2, 1)
        with pytest.raises(TypeError):
            i.maxima[0] = 7
        with pytest.raises(AttributeError):
            i.maxima = (7, 7)
        std, std_degrees, _ = ideal(CONTEXTS[2], [(2, 0), (0, 2)]).standard
        for array in (std, std_degrees):
            with pytest.raises(ValueError):
                array[0] = 7
        for ctx in CONTEXTS.values():
            for edge in (MonomialIdeal.zero(ctx), MonomialIdeal.unit(ctx)):
                assert edge.maxima == (0,) * ctx.num_vars
                assert edge.maxima == tuple(edge.matrix.max(axis=0, initial=0).tolist())

    def test_first_outside_checks_the_ring(self):
        with pytest.raises(ContextMismatchError):
            MonomialIdeal.unit(CONTEXTS[2]).first_outside(MonomialIdeal.unit(CONTEXTS[3]))
