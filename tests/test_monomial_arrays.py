"""The matrix-backed ideal arithmetic against a pure-Python oracle.

The oracle works on raw generator lists: it drops every row divisible by a
different row, removes duplicates, and sorts in grlex order.  Every
operation is checked on unminimalized inputs, so duplicate rows, the zero
ideal (no rows), the unit ideal (a zero row), one variable and rows of equal
degree all reach the minimalizer.  Rows with exponents up to 2**40 (or 2**20
in eight variables) make the packed grlex keys too wide for one word, and
the fast paths (principal and zero products, zero sums, containment in a
sum by parts, the one-degree exit of the divisibility pass) are checked
against the general arithmetic.  The column-wise kernel `_divides_any` and
the membership test are checked against the broadcast reductions they
replaced, kept here as oracles.  The one-word packing is
checked against keys packed with Python integers, and every sort and dedupe
(`_grlex_unique`, the sum-set kernel `_sum_rows` behind products and count
candidates) against Python's sort on (degree, row), the pairwise oracle and
the floor-less box counter: on both one-word branches (a boolean map of the
words, or a sort) and on the wide-key lexsort, in one to eight variables,
with a spy on the branch taken.  The membership test's exact-match look-up
is checked with and without one word.  Products, lcms and generators whose
degree passes int64 raise.  The
staircase enumeration of standard monomials is checked against the box
filter, and the box kernel's orthant prefix-OR against the membership test
on the box's enumerated rows.
"""

import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import box_count, box_members, box_standard_rows
from multimult.monomials import (
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    RingContext,
    _count_difference,
    _divides,
    _divides_any,
    _distinct_rows,
    _drop_divisible,
    _grlex_unique,
    _box_members,
    _ideal_product_cached,
    _members_mask,
    _packing,
    _standard_rows,
    _sum_rows,
    _wide_unique,
    colon_by_ideal,
    colon_by_monomial,
    first_outside_sum,
    ideal,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_shift,
    ideal_sum,
    split_content,
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


def tops_of(rows, m):
    """The greatest value of each grlex key column (degree, x1, ..., xm)
    over a list of rows in m variables, 0 over none."""
    return (max(map(sum, rows), default=0),
            *(max((row[j] for row in rows), default=0) for j in range(m)))




def broadcast_row_sums(rows):
    """The total degrees of the rows, by a reduction along the exponent axis."""
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


@st.composite
def unique_cases(draw):
    """(m, rows, slack): rows with repeats that are dense (exponents up to
    2, up to fifteen rows), sparse (exponents up to 1000) or wide (near
    2**40 in four variables), and a slack that raises the degree bound
    above the rows' greatest degree."""
    kind = draw(st.sampled_from(["dense", "sparse", "wide"]))
    m = 4 if kind == "wide" else draw(st.integers(1, 4))
    value = {"dense": st.integers(0, 2), "sparse": st.integers(0, 1000),
             "wide": st.one_of(st.integers(0, 2), st.integers(2**40 - 2, 2**40))}[kind]
    rows = draw(st.lists(st.tuples(*(value for _ in range(m))), min_size=1,
                         max_size=12 if kind == "dense" else 5))
    if kind == "wide":
        rows.append((2**40,) * 4)
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return m, rows, draw(st.sampled_from([0, 0, 5]))


def expected_unique_branch(m, rows, degree_top):
    """The branch `_grlex_unique` takes on rows of degree at most
    `degree_top`, which bounds every key column: several words, or one
    word marked in a map of all (degree_top + 1)^m words when that holds at
    most eight cells per row, or one word sorted."""
    cells = (degree_top + 1) ** m
    if cells > 1 << 63:
        return "several"
    return "marked" if cells <= 8 * len(rows) else "sorted"


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
    """The divisibility kernel against the broadcast form, and the degree
    gate of `_members_mask`."""

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_divides_any(self, case):
        m, xs, ys = case
        gens, points = as_matrix(xs, m), as_matrix(ys + xs[:2], m)
        assert _divides_any(gens, points).tolist() == broadcast_divides_any(gens, points).tolist()

    @pytest.mark.parametrize("m, xs, ys", list(edge_cases()))
    def test_kernels_on_edge_cases(self, m, xs, ys):
        gens, points = as_matrix(xs, m), as_matrix(ys, m)
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
        # The gate answers before the look-up that finds generators among the points.
        with mock.patch("multimult.monomials._packing", side_effect=AssertionError):
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
    """`_grlex_unique` and the membership look-up pack grlex keys into one
    word, and fall back to a lexsort (or no look-up) when they are too wide."""

    @CASES
    @given(wide_operands())
    def test_wide_rows_need_several_words(self, case):
        # In one variable the key is the degree alone.
        m, xs, ys = case
        assert (_packing(tops_of(xs, m)) is None) == (m > 1)
        assert (_packing(tops_of(xs + ys, m)) is None) == (m > 1)

    @CASES
    @given(operands(), st.integers(0, 3))
    def test_small_rows_need_one_word(self, case, slack):
        # Any upper bounds pack, as the Python integers of the key do.
        m, xs, ys = case
        rows = xs + ys
        tops = [top + slack for top in tops_of(rows, m)]
        radices, weights = _packing(tops)
        assert radices == [top + 1 for top in tops[:m]]
        assert (as_matrix(rows, m) @ weights).tolist() == [row_word(r, radices) for r in rows]

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_grlex_unique(self, case):
        m, xs, ys = case
        rows, degs = _grlex_unique(as_matrix(xs + ys, m), max(map(sum, xs + ys), default=0))
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
    @given(unique_cases())
    @example((2, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)], 0))
    @example((3, [(900, 0, 0), (0, 0, 700), (3, 1, 0), (3, 1, 0)], 5))
    @example((4, [(2**40, 0, 3, 2**40 - 1), (1, 2**40, 0, 0), (1, 2**40, 0, 0)], 0))
    def test_grlex_unique_branches(self, case):
        # Each branch against Python's sort on (degree, row), with a degree
        # bound that may exceed the greatest degree.
        m, rows, slack = case
        degree_top = max(map(sum, rows)) + slack
        with branch_spy() as taken:
            got, degs = _grlex_unique(as_matrix(rows, m), degree_top)
        expected = sorted(set(rows), key=lambda r: (sum(r), r))
        assert list(map(tuple, got.tolist())) == expected
        assert degs.tolist() == [sum(r) for r in expected]
        assert taken() == expected_unique_branch(m, rows, degree_top)

    @pytest.mark.parametrize("m, rows, branch", [
        (2, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)], "marked"),
        (3, [(900, 0, 0), (0, 0, 700), (3, 1, 0), (3, 1, 0)], "sorted"),
        (4, [(2**40, 0, 3, 2**40 - 1), (1, 2**40, 0, 0), (1, 2**40, 0, 0)], "several"),
        (2, [(2**62, 0), (0, 2**62)], "several"),
    ])
    def test_each_branch_is_reached(self, m, rows, branch):
        with branch_spy() as taken:
            _grlex_unique(as_matrix(rows, m), max(map(sum, rows)))
        assert taken() == branch

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    @example((2, [(1, 0), (0, 2)], [(1, 0), (1, 2), (0, 1)]))
    @example((4, [(2**40,) * 4, (1, 0, 0, 0)], [(2**40,) * 4, (2**40, 1, 0, 0), (0, 1, 0, 0)]))
    def test_generators_are_matched_by_look_up(self, case):
        # Points equal to a generator are found before the divisibility
        # test when the key, with every column bounded by the greatest
        # degree, fits one word; otherwise that test takes the generators
        # of equal degree as well.  Either way every generator lies in its
        # ideal, and the mask equals the broadcast test.
        m, xs, ys = case
        i = ideal(CONTEXTS[m], xs)

        def one_word(points):
            bound = max([sum(p) for p in points] + [i.max_generator_degree()])
            return (bound + 1) ** m <= 1 << 63

        with mock.patch("multimult.monomials._divides_any", wraps=_divides_any) as spy:
            mask = _members_mask(i, i.matrix, i.degrees)
        assert mask.all()
        assert spy.called == (not one_word(i.gens) and len(xs) > 0)
        points = ys + xs + ys[:2]
        pts = as_matrix(points, m)
        with mock.patch("multimult.monomials._divides_any", wraps=_divides_any) as spy:
            mask = _members_mask(i, pts, broadcast_row_sums(pts))
        assert mask.tolist() == [any(divides(g, p) for g in i.gens) for p in points]
        assert mask.tolist() == broadcast_divides_any(i.matrix, pts).tolist()
        if one_word(points):
            # Each chunk consults only the generators of lower degree.
            for (gens, chunk), _ in spy.call_args_list:
                assert broadcast_row_sums(gens).max() < broadcast_row_sums(chunk).max()

    @CASES
    @given(wide_operands())
    @example((4, [(2**40, 0, 0, 0), (0, 2**40 - 1, 1, 0)], [(2**40, 0, 0, 0), (2**40, 1, 0, 0)]))
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

    def test_distinct_rows_on_both_sides_of_the_bound(self):
        # Keys (degree, x1) with radices (3, 2): the words 2, 3 and 5 are
        # the rows (0, 1), (1, 0) and (1, 1).  The exact span takes the map,
        # a span past eight cells per word the sort.
        words = np.array([5, 2, 3, 5, 2])
        for low in (0, 2):
            for cells in (6 - low, 8 * len(words) + 1):
                rows, degrees = _distinct_rows(words - low, low, cells, [3, 2])
                assert rows.tolist() == [[0, 1], [1, 0], [1, 1]]
                assert degrees.tolist() == [1, 1, 2]


class TestOverflow:
    """Degrees past int64 raise rather than wrap; those that fit are kept."""

    def test_the_2_62_ideal_builds(self):
        # Its key needs two words; the degree radix is 2^62 + 1, the greatest
        # row degree plus one, not the sum of the column maxima.
        got = ideal(CONTEXTS[2], [(2**62, 0), (0, 2**62)])
        assert got.gens == ((0, 2**62), (2**62, 0))
        assert got.degrees.tolist() == [2**62] * 2

    def test_intersection_past_int64_raises(self):
        ctx = CONTEXTS[2]
        with pytest.raises(OverflowError):
            ideal_intersection(ideal(ctx, [(2**62, 0)]), ideal(ctx, [(0, 2**62)]))
        got = ideal_intersection(ideal(ctx, [(2**62, 0)]), ideal(ctx, [(0, 2**62 - 1)]))
        assert got.gens == ((2**62, 2**62 - 1),) and got.degrees.tolist() == [2**63 - 1]
        # Both operands at 2^62: the bound on the lcm degree passes int64,
        # the lcm does not.
        same = ideal(ctx, [(2**62, 0)])
        assert ideal_intersection(same, ideal(ctx, [(2**62, 0), (0, 1)])) == same

    def test_colon_by_ideal_past_int64_raises(self):
        # The colons by x1 and by x2 meet in the lcm x1^(2^62) x2^(2^62).
        ctx = CONTEXTS[2]
        q = ideal(ctx, [(2**62, 0), (0, 2**62)])
        with pytest.raises(OverflowError):
            colon_by_ideal(q, ideal(ctx, [(1, 0), (0, 1)]))

    def test_wide_unique_raises_on_a_wrapped_degree(self):
        # Three exponents whose int64 sum wraps to a positive value.
        with pytest.raises(OverflowError):
            _wide_unique(as_matrix([(2**62 + 2**61,) * 3, (0, 0, 1)], 3))
        rows, degrees = _wide_unique(as_matrix([(2**62, 2**62 - 1, 0), (0, 0, 1)], 3))
        assert rows.tolist() == [[0, 0, 1], [2**62, 2**62 - 1, 0]]
        assert degrees.tolist() == [1, 2**63 - 1]


def sum_radices(a, b):
    """The radices of the packed keys (degree, x1, ..., x_{m-1}) of the sums
    of a row of `a` and a row of `b`: each key column's greatest value over
    the sums plus one.  The degree fixes x_m, so the key leaves it out."""
    rows_a, rows_b = a.tolist(), b.tolist()
    columns = list(zip(zip(*rows_a), zip(*rows_b)))[:-1]
    return [max(map(sum, rows_a)) + max(map(sum, rows_b)) + 1] + [
        max(col_a) + max(col_b) + 1 for col_a, col_b in columns
    ]


def several_words(a, b):
    """Whether the keys of the sums of a row of `a` and a row of `b`
    overflow one int64 word: the product of their radices exceeds 2**63."""
    return math.prod(sum_radices(a, b)) > 1 << 63


def key_word(digits, radices):
    """Key digits (degree, x1, ..., x_{m-1}) as one Python integer, with the
    given radices."""
    word = 0
    for digit, radix in zip(digits, radices):
        word = word * radix + digit
    return word


def row_word(row, radices):
    """The packed key of an exponent row, as one Python integer."""
    return key_word((sum(row), *row[:-1]), radices)


def multiword_spy():
    """A spy on `_wide_unique`, which the sort and dedupe kernels call only
    when the keys need more than one word."""
    return mock.patch("multimult.monomials._wide_unique", wraps=_wide_unique)


@contextmanager
def branch_spy():
    """Spies on the three branches of the sort and dedupe kernels: several
    words, a boolean map, a sort.  The map is taken exactly when the words'
    span holds at most eight cells per word.  Yields a function naming the
    branch taken (None when no kernel ran), which checks that one ran at
    most once."""
    with multiword_spy() as several, mock.patch(
        "multimult.monomials._distinct_rows", wraps=_distinct_rows
    ) as one_word:

        def taken():
            assert several.call_count + one_word.call_count <= 1
            if several.called:
                return "several"
            if not one_word.called:
                return None
            offsets, _, cells, _ = one_word.call_args.args
            return "marked" if cells <= 8 * offsets.size else "sorted"

        yield taken


class TestSumKernel:
    """Products and count candidates are distinct pairwise sums of packed
    grlex keys (degree, x1, ..., x_{m-1}), with a multi-word fallback."""

    @CASES
    @given(operands())
    def test_product_in_one_word(self, case):
        m, xs, ys = case
        ctx = RingContext(m)
        a, b = ideal(ctx, xs), ideal(ctx, ys)
        with multiword_spy() as spy:
            got = _ideal_product_cached(a, b)
        assert not spy.called
        assert got.gens == oracle(oracle_product(xs, ys))
        assert got.degrees.tolist() == [sum(g) for g in got.gens]

    @CASES
    @given(wide_operands())
    @example((2, [(2**40, 0), (0, 2**40)], [(1, 0), (0, 1)]))
    def test_product_in_several_words(self, case):
        m, xs, ys = case
        ctx = RingContext(m)
        a, b = ideal(ctx, xs), ideal(ctx, ys)
        with multiword_spy() as spy:
            got = _ideal_product_cached(a, b)
        assert spy.called == (bool(ys) and several_words(a.matrix, b.matrix))
        assert got.gens == oracle(oracle_product(xs, ys))
        assert got.degrees.tolist() == [sum(g) for g in got.gens]

    @CASES
    @given(st.one_of(operands(), wide_operands()).flatmap(with_floor))
    @example(((2, [(2**40, 0), (0, 2**40)], [(1, 1)]), (2, [(2, 0), (0, 2)])))
    # The staircase's last row (1, 0) is not of the greatest degree, 2.
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
        with multiword_spy() as spy:
            got = _count_difference(top, bot, floor)
        assert got == box_count(top, bot)
        pairs = not (top.is_zero() or top.is_unit() or bot.is_unit()) and len(std) > 1
        assert spy.called == (pairs and several_words(top.matrix, std))

    def test_product_peak_memory(self):
        # 455 x 78 pairs in four variables: the broadcast pair matrix alone
        # held 455 * 78 * 4 * 8 bytes.
        ctx = RingContext(4)
        variables = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        a = ideal_power(ideal(ctx, variables), 12)
        b = ideal_power(ideal(ctx, variables[:3]), 11)
        pair_matrix = len(a.matrix) * len(b.matrix) * 4 * 8
        tracemalloc.start()
        try:
            got = _ideal_product_cached(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(a.matrix), len(b.matrix)) == (455, 78)
        assert peak < pair_matrix / 2
        # Every monomial of degree 23 with x4 at most 12.
        assert set(got.degrees.tolist()) == {23} and got.matrix[:, 3].max() == 12
        assert len(got.matrix) == sum((25 - x4) * (24 - x4) // 2 for x4 in range(13))


    def test_the_implied_exponent_saves_a_word(self):
        # Keys (degree, x1, x2) of these sums need three radices of 2**21 + 2,
        # past one word; (degree, x1) needs two.
        xs, ys = [(2**21, 0), (0, 2**21)], [(1, 0), (0, 1)]
        ctx = RingContext(2)
        a, b = ideal(ctx, xs), ideal(ctx, ys)
        assert math.prod([2**21 + 2] * 3) > 1 << 63
        assert sum_radices(a.matrix, b.matrix) == [2**21 + 2] * 2
        with multiword_spy() as spy:
            got = _ideal_product_cached(a, b)
        assert not spy.called
        assert got.gens == oracle(oracle_product(xs, ys))
        assert got.degrees.tolist() == [sum(g) for g in got.gens]

    def test_products_past_int64_raise(self):
        # x1^(2^62) squared has degree 2^63, one past int64: the kernel and
        # the principal shift raise instead of wrapping to negative exponents.
        ctx = CONTEXTS[2]
        a = ideal(ctx, [(2**62, 0), (0, 1)])
        power = ideal(ctx, [(2**62, 0)])
        for left, right in ((a, a), (power, a), (a, power)):
            with pytest.raises(OverflowError):
                ideal_product(left, right)
        with pytest.raises(OverflowError):
            _ideal_product_cached(a, a)
        # Degree 2^63 - 1 still fits, by either route.
        b = ideal(ctx, [(2**62 - 1, 0), (0, 1)])
        for left, right in ((a, b), (ideal(ctx, [(2**62 - 1, 0)]), a)):
            got = ideal_product(left, right)
            assert got.gens == oracle(oracle_product(left.gens, right.gens))
            assert got.degrees.tolist() == [sum(g) for g in got.gens]
            assert got.max_generator_degree() == 2**63 - 1

    def test_generators_past_int64_raise(self):
        # A generator of degree 2^63 would wrap to -2^63, sort first, and
        # keep the generator x1 that divides it.
        ctx = CONTEXTS[2]
        for rows in ([(2**62, 2**62), (1, 0)], [(2**62, 2**62)], [(0, 2**63)]):
            with pytest.raises(OverflowError):
                ideal(ctx, rows)
        # Three exponents whose sum wraps to a positive int64.
        with pytest.raises(OverflowError):
            ideal(CONTEXTS[3], [(2**62 + 2**61,) * 3])
        got = ideal(ctx, [(2**62, 2**62 - 1), (1, 0)])
        assert got.gens == ((1, 0),)
        assert ideal(ctx, [(2**62, 2**62 - 1)]).degrees.tolist() == [2**63 - 1]

    def test_shift_past_int64_raises(self):
        ctx = CONTEXTS[2]
        a = ideal(ctx, [(1, 0), (0, 1)])
        u = np.array([0, 2**63 - 2], dtype=np.int64)
        got = ideal_shift(a, u, 2**63 - 2)
        assert got.gens == ((0, 2**63 - 1), (1, 2**63 - 2))
        assert got.degrees.tolist() == [2**63 - 1] * 2
        with pytest.raises(OverflowError):
            ideal_shift(a, u + np.array([0, 1]), 2**63 - 1)


@st.composite
def spread_operands(draw):
    """(m, xs, ys) in one to eight variables, with exponents up to a drawn
    spread: small spreads give dense pair keys, large ones sparse keys, and
    the largest in many variables keys of several words."""
    m = draw(st.integers(1, 8))
    top = draw(st.sampled_from([1, 3, 12, 100, 5000]))
    row = st.tuples(*(st.integers(0, top) for _ in range(m)))
    return m, draw(st.lists(row, min_size=1, max_size=6)), draw(st.lists(row, min_size=1,
                                                                          max_size=6))


def with_small_floor(case):
    """`case` with the rows of an m-primary ideal whose standard monomials
    are few in any number of variables."""
    top = 3 if case[0] <= 4 else 2
    return st.tuples(st.just(case), primary_ideals(m_values=(case[0],), top=top))


def expected_branch(a, b):
    """The branch of the sum-set kernel for grlex-sorted rows `a` and `b`:
    several words, or one word marked in a map of at most eight cells per
    pair, or one word sorted.  The map spans the least to the greatest pair
    key, read off the ends of the sorted rows."""
    if not len(a) or not len(b):
        return None
    if several_words(a, b):
        return "several"
    radices = sum_radices(a, b)
    words_a = [row_word(row, radices) for row in a.tolist()]
    words_b = [row_word(row, radices) for row in b.tolist()]
    cells = max(words_a) + max(words_b) - min(words_a) - min(words_b) + 1
    return "marked" if cells <= 8 * len(a) * len(b) else "sorted"


class TestMarkedSums:
    """The one-word sum-set kernel marks the pair keys in a boolean map when
    they span at most eight cells per pair, and sorts them otherwise; both
    branches, and the several-word fallback, against the oracles."""

    @CASES
    @given(spread_operands())
    @example((2, [(1, 0), (0, 1)], [(2, 0), (1, 1), (0, 2)]))
    @example((2, [(100, 0), (0, 100)], [(1, 0)]))
    @example((8, [(5000,) * 8], [(1,) * 8, (5000,) + (0,) * 7]))
    def test_product(self, case):
        m, xs, ys = case
        ctx = RingContext(m)
        a, b = ideal(ctx, xs), ideal(ctx, ys)
        with branch_spy() as taken:
            got = _ideal_product_cached(a, b)
        assert taken() == expected_branch(a.matrix, b.matrix)
        assert got.gens == oracle(oracle_product(xs, ys))
        assert got.degrees.tolist() == [sum(g) for g in got.gens]

    @CASES
    @given(spread_operands().flatmap(with_small_floor))
    @example(((3, [(1, 0, 0), (0, 1, 1)], [(2, 2, 2)]), (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])))
    @example(((2, [(100, 0), (0, 100)], [(1, 1)]), (2, [(2, 0), (0, 2)])))
    def test_count(self, cases):
        # The second operand is the floor's standard rows, in grlex order.
        (m, xs, ys), (_, floor_rows) = cases
        ctx = RingContext(m)
        floor, top = ideal(ctx, floor_rows), ideal(ctx, xs)
        bot = ideal_sum(ideal_product(top, floor), ideal(ctx, ys))
        std = floor.standard[0]
        pairs = not (top.is_unit() or bot.is_unit()) and len(std) > 1
        with branch_spy() as taken:
            got = _count_difference(top, bot, floor)
        assert got == box_count(top, bot)
        assert taken() == (expected_branch(top.matrix, std) if pairs else None)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_the_bound_is_eight_cells_per_pair(self, m):
        # Rows 1 and xm^d times 1 and xm: the keys (degree, x1, ..., x_{m-1})
        # of the pairs are the degrees 0 .. d + 1, d + 2 cells against the
        # 8 * 4 = 32 allowed.
        for d, branch in ((30, "marked"), (31, "sorted")):
            a = as_matrix([(0,) * m, (0,) * (m - 1) + (d,)], m)
            b = as_matrix([(0,) * m, (0,) * (m - 1) + (1,)], m)
            tops_a, tops_b = (d, *a.max(axis=0).tolist()), (1, *b.max(axis=0).tolist())
            with branch_spy() as taken:
                rows, degrees = _sum_rows(a, tops_a, b, tops_b)
            assert taken() == branch
            expected = sorted(set(oracle_product(a.tolist(), b.tolist())),
                              key=lambda r: (sum(r), r))
            assert list(map(tuple, rows.tolist())) == expected
            assert degrees.tolist() == [sum(r) for r in expected]


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

    @CASES
    @given(primary_ideals())
    def test_kept_in_grlex_order(self, case):
        # The floor keeps the staircase's rows sorted once, for the sum-set
        # kernel, which reads the span of its words off their ends.
        m, rows = case
        w = ideal(CONTEXTS[m], rows)
        std, std_degrees, _ = w.standard
        expected = sorted(box_standard_rows(w).tolist(), key=lambda r: (sum(r), r))
        assert std.tolist() == expected
        assert std_degrees.tolist() == [sum(r) for r in expected]


@st.composite
def box_cases(draw):
    """(m, rows, bounds): unminimalized rows of an ideal in one to four
    variables (none, the zero row, or drawn, with exponents up to 3), and
    bounds from 1 to 4, so that some generators lie at or past a bound and
    some axes have width 1."""
    m = draw(st.integers(1, 4))
    rows = draw(st.one_of(st.just([]), st.just([(0,) * m]), row_lists(m)))
    bounds = draw(st.tuples(*(st.integers(1, 4) for _ in range(m))))
    return m, rows, bounds


class TestBoxMembers:
    """`_box_members` against the membership test on the box's rows."""

    @CASES
    @given(box_cases())
    @example((2, [(1, 0), (0, 2)], (2, 2)))
    @example((3, [(0, 0, 1)], (4, 1, 3)))
    def test_against_the_point_list_kernel(self, case):
        m, rows, bounds = case
        i = ideal(CONTEXTS[m], rows)
        got = _box_members(i, bounds)
        assert got.shape == bounds and got.dtype == bool
        assert got.tolist() == box_members(i, bounds).tolist()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_edge_ideals(self, m):
        ctx = CONTEXTS[m]
        bounds = tuple(range(1, m + 1))
        assert not _box_members(MonomialIdeal.zero(ctx), bounds).any()
        assert _box_members(MonomialIdeal.unit(ctx), bounds).all()
        # Pure powers at their bounds and one generator past every bound.
        pure = [tuple(b if j == i else 0 for j in range(m)) for i, b in enumerate(bounds)]
        outer = ideal(ctx, pure + [tuple(b + 1 for b in bounds)])
        assert not _box_members(outer, bounds).any()
        assert box_members(outer, bounds).tolist() == _box_members(outer, bounds).tolist()


class TestFastPaths:
    @CASES
    @given(st.one_of(operands(), wide_operands()), st.data())
    def test_principal_product_is_a_shift(self, case, data):
        # Neither a principal product nor a product or sum with the zero
        # ideal enters the memo of the ring.
        m, xs, _ = case
        ctx = RingContext(m)
        u = data.draw(st.tuples(*(st.integers(0, 3) for _ in range(m))))
        a, pu, zero = ideal(ctx, xs), ideal(ctx, [u]), MonomialIdeal.zero(ctx)
        for got in (ideal_product(a, pu), ideal_product(pu, a)):
            assert got.gens == oracle(oracle_product(xs, [u]))
            assert got.matrix.tolist() == (a.matrix + np.array(u)).tolist()
        assert ideal_product(a, zero).is_zero() and ideal_product(zero, a).is_zero()
        assert ideal_sum(a, zero) == a == ideal_sum(zero, a)
        assert ctx.memo == {}

    @CASES
    @given(st.one_of(operands(), wide_operands()))
    def test_split_content(self, case):
        # a = x^c * a', with c the exponents of the gcd of the generators.
        m, xs, _ = case
        a = ideal(CONTEXTS[m], xs)
        gens = oracle(xs)
        content = tuple(min(col) for col in zip(*gens)) if gens else (0,) * m
        got, part = split_content(a)
        assert got == content and all(type(c) is int for c in got)
        assert part.gens == oracle([tuple(e - c for e, c in zip(g, content)) for g in gens])
        assert part.degrees.tolist() == [sum(g) for g in part.gens]
        assert split_content(part) == ((0,) * m, part)
        assert ideal_shift(part, np.array(content, dtype=np.int64), sum(content)) == a
        if not any(content):
            assert part is a
        if len(gens) == 1:
            assert part.is_unit()

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
        # ideals, and as a shift; each is the same key of the product memo.
        ctx = RingContext(3)
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
        entries = sum(map(len, ctx.memo.values()))
        for r in routes:
            assert ideal_product(r, other) is first
        assert sum(map(len, ctx.memo.values())) == entries

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
