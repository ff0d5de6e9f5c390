"""Exact arithmetic on monomials and monomial ideals.

The ambient ring is the polynomial ring k[x_1, ..., x_m] over the rationals,
localized at the irrelevant maximal ideal (x_1, ..., x_m).  Every object here
is combinatorial: a monomial is an exponent vector, an ideal is a minimal set
of exponent vectors, and lengths of finite quotients are counts of monomials.
All values are immutable; all operations are pure functions of their inputs.

Monomials are ordered globally by graded lexicographic order (total degree
first, then lexicographic on the exponent vector), so every generator list
and every enumeration below is deterministic.

A :class:`MonomialIdeal` keeps its minimal generators as one read-only
(n, m) int64 matrix in grlex order, with the vector of their total degrees.
The arithmetic works on these matrices directly, and membership of many
monomials at once is one vectorized test, ``_members_mask``.  The
ideal's hash is computed from the matrix bytes on first use and kept, so the
lru caches below look ideals up in constant time, and ideals that never
enter a cache (principal shifts, most Hilbert pieces) never pay for it.
Whether the ideal is the unit ideal is a flag set at construction.
``gens``, the generators as exponent tuples, and ``maxima``, the greatest
exponent of each variable over them, are made on first use and kept.

Every result that may hold redundant rows goes through one minimalizer,
``_minimal_rows``.  It sorts by packed grlex keys (``_grlex_words``): the
key (degree, x1, ..., xm) of each row is written, digit by digit with each
column's maximum plus one as its radix, into as few int64 words as hold it
exactly, so one lexsort of the words (usually one) orders the rows.  Results
that are minimal by construction skip it: the product with a principal
ideal (x^u) is the other factor's matrix plus u, which stays minimal,
distinct and grlex-ordered; a sum with the zero ideal is the other operand,
a product with the zero ideal the zero factor and a product with the unit
ideal the other factor.  Containment in a sum of ideals,
``first_outside_sum``, never builds the sum: a monomial lies in a sum of
monomial ideals iff it lies in one of them.

Any other product, and the candidates of a count, are the distinct pairwise
sums of two generator matrices, ``_sum_rows``.  Packing is linear: when
each key column's radix is at least the sum of the two operands' maxima plus
one, the word of g+h is word(g) + word(h).  So the pairs are one outer sum
of two int64 word vectors, one in-place sort keeps the first of each run,
and divmod over the radices unpacks the rows; no (pairs, m) matrix is built.
The radices come from what the operands carry (``key_tops``: an ideal's
last degree, since its degrees are grlex-sorted, and its kept maxima), so
no maximum is reduced per call.  Keys that need more than one word fall
back to the broadcast rows and ``_grlex_unique``.  A product then needs only
the degree-block divisibility pass of the minimalizer, ``_drop_divisible``,
which returns rows of a single degree as they are: rows of equal degree
cannot properly divide each other.

Reductions over the exponent axis of many rows run column-wise, through
two kernels.  Exponent matrices are C-ordered (n, m) with m small, and a
numpy reduction along that short inner axis (``rows.sum(axis=1)``, or the
broadcast ``(gens[None] <= pts[:, None]).all(axis=2)``) pays its per-row
set-up on a handful of elements.  So total degrees are one matrix-vector
product, ``_row_sums``, and "some generator divides this point" is
``_divides_any``, which ANDs one (points, generators) comparison per column
(``_divides``) and reduces only along the long generator axis; the grlex
keys are likewise built as an (m+1, n) matrix.  Degrees known by
construction (minimalized rows, shifted ideals) are passed to the
constructor rather than summed again, and ``_members_mask`` takes the
points' degrees from its caller, which holds them: an ideal's ``degrees``,
those ``_sum_rows`` returns, or a floor's standard-row degrees.

Every length is one count, ``_count_difference(top, bot, colon_floor)``, of
the monomials in `top` outside `bot`.  Its colon floor is an ideal primary to
the maximal ideal whose product with `top` lies in `bot`, so each counted
monomial is a generator of `top` times a standard monomial of the floor.
The floor's standard monomials are enumerated once per floor ideal, as a
staircase that grows them one variable at a time (``_standard_rows``), and
kept on it with their degrees and key maxima (``standard``), the way
``gens`` is.  The Hilbert values take J or J^n0 as the floor, and
``QuotientModule.length`` takes the module's annihilator B : T.
That method is the one place that decides finiteness: the module has finite
length exactly when B : T contains a power of every variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Sentinel returned by length computations on quotients of infinite length.
INFINITE = float("inf")

#: Dimension of the zero module / degree of the zero polynomial.
MINUS_INFINITY = float("-inf")


class ContextMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


def _grlex_key(exponents):
    return (sum(exponents), exponents)


@dataclass(frozen=True)
class RingContext:
    """The ambient localized polynomial ring, identified by its variable count."""

    num_vars: int

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")

    def variable(self, i: int) -> Monomial:
        """The monomial x_{i+1} (0-based index)."""
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        exps = [0] * self.num_vars
        exps[i] = 1
        return Monomial(tuple(exps))

    def one(self) -> Monomial:
        return Monomial((0,) * self.num_vars)

    def monomial(self, *exponents: int) -> Monomial:
        if len(exponents) != self.num_vars:
            raise ContextMismatchError(
                f"expected {self.num_vars} exponents, got {len(exponents)}"
            )
        return Monomial(tuple(int(e) for e in exponents))


@dataclass(frozen=True)
class Monomial:
    """A monomial, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return self.degree == 0

    def divides(self, other: Monomial) -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: Monomial) -> Monomial:
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e > 0)

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """The total degrees of the rows of an (n, m) int64 exponent matrix."""
    # Filled in place: np.ones costs more than the product on small matrices.
    ones = np.empty(rows.shape[1], dtype=np.int64)
    ones.fill(1)
    return rows @ ones


def _divides(gens: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boolean (len(points), len(gens)) matrix: whether each row of `gens`
    divides each row of `points`.  One comparison per exponent column,
    AND-ed together."""
    ok = gens[:, 0] <= points[:, 0, None]
    for col in range(1, gens.shape[1]):
        ok &= gens[:, col] <= points[:, col, None]
    return ok


def _divides_any(gens: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boolean mask over the rows of `points`: whether some row of `gens`
    divides it."""
    return _divides(gens, points).any(axis=1)


def _grlex_places(radices: list[int]) -> np.ndarray:
    """Place values that pack grlex key columns, digits with the given
    radices, exactly into int64 words: a (words, columns) matrix, most
    significant word first.  From the least significant end, columns join a
    word while the product of its radices stays at most 2**63."""
    places = [[0] * len(radices)]
    span = 1
    for col in range(len(radices) - 1, -1, -1):
        if span * radices[col] > 1 << 63:
            places.append([0] * len(radices))
            span = 1
        places[-1][col] = span
        span *= radices[col]
    return np.array(places[::-1], dtype=np.int64)


def _grlex_words(rows: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """The grlex keys of the rows of an (n, m) int64 exponent matrix with
    total degrees `degrees`, packed exactly into int64 words: a (words, n)
    matrix, most significant word first.

    The key of a row is (degree, x1, ..., xm), held as an (m+1, n) matrix.
    Each key column is a digit whose radix is its own maximum plus one, and
    the words are one matrix product of their place values
    (``_grlex_places``) with the keys.  The words, compared in order,
    compare the keys, and equal words mean equal rows.  Exponents of
    moderate size give a single word.
    """
    keys = np.empty((rows.shape[1] + 1, len(rows)), dtype=np.int64)
    keys[0] = degrees
    keys[1:] = rows.T
    radices = [top + 1 for top in keys.max(axis=1, initial=0).tolist()]
    return _grlex_places(radices) @ keys


def _grlex_runs(rows: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable grlex sort of the rows: the order, and a mask over the
    sorted rows marking each one that differs from its predecessor."""
    words = _grlex_words(rows, degrees)
    order = np.lexsort(words[::-1])
    fresh = np.zeros(len(rows), dtype=bool)
    fresh[:1] = True
    for word in words:
        word = word[order]
        fresh[1:] |= word[1:] != word[:-1]
    return order, fresh


def _grlex_unique(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, m) int64 exponent matrix in grlex order,
    and their total degrees."""
    degrees = _row_sums(rows)
    order, fresh = _grlex_runs(rows, degrees)
    keep = order[fresh]
    return rows[keep], degrees[keep]


def _sum_rows(a: np.ndarray, a_degrees: np.ndarray, a_tops: tuple[int, ...],
              b: np.ndarray, b_degrees: np.ndarray,
              b_tops: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sums of a row of `a` and a row of `b`, int64 exponent
    matrices with total degrees `a_degrees` and `b_degrees`, in grlex order,
    and their total degrees.  `a_tops` and `b_tops` are the greatest value
    of each grlex key column (degree, x1, ..., xm) over the rows, which the
    operands carry (``MonomialIdeal.key_tops``, ``MonomialIdeal.standard``).

    Packing is linear: when each key column's radix is at least its maximum
    in `a` plus its maximum in `b` plus one, no digit of a sum carries, so
    the word of g+h is word(g) + word(h).  With one word per key, the pairs
    are one outer sum of two word vectors, sorted in place; the first entry
    of each run is kept and unpacked by divmod over the radices.  Keys that
    need more than one word take the broadcast rows through
    ``_grlex_unique``.
    """
    m = a.shape[1]
    if not len(a) or not len(b):
        return np.zeros((0, m), dtype=np.int64), np.zeros(0, dtype=np.int64)
    radices = [top_a + top_b + 1 for top_a, top_b in zip(a_tops, b_tops)]
    places = _grlex_places(radices)
    if len(places) > 1:
        return _grlex_unique((a[:, None, :] + b[None, :, :]).reshape(-1, m))
    place = places[0]
    words = np.add.outer(a @ place[1:] + a_degrees * place[0],
                         b @ place[1:] + b_degrees * place[0]).ravel()
    words.sort()
    fresh = np.empty(len(words), dtype=bool)
    fresh[0] = True
    np.not_equal(words[1:], words[:-1], out=fresh[1:])
    words = words[fresh]
    rows = np.empty((len(words), m), dtype=np.int64)
    for col in range(m, 0, -1):
        words, rows[:, col - 1] = np.divmod(words, radices[col])
    return rows, words


def _drop_divisible(rows: np.ndarray, degs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a distinct, grlex-sorted (n, m) int64 exponent matrix
    with total degrees `degs` that no other row divides, and their degrees.

    Rows of equal total degree cannot properly divide each other, so each
    degree block is tested only against the kept rows of strictly lower
    degree, and rows of a single degree are returned as they are.
    """
    if not len(degs) or degs[0] == degs[-1]:
        return rows, degs
    starts = np.flatnonzero(np.diff(degs)) + 1
    keep = np.ones(len(rows), dtype=bool)
    for start, end in zip(starts, [*starts[1:], len(rows)]):
        below = rows[:start][keep[:start]]
        block = rows[start:end]
        keep[start:end] = ~_divides_any(below, block)
    return rows[keep], degs[keep]


def _minimal_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimal rows of an (n, m) int64 exponent matrix, in grlex order,
    and their total degrees."""
    return _drop_divisible(*_grlex_unique(rows))


class MonomialIdeal:
    """A finitely generated monomial ideal, stored by its minimal generators.

    ``matrix`` is the read-only (n, m) int64 matrix of minimal generators in
    grlex order and ``degrees`` their total degrees.  The zero ideal has no
    generators; the unit ideal has the single generator 1.  The constructor
    trusts its matrix to be minimal and grlex-sorted and `degrees` to be its
    row sums, and makes both read-only: build ideals through :func:`ideal`
    or the arithmetic below.
    """

    __slots__ = ("ctx", "matrix", "degrees", "_unit", "_key", "_hash", "_gens", "_maxima",
                 "_standard")

    def __init__(self, ctx: RingContext, matrix: np.ndarray, degrees: np.ndarray):
        matrix.flags.writeable = False
        degrees.flags.writeable = False
        self.ctx = ctx
        self.matrix = matrix
        self.degrees = degrees
        # A minimal generator set holding 1 holds nothing else.
        self._unit = len(degrees) == 1 and int(degrees[0]) == 0
        self._key = None
        self._hash = None
        self._gens = None
        self._maxima = None
        self._standard = None

    def _identity(self) -> tuple[int, bytes]:
        """The variable count and the matrix bytes, made on first use: equal
        exactly for equal ideals."""
        if self._key is None:
            self._key = (self.ctx.num_vars, self.matrix.tobytes())
        return self._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._identity())
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self is other or self._identity() == other._identity()

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.ctx!r}, {self.gens!r})"

    @property
    def gens(self) -> tuple[tuple[int, ...], ...]:
        """The generators as exponent tuples, in grlex order."""
        if self._gens is None:
            self._gens = tuple(map(tuple, self.matrix.tolist()))
        return self._gens

    @property
    def maxima(self) -> tuple[int, ...]:
        """The greatest exponent of each variable over the generators (0 for
        the zero ideal), made on first use."""
        if self._maxima is None:
            self._maxima = tuple(self.matrix.max(axis=0, initial=0).tolist())
        return self._maxima

    def key_tops(self) -> tuple[int, ...]:
        """The greatest value of each grlex key column (degree, x1, ..., xm)
        over the generators: the last degree, since they are grlex-sorted,
        and the kept maxima."""
        return (self.max_generator_degree(), *self.maxima)

    @property
    def standard(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """The monomials outside the ideal, for an ideal containing a power
        of every variable: the read-only rows in lexicographic order, their
        read-only total degrees, and the greatest value of each grlex key
        column over them; enumerated on first use."""
        if self._standard is None:
            rows = _standard_rows(self)
            degrees = _row_sums(rows)
            rows.flags.writeable = False
            degrees.flags.writeable = False
            tops = (int(degrees.max(initial=0)), *rows.max(axis=0, initial=0).tolist())
            self._standard = rows, degrees, tops
        return self._standard

    @property
    def standard_rows(self) -> np.ndarray:
        """The rows of :attr:`standard`."""
        return self.standard[0]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: RingContext) -> MonomialIdeal:
        return MonomialIdeal(ctx, np.zeros((0, ctx.num_vars), dtype=np.int64),
                             np.zeros(0, dtype=np.int64))

    @staticmethod
    def unit(ctx: RingContext) -> MonomialIdeal:
        return MonomialIdeal(ctx, np.zeros((1, ctx.num_vars), dtype=np.int64),
                             np.zeros(1, dtype=np.int64))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return len(self.matrix) == 0

    def is_unit(self) -> bool:
        return self._unit

    def max_generator_degree(self) -> int:
        return int(self.degrees[-1]) if len(self.degrees) else 0

    def contains(self, mono: Monomial) -> bool:
        if len(mono.exponents) != self.ctx.num_vars:
            raise ContextMismatchError("monomial has wrong variable count")
        target = np.asarray(mono.exponents, dtype=np.int64)
        return bool((self.matrix <= target).all(axis=1).any())

    def first_outside(self, other: MonomialIdeal) -> Monomial | None:
        """The first generator of `other`, in grlex order, that lies outside
        this ideal, or None when `other` is contained in it."""
        return first_outside_sum((self,), other)

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        return self.first_outside(other) is None

    def pure_power_bounds(self) -> tuple[int, ...] | None:
        """For each variable, the least e with x_i^e in the ideal, or None
        if some variable has no pure power here (ideal not primary to the
        maximal ideal).

        A generator is a power of x_j (or 1) exactly when its degree equals
        its j-th exponent."""
        bounds = []
        for j in range(self.ctx.num_vars):
            pure = self.matrix[self.degrees == self.matrix[:, j], j]
            if not len(pure):
                return None
            bounds.append(int(pure.min()))
        return tuple(bounds)

    def is_primary_to_max_ideal(self) -> bool:
        """Whether the ideal contains a power of every variable."""
        return self.pure_power_bounds() is not None

    def minimal_primes(self) -> tuple[frozenset[int], ...]:
        """Minimal primes, each a minimal variable cover of the generator supports.

        A prime over a monomial ideal is generated by variables; the minimal
        ones are the minimal sets of variables meeting every generator support.
        """
        if self.is_zero():
            return (frozenset(),)
        if self.is_unit():
            return ()
        supports = [frozenset(i for i, e in enumerate(g) if e > 0) for g in self.gens]
        m = self.ctx.num_vars
        covers: list[frozenset[int]] = []
        for size in range(0, m + 1):
            for combo in itertools.combinations(range(m), size):
                cand = frozenset(combo)
                if any(prev <= cand for prev in covers):
                    continue
                if all(cand & s for s in supports):
                    covers.append(cand)
        return tuple(sorted(covers, key=lambda c: (len(c), sorted(c))))

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(Monomial(g)) for g in self.gens) + ")"


def ideal(ctx: RingContext, monomials) -> MonomialIdeal:
    """Build a monomial ideal from any iterable of Monomials or exponent tuples."""
    rows = []
    for mono in monomials:
        exps = mono.exponents if isinstance(mono, Monomial) else tuple(int(e) for e in mono)
        if len(exps) != ctx.num_vars:
            raise ContextMismatchError(
                f"generator has {len(exps)} exponents, ring has {ctx.num_vars} variables"
            )
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        rows.append(exps)
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), ctx.num_vars)
    if len(rows) > 1:
        return MonomialIdeal(ctx, *_minimal_rows(matrix))
    return MonomialIdeal(ctx, matrix, _row_sums(matrix))


def _check_ctx(a: MonomialIdeal, b: MonomialIdeal) -> None:
    # The ideals of one instance share one context, so identity decides first.
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatchError("ideals live in different rings")


def _rows_in(
    points: np.ndarray, rows: np.ndarray, point_degrees: np.ndarray, row_degrees: np.ndarray
) -> np.ndarray:
    """Boolean mask: which rows of `points` equal a row of `rows`, whose
    rows are distinct.  The degrees are the rows' total degrees.

    One stable grlex sort of both matrices together puts each row of `rows`
    first in its run of equal rows, so a point matches when its run starts
    with a row of `rows`.
    """
    both = np.concatenate((rows, points))
    order, starts = _grlex_runs(both, np.concatenate((row_degrees, point_degrees)))
    matched = (order[starts] < len(rows))[np.cumsum(starts) - 1]
    is_point = order >= len(rows)
    mask = np.zeros(len(points), dtype=bool)
    mask[order[is_point] - len(rows)] = matched[is_point]
    return mask


def _members_mask(a: MonomialIdeal, points: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows of `points`, with total degrees `degrees`,
    lie in the ideal `a`.

    Points of lower total degree than every generator lie outside, so when
    all of them do the mask is all False with no sort.  A generator divides
    a point of its own total degree only when the two are equal, so points
    equal to a generator are found by one sort, and the divisibility test
    for the rest consults, per chunk of points in degree order, only the
    generators of lower degree.
    """
    n = len(points)
    if a.is_zero() or n == 0:
        return np.zeros(n, dtype=bool)
    if degrees.max() < a.degrees[0]:
        return np.zeros(n, dtype=bool)
    mask = _rows_in(points, a.matrix, degrees, a.degrees)
    rest = np.flatnonzero(~mask)
    pdeg = degrees[rest]
    by_degree = np.argsort(pdeg, kind="stable")
    rest = rest[by_degree]
    pdeg = pdeg[by_degree]
    chunk = 1024
    for s in range(0, len(rest), chunk):
        idx = rest[s : s + chunk]
        hi = int(np.searchsorted(a.degrees, pdeg[s : s + chunk][-1], side="left"))
        if hi == 0:
            continue
        mask[idx] = _divides_any(a.matrix[:hi], points[idx])
    return mask


def first_outside_sum(parts, other: MonomialIdeal) -> Monomial | None:
    """The first generator of `other`, in grlex order, outside the sum of the
    ideals `parts`, or None when `other` is contained in that sum.

    A monomial lies in a sum of monomial ideals iff it lies in one of them,
    so the sum is never built: each part tests only the generators that no
    earlier part contains.
    """
    outside = np.arange(len(other.matrix))
    for part in parts:
        _check_ctx(part, other)
        outside = outside[~_members_mask(part, other.matrix[outside], other.degrees[outside])]
    if not len(outside):
        return None
    return Monomial(tuple(other.matrix[outside[0]].tolist()))


# -- ideal arithmetic ------------------------------------------------------


@lru_cache(maxsize=None)
def _ideal_sum_cached(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal(a.ctx, *_minimal_rows(np.concatenate((a.matrix, b.matrix))))


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The sum ideal a+b, minimalized; the other operand itself when one
    operand is the zero ideal."""
    _check_ctx(a, b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return _ideal_sum_cached(a, b)


@lru_cache(maxsize=None)
def _ideal_product_cached(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    sums = _sum_rows(a.matrix, a.degrees, a.key_tops(), b.matrix, b.degrees, b.key_tops())
    return MonomialIdeal(a.ctx, *_drop_divisible(*sums))


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The product ideal a*b, minimalized; the zero factor itself when one
    factor is the zero ideal, the other factor itself when one factor is the
    unit ideal, and the other factor's generators times x^u when one factor
    is the principal ideal (x^u)."""
    _check_ctx(a, b)
    if a.is_zero():
        return a
    if b.is_zero():
        return b
    if a.is_unit():
        return b
    if b.is_unit():
        return a
    # Adding u keeps the rows minimal, distinct and in grlex order.
    if len(a.matrix) == 1:
        return MonomialIdeal(a.ctx, b.matrix + a.matrix[0], b.degrees + a.degrees[0])
    if len(b.matrix) == 1:
        return MonomialIdeal(a.ctx, a.matrix + b.matrix[0], a.degrees + b.degrees[0])
    if len(b.matrix) > len(a.matrix):
        a, b = b, a
    return _ideal_product_cached(a, b)


@lru_cache(maxsize=None)
def _powers(a: MonomialIdeal) -> list[MonomialIdeal]:
    """The powers a^0, a^1, ... computed so far; ideal_power extends it."""
    return [MonomialIdeal.unit(a.ctx), a]


def ideal_power(a: MonomialIdeal, n: int) -> MonomialIdeal:
    """The power a^n; a^0 is the unit ideal.

    Powers are built bottom-up from the highest one already known, and
    equal ideals share them.
    """
    if n < 0:
        raise ValueError("negative power")
    powers = _powers(a)
    while len(powers) <= n:
        powers.append(ideal_product(powers[-1], a))
    return powers[n]


@lru_cache(maxsize=None)
def colon_by_monomial(q: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The colon ideal q : u = { v : u*v in q }; q itself when u is 1."""
    if len(u.exponents) != q.ctx.num_vars:
        raise ContextMismatchError("monomial has wrong variable count")
    if u.is_one():
        return q
    shifted = np.maximum(q.matrix - np.asarray(u.exponents, dtype=np.int64), 0)
    return MonomialIdeal(q.ctx, *_minimal_rows(shifted))


@lru_cache(maxsize=None)
def ideal_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by pairwise lcms of generators."""
    _check_ctx(a, b)
    lcms = np.maximum(a.matrix[:, None, :], b.matrix[None, :, :])
    return MonomialIdeal(a.ctx, *_minimal_rows(lcms.reshape(-1, a.ctx.num_vars)))


def colon_by_ideal(q: MonomialIdeal, i: MonomialIdeal) -> MonomialIdeal:
    """q : i, the intersection of the colons by each generator of i."""
    _check_ctx(q, i)
    if i.is_zero():
        return MonomialIdeal.unit(q.ctx)
    out = None
    for g in i.gens:
        c = colon_by_monomial(q, Monomial(g))
        out = c if out is None else ideal_intersection(out, c)
    return out


@lru_cache(maxsize=None)
def saturation(q: MonomialIdeal, i: MonomialIdeal) -> MonomialIdeal:
    """The stable value q : i^infinity of the ascending colon chain."""
    _check_ctx(q, i)
    current = q
    while True:
        nxt = colon_by_ideal(current, i)
        if nxt == current:
            return current
        current = nxt


# -- length counting -------------------------------------------------------


def _box(bounds) -> np.ndarray:
    """All exponent vectors v with 0 <= v < bounds, one per row."""
    return np.indices(bounds, dtype=np.int64).reshape(len(bounds), -1).T


def _standard_rows(w: MonomialIdeal) -> np.ndarray:
    """The monomials outside `w`, one per row in lexicographic (box) order,
    for `w` containing a power of every variable.

    The rows grow one variable at a time, as a staircase: a standard prefix
    in x1..x_{k-1} extends by x_k^e exactly for e below its cap, the least
    k-th exponent of a generator that involves x_k last and whose earlier
    exponents divide the prefix.  The pure power of x_k is such a
    generator, so every cap is at most its exponent.  A prefix that some
    generator ending at x_k divides has cap 0 and is dropped; by the last
    variable every generator has been tested, so the rows are exactly the
    standard monomials.
    """
    bounds = w.pure_power_bounds()
    if bounds is None:
        raise ValueError("ideal is not primary to the maximal ideal")
    gens = w.matrix
    # The last variable each generator involves.
    last = gens.shape[1] - 1 - np.argmax(gens[:, ::-1] > 0, axis=1)
    rows = np.arange(bounds[0], dtype=np.int64)[:, None]
    for var in range(1, len(bounds)):
        ending = gens[last == var]
        divides = _divides(ending[:, :var], rows)
        caps = np.where(divides, ending[:, var], bounds[var]).min(axis=1, initial=bounds[var])
        total = int(caps.sum())
        grown = np.empty((total, var + 1), dtype=np.int64)
        grown[:, :var] = np.repeat(rows, caps, axis=0)
        grown[:, var] = np.arange(total) - np.repeat(np.cumsum(caps) - caps, caps)
        rows = grown
    return rows


def standard_monomials(w: MonomialIdeal) -> list[tuple[int, ...]]:
    """All monomials outside `w`, for `w` containing a power of every variable.

    Enumerated in the global graded lexicographic order.
    """
    return sorted(map(tuple, w.standard_rows.tolist()), key=_grlex_key)


def _count_difference(top: MonomialIdeal, bot: MonomialIdeal, colon_floor: MonomialIdeal) -> int:
    """Count monomials lying in `top` but not in `bot`.

    `colon_floor` must be an ideal primary to the maximal ideal with
    colon_floor * top contained in bot.  Every monomial of `top` outside
    `bot` then factors as g*v with g a minimal generator of `top` and v a
    standard monomial of the floor, so the count is that of the distinct
    candidates g*v outside `bot`.  When 1 is the only standard monomial the
    candidates are the generators of `top`, and when `top` is the unit ideal
    they are the standard monomials; both are already distinct.
    """
    if top.is_zero() or bot.is_unit():
        return 0
    std, std_degrees, std_tops = colon_floor.standard
    if len(std) == 1:
        pts, degrees = top.matrix, top.degrees
    elif top.is_unit():
        pts, degrees = std, std_degrees
    else:
        pts, degrees = _sum_rows(top.matrix, top.degrees, top.key_tops(),
                                 std, std_degrees, std_tops)
    return int(np.count_nonzero(~_members_mask(bot, pts, degrees)))


def graded_quotient_length(top: MonomialIdeal, bottom: MonomialIdeal,
                           q: MonomialIdeal):
    """The number of monomials in top+q and not in bottom+q, or INFINITE:
    the length of the module ((top+q) + (bottom+q)) / (bottom+q)."""
    return QuotientModule(top.ctx, ideal_sum(bottom, q), ideal_sum(top, q)).length()


# -- quotient modules ------------------------------------------------------


@dataclass(frozen=True)
class QuotientModule:
    """The subquotient module (T + B)/B for monomial ideals T (top) and B
    (relations).

    The cyclic module A/B is the case T = (1), and is what the constructor
    builds when `top` is omitted.  The general pair form is closed under the
    three constructions the multiplicity recursion needs: quotients M/yM,
    annihilator submodules 0:y, and torsion saturations.  The zero module is
    any pair with T contained in B; its dimension is minus infinity by
    convention.
    """

    ctx: RingContext
    relations: MonomialIdeal
    top: MonomialIdeal = None

    def __post_init__(self):
        if self.top is None:
            object.__setattr__(self, "top", MonomialIdeal.unit(self.ctx))
        if self.ctx != self.relations.ctx or self.ctx != self.top.ctx:
            raise ContextMismatchError("module parts live in a different ring")

    @staticmethod
    def free(ctx: RingContext) -> QuotientModule:
        return QuotientModule(ctx, MonomialIdeal.zero(ctx))

    def is_zero(self) -> bool:
        """Whether T lies in B: some generator of B divides each one of T."""
        return bool(_divides_any(self.relations.matrix, self.top.matrix).all())

    def annihilator(self) -> MonomialIdeal:
        """Ann((T+B)/B) = B : T."""
        return colon_by_ideal(self.relations, self.top)

    def quotient_by(self, extra: MonomialIdeal) -> QuotientModule:
        """The quotient M / extra*M, presented as T / (extra*T + B)."""
        cut = ideal_sum(ideal_product(extra, self.top), self.relations)
        return QuotientModule(self.ctx, cut, self.top)

    def quotient_by_elements(self, elems) -> QuotientModule:
        return self.quotient_by(ideal(self.ctx, elems))

    def annihilator_of(self, u: Monomial) -> QuotientModule:
        """The submodule (0 : u) of M, the pair (T meet (B:u)) / B."""
        sub = ideal_intersection(self.top, colon_by_monomial(self.relations, u))
        return QuotientModule(self.ctx, self.relations, sub)

    def saturate(self, i: MonomialIdeal) -> QuotientModule:
        """The quotient killing i-power torsion: M / (0 : i^infinity)."""
        torsion = ideal_intersection(self.top, saturation(self.relations, i))
        return QuotientModule(self.ctx, ideal_sum(self.relations, torsion), self.top)

    def length(self):
        """The total monomial count of (T+B) outside B, or INFINITE.

        The annihilator B : T is the colon floor, since (B : T)(T+B) lies in
        B, and the module has finite length exactly when B : T contains a
        power of every variable."""
        if self.is_zero():
            return 0
        floor = self.annihilator()
        if not floor.is_primary_to_max_ideal():
            return INFINITE
        return _count_difference(ideal_sum(self.top, self.relations), self.relations, floor)


def krull_dim(module: QuotientModule):
    """dim of the subquotient: the variable count minus the smallest variable
    cover of the annihilator supports; minus infinity for the zero module."""
    ann = module.annihilator()
    if ann.is_unit():
        return MINUS_INFINITY
    if ann.is_zero():
        return module.ctx.num_vars
    smallest = min(len(p) for p in ann.minimal_primes())
    return module.ctx.num_vars - smallest
