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
monomials at once is one vectorized test, ``_members_mask``.  Membership
over a whole box of exponents 0 <= v < bounds needs no list of points:
x^v lies in the ideal exactly when some generator g has g <= v, so
``_box_members`` marks the generators inside the box and OR-accumulates the
marks along each axis in turn.  The ideal's hash is computed from the
matrix bytes on first use and kept, so the memo of its ring context
(``_kept``) looks ideals up in constant time, and ideals that never enter
it (principal shifts, most Hilbert pieces) never pay for it.
Whether the ideal is the unit ideal is a flag set at construction.
``gens``, the generators as exponent tuples, and ``maxima``, the greatest
exponent of each variable over them, are made on first use and kept.

Every grlex sort, dedupe and exact match packs the key (degree, x1, ...,
x_{m-1}) of each row into one int64 word (``_packing``): the degree fixes
x_m, which is left out of the key and recovered as the degree minus the
others.  Each key column's radix is an upper bound on it plus one, and
every caller already holds the bounds.  The sum-set kernel takes the
operands' ``key_tops`` (an ideal's last degree, since its degrees are
grlex-sorted, and its kept maxima) or a floor's standard tops.  The dedupe
and the membership look-up bound every column by a bound on the degrees,
since no exponent exceeds its row's degree: an ideal's last degree, the
greater of two, their sum for an lcm, or the greatest degree of the
points, which the membership test's degree gate takes anyway.  No other
maximum is reduced for a bound.  One helper, ``_distinct_rows``, reads the
distinct words in order, off a boolean map of their span when it holds at
most eight cells per word and by an in-place sort otherwise, and unpacks
them into rows by divmod over the radices.  Keys too wide for one word
fall back to one lexsort over the key columns (``_wide_unique``), whose
degrees are summed a column at a time so that one past int64 raises
OverflowError.

Every result that may hold redundant rows goes through one minimalizer,
``_minimal_rows``: the distinct rows (``_grlex_unique``), then the
divisibility pass ``_drop_divisible``, which returns rows of a single
degree as they are: rows of equal degree cannot properly divide each
other.  Results that are minimal by construction skip it: the product with
a principal ideal (x^u) is the other factor's matrix plus u
(``ideal_shift``), which stays minimal, distinct and grlex-ordered; a sum
with the zero ideal is the other operand, a sum with the unit ideal the
unit operand, a product with the zero ideal the zero factor and a product
with the unit ideal the other factor.
Subtracting the column minimum, the content (the gcd of the generators),
keeps a matrix minimal the same way, so ``split_content`` writes an ideal
as x^c times a content-free ideal without minimalizing.  Containment in a
sum of ideals, ``first_outside_sum``, never builds the sum: a monomial
lies in a sum of monomial ideals iff it lies in one of them.

Any other product, and the candidates of a count, are the distinct pairwise
sums of two generator matrices, ``_sum_rows``.  Packing is linear: when
each key column's radix is at least the sum of the two operands' tops plus
one, the word of g+h is word(g) + word(h), so the pairs are one outer sum
of two int64 word vectors, and their span is read off the ends of the
operands' increasing words (a floor's standard rows are kept in grlex
order, like an ideal's generators); no (pairs, m) matrix is built.  A sum
whose degree would pass int64 raises OverflowError, here, in the principal
shift, in an lcm of ``ideal_intersection`` and for a generator given to
``ideal``, rather than wrap.

Reductions over the exponent axis of many rows run column-wise.
Exponent matrices are C-ordered (n, m) with m small, and a numpy reduction
along that short inner axis (``rows.sum(axis=1)``, or the broadcast
``(gens[None] <= pts[:, None]).all(axis=2)``) pays its per-row set-up on a
handful of elements.  So "some generator divides this point" is
``_divides_any``, which ANDs one (points, generators) comparison per column
(``_divides``) and reduces only along the long generator axis, and the
packed grlex words are one matrix-vector product.  No kernel sums rows for
their degrees: degrees known by construction (minimalized rows, shifted
ideals, the generators ``ideal`` checks one by one) are passed to the
constructor, and ``_members_mask`` takes the points' degrees from its
caller, which holds them: an ideal's ``degrees``, those ``_sum_rows``
returns, or a floor's standard-row degrees.  It finds the points equal to
a generator by looking their words up among the generators'
(``np.searchsorted``), with every key column bounded by the greatest
degree, and tests the rest for divisibility by the generators of lower
degree.

The saturation q : i^infinity is one colon ideal q : E, with E generated
by x^e(g) for each generator g of i, e(g) being q's exponent maxima on the
support of g and 0 off it.  Proof: q : i^infinity is the intersection of
the q : g^infinity (a product of r(k-1)+1 of i's r generators repeats one
k times), q : g^infinity = q : x^e(g) (a colon by x_j^k stops changing
once k reaches q's largest x_j-exponent), and the intersection of the
q : x^e(g) is q : E.

Every length is one count, ``_count_difference(top, bot, colon_floor)``, of
the monomials in `top` outside `bot`.  Its colon floor is an ideal primary to
the maximal ideal whose product with `top` lies in `bot`, so each counted
monomial is a generator of `top` times a standard monomial of the floor.
The floor's standard monomials are enumerated once per floor ideal, as a
staircase that grows them one variable at a time (``_standard_rows``), and
kept on it in grlex order with their degrees and key maxima (``standard``),
the way ``gens`` is.  The Hilbert values take J as the floor, and
``QuotientModule.length`` takes the module's annihilator B : T.
That method is the one place that decides finiteness: the module has finite
length exactly when B : T contains a power of every variable.

The package's immutable records derive from :class:`Record`, written out
rather than generated: a generated class compiles its methods from source
text when its module is imported, on every start of the program.
"""

from __future__ import annotations

import itertools
import math
from functools import wraps
from operator import attrgetter

import numpy as np

#: Sentinel returned by length computations on quotients of infinite length.
INFINITE = float("inf")

#: Dimension of the zero module / degree of the zero polynomial.
MINUS_INFINITY = float("-inf")


class ContextMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


def _grlex_key(exponents):
    return (sum(exponents), exponents)


#: Stores a field of a record from its ``__init__``; assignment is refused.
_set = object.__setattr__


class Record:
    """An immutable record with value semantics.

    A subclass declares ``__slots__`` and an ``__init__`` that validates its
    arguments and stores each field through ``_set``.  Its compared fields,
    in order, are its slots, or those the class keyword ``compared`` names.
    They alone decide ``==`` (between records of the same class) and the
    hash, which is the hash of their tuple, and they are the fields
    ``repr`` shows unless the keyword ``shown`` names others.  Assignment
    and deletion raise AttributeError; copy and pickle work.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, compared: tuple[str, ...] | None = None,
                          shown: tuple[str, ...] | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if compared is None:
            compared = cls.__slots__
        if len(compared) == 1:
            # attrgetter of one name gives the bare value, not a 1-tuple.
            get = attrgetter(compared[0])
            cls._values = staticmethod(lambda rec: (get(rec),))
        else:
            cls._values = staticmethod(attrgetter(*compared))
        cls._shown = compared if shown is None else shown

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through setattr by default.
        for name, value in state[1].items():
            _set(self, name, value)


class RingContext(Record, compared=("num_vars",)):
    """The localized ring in ``num_vars`` variables (its identity); ``memo`` serves ``_kept``."""

    __slots__ = ("num_vars", "memo")

    def __init__(self, num_vars: int, memo: dict | None = None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        _set(self, "num_vars", num_vars)
        _set(self, "memo", {} if memo is None else memo)

    def __reduce__(self):
        # A copy starts with a fresh memo: pickle cannot name the functions
        # that key it, and deepcopy would hash its key ideals half-built.
        return RingContext, (self.num_vars,)

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


class Monomial(Record):
    """A monomial, stored as its exponent vector."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        if any(e < 0 for e in exponents):
            raise ValueError(f"negative exponent in {exponents}")
        _set(self, "exponents", exponents)

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


def _packing(tops) -> tuple[list[int], np.ndarray] | None:
    """The packing of grlex keys (degree, x1, ..., x_{m-1}) into one int64
    word, for rows whose key columns (degree, x1, ..., xm) are at most
    `tops`: the radices of the key columns and the weights whose product
    with an (n, m) exponent matrix is the rows' words.  None when the key
    needs more than one word.

    The degree fixes x_m, so its digit is left out of the key and recovered
    as the degree minus the others.  Each key column is a digit whose radix
    is its top plus one, so words compare as the keys do, and equal words
    mean equal rows.  Since the degree is x1 + ... + xm, the word of a row
    is one matrix-vector product, each exponent weighted by its own place
    value plus the degree's.
    """
    radices = [top + 1 for top in tops[:-1]]
    # Place values of the key columns; x_m's is zero.
    place = [math.prod(radices[col + 1 :]) for col in range(len(radices))] + [0]
    if place[0] * radices[0] > 1 << 63:
        return None
    return radices, np.array([value + place[0] for value in place[1:]], dtype=np.int64)


def _distinct_rows(offsets: np.ndarray, low: int, cells: int,
                   radices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows whose packed words (``_packing``, with `radices`)
    are low + s for s in `offsets`, an int64 array with entries in 0 ..
    cells - 1, in grlex order, and their total degrees.

    When the span holds at most eight cells per word, the words mark a
    boolean map of it, never larger than the words themselves, and the
    marked cells are the distinct words in order.  Sparser words are sorted
    in place and the first of each run kept.  Divmod over the radices
    unpacks the rows.
    """
    if cells <= 8 * offsets.size:
        marked = np.zeros(cells, dtype=bool)
        marked[offsets] = True
        words = marked.nonzero()[0]
    else:
        words = offsets.ravel()
        words.sort()
        fresh = np.empty(len(words), dtype=bool)
        fresh[:1] = True
        np.not_equal(words[1:], words[:-1], out=fresh[1:])
        words = words[fresh]
    words += low
    m = len(radices)
    rows = np.empty((len(words), m), dtype=np.int64)
    others = np.zeros(len(words), dtype=np.int64)
    for col in range(m - 1, 0, -1):
        words, digit = np.divmod(words, radices[col])
        rows[:, col - 1] = digit
        others += digit
    np.subtract(words, others, out=rows[:, m - 1])
    return rows, words


def _sorted_runs(keys) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort by the key vectors `keys`, the last one primary, as
    ``np.lexsort`` takes them: the order, and a mask over the sorted
    entries marking each one whose key differs from its predecessor's."""
    order = np.lexsort(keys)
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for key in keys:
        key = key[order]
        fresh[1:] |= key[1:] != key[:-1]
    return order, fresh


def _wide_unique(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_grlex_unique`` for keys too wide for one word: one lexsort over
    the key columns.  The degrees are summed a column at a time, so that
    one past int64 raises OverflowError rather than wrap: a sum of two
    non-negative int64 values wraps to a negative one."""
    degrees = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        degrees += column
        if (degrees < 0).any():
            raise OverflowError("a degree exceeds the int64 range")
    order, fresh = _sorted_runs([*rows.T[: rows.shape[1] - 1][::-1], degrees])
    keep = order[fresh]
    return rows[keep], degrees[keep]


def _grlex_unique(rows: np.ndarray, degree_top: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, m) int64 exponent matrix in grlex order,
    and their total degrees.  `degree_top`, which the caller holds, bounds
    the rows' degrees from above, and so every exponent; the words then lie
    below the product of the radices."""
    if not len(rows):
        return rows, np.zeros(0, dtype=np.int64)
    packing = _packing((degree_top,) * (rows.shape[1] + 1))
    if packing is None:
        return _wide_unique(rows)
    radices, weights = packing
    return _distinct_rows(rows @ weights, 0, math.prod(radices), radices)


def _sum_rows(a: np.ndarray, a_tops: tuple[int, ...], b: np.ndarray,
              b_tops: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sums of a row of `a` and a row of `b`, (n, m) int64
    exponent matrices, in grlex order, and their total degrees.  `a_tops`
    and `b_tops` are the greatest value of each grlex key column (degree,
    x1, ..., xm) over the rows, which the operands carry
    (``MonomialIdeal.key_tops``, ``MonomialIdeal.standard``).  The rows of
    both are grlex-sorted.  Raises OverflowError when a sum's degree would
    pass int64; no exponent of a sum can then pass it either.

    Packing (``_packing``) is linear: when each key column's radix is at
    least its maximum in `a` plus its maximum in `b` plus one, no digit of
    a sum carries, so the word of g+h is word(g) + word(h), and the pairs
    are one outer sum of two word vectors.  Sorted rows have increasing
    words, so the least and greatest pair words are sums of the ends.  Keys
    that need more than one word take the broadcast rows through
    ``_wide_unique``.
    """
    m = a.shape[1]
    if not len(a) or not len(b):
        return np.zeros((0, m), dtype=np.int64), np.zeros(0, dtype=np.int64)
    tops = [top_a + top_b for top_a, top_b in zip(a_tops, b_tops)]
    # Every exponent is at most its row's degree.
    if tops[0] >= 1 << 63:
        raise OverflowError("a product's degree exceeds the int64 range")
    packing = _packing(tops)
    if packing is None:
        return _wide_unique((a[:, None, :] + b[None, :, :]).reshape(-1, m))
    radices, weights = packing
    words_a, words_b = a @ weights, b @ weights
    low = int(words_a[0]) + int(words_b[0])
    cells = int(words_a[-1]) + int(words_b[-1]) - low + 1
    return _distinct_rows(np.add.outer(words_a, words_b - low), low, cells, radices)


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


def _minimal_rows(rows: np.ndarray, degree_top: int) -> tuple[np.ndarray, np.ndarray]:
    """The minimal rows of an (n, m) int64 exponent matrix whose degrees
    are at most `degree_top`, in grlex order, and their total degrees."""
    return _drop_divisible(*_grlex_unique(rows, degree_top))


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
        of every variable: the read-only rows in grlex order, their
        read-only total degrees, and the greatest value of each grlex key
        column over them; enumerated and sorted on first use.

        x_i^(e-1) is standard for the least e with x_i^e in the ideal, and
        every standard exponent of x_i is below e."""
        if self._standard is None:
            rows = _standard_rows(self)
            maxima = [max(e - 1, 0) for e in self.pure_power_bounds()]
            rows, degrees = _grlex_unique(rows, sum(maxima))
            rows.flags.writeable = False
            degrees.flags.writeable = False
            self._standard = rows, degrees, (int(degrees[-1]) if len(degrees) else 0, *maxima)
        return self._standard

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
    rows, degrees = [], []
    for mono in monomials:
        exps = mono.exponents if isinstance(mono, Monomial) else tuple(int(e) for e in mono)
        if len(exps) != ctx.num_vars:
            raise ContextMismatchError(
                f"generator has {len(exps)} exponents, ring has {ctx.num_vars} variables"
            )
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        degrees.append(sum(exps))
        if degrees[-1] >= 1 << 63:
            raise OverflowError("a generator's degree exceeds the int64 range")
        rows.append(exps)
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), ctx.num_vars)
    if len(rows) > 1:
        return MonomialIdeal(ctx, *_minimal_rows(matrix, max(degrees)))
    return MonomialIdeal(ctx, matrix, np.array(degrees, dtype=np.int64))


def _check_ctx(a: MonomialIdeal, b: MonomialIdeal) -> None:
    # The ideals of one instance share one context, so identity decides first.
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatchError("ideals live in different rings")


def _members_mask(a: MonomialIdeal, points: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows of `points`, with total degrees `degrees`,
    lie in the ideal `a`.

    Points of lower total degree than every generator lie outside, so when
    all of them do the mask is all False with no search.  A generator
    divides a point of its own total degree only when the two are equal, so
    points equal to a generator are found by looking their packed words up
    among the generators' (``_packing``), which grlex order makes strictly
    increasing, and the divisibility test for the rest consults, per chunk
    of points in degree order, only the generators of lower degree.  No
    exponent exceeds its row's degree, so the greatest degree of a point or
    a generator bounds every key column.  Keys too wide for one word skip
    the look-up, and the divisibility test then consults the generators of
    equal degree as well.
    """
    n = len(points)
    if a.is_zero() or n == 0:
        return np.zeros(n, dtype=bool)
    top = int(degrees.max())
    if top < a.degrees[0]:
        return np.zeros(n, dtype=bool)
    packing = _packing((max(top, a.max_generator_degree()),) * (points.shape[1] + 1))
    if packing is None:
        mask, side = np.zeros(n, dtype=bool), "right"
    else:
        gen_words, words = a.matrix @ packing[1], points @ packing[1]
        at = np.minimum(np.searchsorted(gen_words, words), len(gen_words) - 1)
        mask, side = gen_words[at] == words, "left"
    rest = np.flatnonzero(~mask)
    pdeg = degrees[rest]
    by_degree = np.argsort(pdeg, kind="stable")
    rest = rest[by_degree]
    pdeg = pdeg[by_degree]
    chunk = 1024
    for s in range(0, len(rest), chunk):
        idx = rest[s : s + chunk]
        hi = int(np.searchsorted(a.degrees, pdeg[s : s + chunk][-1], side=side))
        if hi == 0:
            continue
        mask[idx] = _divides_any(a.matrix[:hi], points[idx])
    return mask


def _box_members(a: MonomialIdeal, bounds: tuple[int, ...]) -> np.ndarray:
    """Boolean array of shape `bounds`: whether x^v lies in `a`, for every
    point v of the box 0 <= v < bounds.

    x^v lies in a monomial ideal exactly when some generator g has g <= v
    componentwise, so the mask is the orthant prefix-OR of the generators:
    each generator inside the box is marked, and the marks are OR-accumulated
    along one axis after another.  A generator with an exponent at or past
    its bound touches no cell.
    """
    mask = np.zeros(bounds, dtype=bool)
    gens = a.matrix
    inside = gens[(gens < bounds).all(axis=1)]
    mask[tuple(inside.T)] = True
    for axis in range(len(bounds)):
        np.logical_or.accumulate(mask, axis=axis, out=mask)
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


def _kept(fn):
    """`fn`, memoized by argument equality in ``ctx.memo[fn]`` of its first argument."""
    def kept(*args):
        table = args[0].ctx.memo.setdefault(fn, {})
        if (value := table.get(args)) is None:
            value = table[args] = fn(*args)
        return value
    return wraps(fn)(kept)


@_kept
def _ideal_sum_cached(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    top = max(a.max_generator_degree(), b.max_generator_degree())
    return MonomialIdeal(a.ctx, *_minimal_rows(np.concatenate((a.matrix, b.matrix)), top))


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The sum ideal a+b, minimalized; the other operand itself when one
    operand is the zero ideal, and the unit operand when one is the unit
    ideal."""
    _check_ctx(a, b)
    if a.is_zero() or b.is_unit():
        return b
    if b.is_zero() or a.is_unit():
        return a
    return _ideal_sum_cached(a, b)


@_kept
def _ideal_product_cached(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    sums = _sum_rows(a.matrix, a.key_tops(), b.matrix, b.key_tops())
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
    if len(b.matrix) == 1:
        a, b = b, a
    if len(a.matrix) == 1:
        return ideal_shift(b, a.matrix[0], a.degrees[0])
    if len(b.matrix) > len(a.matrix):
        a, b = b, a
    return _ideal_product_cached(a, b)


def ideal_shift(a: MonomialIdeal, u, degree) -> MonomialIdeal:
    """The product x^u * a, for an exponent vector `u` of total degree
    `degree` (at most 2^63 - 1): the rows of `a` plus u, which stay minimal,
    distinct and in grlex order; `a` itself when u is 0 or `a` is the zero
    ideal.  Raises OverflowError when a degree would pass int64."""
    if not degree or a.is_zero():
        return a
    # The array add wraps silently: past int64, the greatest degree turns
    # negative, and no exponent can pass int64 unless it does.
    degrees = a.degrees + degree
    if degrees[-1] < 0:
        raise OverflowError("a product's degree exceeds the int64 range")
    return MonomialIdeal(a.ctx, a.matrix + u, degrees)


def split_content(a: MonomialIdeal) -> tuple[tuple[int, ...], MonomialIdeal]:
    """The content of `a`, the exponent vector c of the gcd of its
    generators (0 for the zero ideal), and the content-free ideal a' with
    a = x^c * a'; `a` itself when c is 0.

    c is the column minimum of the generators, and subtracting it keeps the
    rows minimal, distinct and in grlex order."""
    if a.is_zero():
        return (0,) * a.ctx.num_vars, a
    shift = a.matrix.min(axis=0)
    content = tuple(shift.tolist())
    if not any(content):
        return content, a
    return content, MonomialIdeal(a.ctx, a.matrix - shift, a.degrees - sum(content))


@_kept
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


@_kept
def colon_by_monomial(q: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The colon ideal q : u = { v : u*v in q }; q itself when u is 1."""
    if len(u.exponents) != q.ctx.num_vars:
        raise ContextMismatchError("monomial has wrong variable count")
    if u.is_one():
        return q
    shifted = np.maximum(q.matrix - np.asarray(u.exponents, dtype=np.int64), 0)
    return MonomialIdeal(q.ctx, *_minimal_rows(shifted, q.max_generator_degree()))


@_kept
def ideal_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by pairwise lcms of generators.  Raises
    OverflowError when an lcm's degree would pass int64."""
    _check_ctx(a, b)
    lcms = np.maximum(a.matrix[:, None, :], b.matrix[None, :, :])
    # An lcm's degree is at most the sum of the two generators' degrees.
    top = a.max_generator_degree() + b.max_generator_degree()
    return MonomialIdeal(a.ctx, *_minimal_rows(lcms.reshape(-1, a.ctx.num_vars), top))


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


@_kept
def saturation(q: MonomialIdeal, i: MonomialIdeal) -> MonomialIdeal:
    """The saturation q : i^infinity, as the one colon ideal q : E (see the
    module docstring): E is generated by x^e(g) for each generator g of i,
    with e(g) equal to q's maxima on the support of g and 0 off it."""
    _check_ctx(q, i)
    powers = np.where(i.matrix > 0, np.asarray(q.maxima, dtype=np.int64), 0)
    return colon_by_ideal(q, MonomialIdeal(q.ctx, *_minimal_rows(powers, sum(q.maxima))))


# -- length counting -------------------------------------------------------


def _standard_rows(w: MonomialIdeal) -> np.ndarray:
    """The monomials outside `w`, one per row in lexicographic order,
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
        pts, degrees = _sum_rows(top.matrix, top.key_tops(), std, std_tops)
    return int(np.count_nonzero(~_members_mask(bot, pts, degrees)))


# -- quotient modules ------------------------------------------------------


class QuotientModule(Record):
    """The subquotient module (T + B)/B for monomial ideals T (top) and B
    (relations).

    The cyclic module A/B is the case T = (1), and is what the constructor
    builds when `top` is omitted.  The general pair form is closed under the
    three constructions the multiplicity recursion needs: quotients M/yM,
    annihilator submodules 0:y, and torsion saturations.  The zero module is
    any pair with T contained in B; its dimension is minus infinity by
    convention.
    """

    __slots__ = ("ctx", "relations", "top")

    def __init__(self, ctx: RingContext, relations: MonomialIdeal, top: MonomialIdeal = None):
        if top is None:
            top = MonomialIdeal.unit(ctx)
        if ctx != relations.ctx or ctx != top.ctx:
            raise ContextMismatchError("module parts live in a different ring")
        _set(self, "ctx", ctx)
        _set(self, "relations", relations)
        _set(self, "top", top)

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
