"""Multigraded Hilbert functions, exact interpolation, and mixed multiplicities.

Two Hilbert functions are attached to a family (J; I_1, ..., I_d) acting on a
cyclic module M = A/Q:

* ``hf_P`` counts the length of J^n0 * I^n * M / J^(n0+1) * I^n * M,
* ``hf_F`` is the length of I^n * M / J^n0 * I^n * M,

where I^n abbreviates the product I_1^{n_1} ... I_d^{n_d}.  Length is
additive along I^n * M, J * I^n * M, ..., J^n0 * I^n * M, so F(n0, n) is
the sum of P(k, n) over k < n0, and ``hf_F`` adds up ``hf_P`` values.  For
all large (n0, n) each function agrees with a polynomial.  We recover it
from a box of grid values by exact integer forward differences, rewritten
on the binomial-coefficient basis

    binom(n0 + k0, k0) * binom(n1 + k1, k1) * ... * binom(nd + kd, kd),

and certify the fit on a disjoint verification band of grid values.  The
change of basis from binom(v - base, j) to binom(v + k, k) is unitriangular
over the integers, one closed-form binomial per entry, so every coefficient
is a Python int.  A fit carries its window of values as an int64 array.  The
mixed multiplicity of type (k0, k) is the basis coefficient at (k0, k); it is
*defined* exactly when every coefficient at a componentwise-larger index
vanishes.  On this basis a difference only reads indices: the (k0, k)-th
difference of the polynomial is constant exactly when the type is defined,
and the constant is that coefficient.

``IdealFamily.piece`` presents J^n0 * I^n * M inside A, without the
relations; the joint-reduction window and the Koszul strands read their
ideals from it, and the Hilbert functions its content-free part.  The
content c(X) of a monomial ideal X is the gcd of its generators, so
X = c(X) X'.  Each family splits I_1, ..., I_d and the top T once, on first
use (J is not split), and the piece at (n0, n) is c(n) X'(n0, n), one row
shift of X'(n0, n) = J^n0 * I_1'^{n_1} * ... * I_d'^{n_d} * T' by
c(n) = c(T) * c(I_1)^{n_1} * ... * c(I_d)^{n_d}.

For Y' inside X' and any monomial c, the monomials of cX' + Q outside
cY' + Q are c times those of X' outside Y' + (Q : c).  So each P value is
one length count of X'(n0, n) outside X'(n0 + 1, n) modulo Q : c(n), with J
as its colon floor.  A principal I_i has I_i' = (1), and its n_i then
enters a count only through Q : c(n), which is Q when Q = 0 and stops
changing once c(n) passes Q's exponents.  Each family keeps its P values in
a memo keyed by (n0, the n_i of the other axes, Q : c(n)), so those axes
reuse one count, and the F values read theirs from it.  ``IdealFamily``
checks that J contains a power of every variable, so every value is finite.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .monomials import (
    MINUS_INFINITY,
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    Record,
    _count_difference,
    _kept,
    _set,
    colon_by_monomial,
    ideal_power,
    ideal_product,
    ideal_shift,
    ideal_sum,
    krull_dim,
    split_content,
)

#: Extent (per axis) of the disjoint verification band used to certify a fit.
BAND_EXTENT = 2

#: The base offset doubles on stabilization failure, up to this factor.
WINDOW_CAP_FACTOR = 64


class StabilizationError(RuntimeError):
    """The evaluation window never produced a certified polynomial fit."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


class MultiDegree(Record):
    """A point (n0, n1, ..., nd) in the multigrading."""

    __slots__ = ("n0", "n")

    def __init__(self, n0: int, n: tuple[int, ...]):
        if n0 < 0 or any(ni < 0 for ni in n):
            raise ValueError("multidegree entries must be non-negative")
        _set(self, "n0", n0)
        _set(self, "n", n)

    def as_tuple(self) -> tuple[int, ...]:
        return (self.n0,) + self.n


class MixedType(Record):
    """An index (k0, k); as a joint-reduction shape it calls for k_i elements
    from each I_i and k0 + 1 elements from J."""

    __slots__ = ("k0", "k")

    def __init__(self, k0: int, k: tuple[int, ...]):
        if k0 < 0 or any(ki < 0 for ki in k):
            raise ValueError("type entries must be non-negative")
        _set(self, "k0", k0)
        _set(self, "k", k)

    def as_tuple(self) -> tuple[int, ...]:
        return (self.k0,) + self.k


class IdealFamily(Record, compared=("j", "ideals", "module")):
    """An m-primary ideal J, the ideals I_1..I_d, and the module they act on.

    Each instance keeps the content split of I_1..I_d and T, made on first
    use, and the contents c(n) and the Hilbert values it has counted, and
    its ring context keeps its fits; equal families from two parses share
    none."""

    __slots__ = ("j", "ideals", "module", "_split", "_contents", "_hilbert_values")

    def __init__(self, j: MonomialIdeal, ideals: tuple[MonomialIdeal, ...],
                 module: QuotientModule):
        if not ideals:
            raise ValueError("need at least one ideal I_i")
        for part in (j, *ideals):
            if part.ctx != module.ctx:
                raise ContextMismatchError("family parts live in different rings")
        if not j.is_primary_to_max_ideal():
            raise ValueError("J must contain a power of every variable")
        _set(self, "j", j)
        _set(self, "ideals", ideals)
        _set(self, "module", module)
        _set(self, "_split", None)
        # The contents c(n) made so far, keyed by n, and the Hilbert values
        # counted so far, keyed as in ``hf_P``.
        _set(self, "_contents", {})
        _set(self, "_hilbert_values", {})

    @property
    def d(self) -> int:
        return len(self.ideals)

    @property
    def ctx(self):
        return self.module.ctx

    def product_ideal(self) -> MonomialIdeal:
        """The product I = I_1 * ... * I_d."""
        out = self.ideals[0]
        for i in self.ideals[1:]:
            out = ideal_product(out, i)
        return out

    def saturated_module(self) -> QuotientModule:
        """M with its I-power torsion killed."""
        return self.module.saturate(self.product_ideal())

    def saturated_dim(self):
        return krull_dim(self.saturated_module())

    def max_generator_degree(self) -> int:
        degs = [self.j.max_generator_degree(), self.module.relations.max_generator_degree()]
        degs += [i.max_generator_degree() for i in self.ideals]
        degs.append(self.module.top.max_generator_degree())
        return max(degs)

    def with_module(self, module: QuotientModule) -> IdealFamily:
        return IdealFamily(self.j, self.ideals, module)

    @property
    def _content_split(self):
        """I_i = x^(c_i) I_i' and T = x^(c_T) T', split on first use: the
        axes whose part I_i' is not the unit ideal, with their parts; T';
        and the content vectors, None when all of them are 0, else c_T with
        the axes whose c_i is not 0 and their c_i."""
        if self._split is None:
            splits = [split_content(i) for i in self.ideals]
            top_content, top_part = split_content(self.module.top)
            factors = tuple((i, part) for i, (_, part) in enumerate(splits) if not part.is_unit())
            contents = tuple((i, c) for i, (c, _) in enumerate(splits) if any(c))
            vectors = (top_content, contents) if contents or any(top_content) else None
            _set(self, "_split", (factors, top_part, vectors))
        return self._split

    def content(self, n: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray, int]:
        """c(n) = c_T + n_1 c_1 + ... + n_d c_d, the content of the piece at
        (n0, n) for every n0: as a tuple, as a read-only int64 row, and its
        total degree; made once per n.  Raises OverflowError when the degree
        passes int64."""
        found = self._contents.get(n)
        if found is None:
            out, contents = self._content_split[2] or ((0,) * self.ctx.num_vars, ())
            for i, ci in contents:
                out = tuple(a + n[i] * b for a, b in zip(out, ci))
            degree = sum(out)
            if degree >= 1 << 63:
                raise OverflowError("a product's degree exceeds the int64 range")
            row = np.array(out, dtype=np.int64)
            row.flags.writeable = False
            found = self._contents[n] = out, row, degree
        return found

    def content_free_piece(self, n0: int, n: tuple[int, ...]) -> MonomialIdeal:
        """X'(n0, n) = J^n0 * I_1'^{n_1} * ... * I_d'^{n_d} * T', the piece at
        (n0, n) with its content c(n) divided out.  The n_i of an axis with
        I_i' = (1) does not enter it."""
        factors, top, _ = self._content_split
        out = ideal_power(self.j, n0)
        for i, part in factors:
            out = ideal_product(out, ideal_power(part, n[i]))
        return ideal_product(out, top)

    def piece(self, deg: MultiDegree) -> MonomialIdeal:
        """The ideal J^n0 * I_1^{n_1} * ... * I_d^{n_d} * T presenting
        J^n0 I^n M inside A, without the relations: c(n) * X'(n0, n), one
        row shift of the content-free piece."""
        out = self.content_free_piece(deg.n0, deg.n)
        if self._content_split[2] is None:
            return out
        _, row, degree = self.content(deg.n)
        return ideal_shift(out, row, degree)


def hf_P(fam: IdealFamily, deg: MultiDegree) -> int:
    """Length of J^n0 I^n M / J^(n0+1) I^n M, counted once per key on the
    family.

    The value is the number of monomials of c(n) X'(n0, n) + Q outside
    c(n) X'(n0 + 1, n) + Q.  Such a monomial is c(n) v with v in X'(n0, n)
    and outside X'(n0 + 1, n) + (Q : c(n)), so the count takes Q : c(n) as
    its relations and the value depends on (n0, n) only through X'(n0, n)
    and that colon.  The key is (n0, the n_i of the axes with I_i' != (1),
    Q : c(n)).  The colon is taken by c(n) clipped to Q's exponent maxima,
    which gives the same ideal: it stops changing once c(n) passes them,
    and is Q itself when Q = 0.
    """
    if len(deg.n) != fam.d:
        raise ValueError("multidegree has wrong axis count")
    q = fam.module.relations
    factors, _, vectors = fam._content_split
    if vectors is not None:
        content, _, degree = fam.content(deg.n)
        if degree and not q.is_zero():
            q = colon_by_monomial(q, Monomial(tuple(map(min, content, q.maxima))))
    key = (deg.n0, tuple(deg.n[i] for i, _ in factors), q)
    memo = fam._hilbert_values
    value = memo.get(key)
    if value is None:
        top = fam.content_free_piece(deg.n0, deg.n)
        # J * top is the piece at the next point in n0, built from the
        # cached J^(n0+1) * I_1'^(n1) product rather than by minimalizing
        # top x J.
        bottom = fam.content_free_piece(deg.n0 + 1, deg.n)
        value = memo[key] = _count_difference(ideal_sum(top, q), ideal_sum(bottom, q), fam.j)
    return value


def hf_F(fam: IdealFamily, deg: MultiDegree) -> int:
    """Length of I^n M / J^n0 I^n M: the sum of hf_P(k, n) over k < n0, as
    length is additive along I^n M, J I^n M, ..., J^n0 I^n M."""
    if len(deg.n) != fam.d:
        raise ValueError("multidegree has wrong axis count")
    return sum(hf_P(fam, MultiDegree(k, deg.n)) for k in range(deg.n0))


# -- polynomials on the binomial basis ------------------------------------


class BinomialBasisPolynomial:
    """A polynomial stored by coefficients on products of binomial factors.

    ``coeffs`` maps an index tuple (k0, ..., kd) to an integer coefficient;
    the basis element at that index evaluates to the product of binom(vi+ki, ki)
    over all axes.  The zero polynomial has degree minus infinity.
    """

    def __init__(self, num_axes: int, coeffs: dict[tuple[int, ...], int]):
        self.num_axes = num_axes
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    @property
    def total_degree(self):
        if not self.coeffs:
            return MINUS_INFINITY
        return max(sum(k) for k in self.coeffs)

    def coefficient(self, index: tuple[int, ...]) -> int:
        return self.coeffs.get(tuple(index), 0)

    def evaluate(self, point: tuple[int, ...]) -> int:
        if len(point) != self.num_axes:
            raise ValueError("point has wrong axis count")
        total = 0
        for index, c in self.coeffs.items():
            term = c
            for v, k in zip(point, index):
                term *= comb(v + k, k)
            total += term
        return total

    def __repr__(self):
        return f"BinomialBasisPolynomial({self.num_axes}, {self.coeffs!r})"


# -- exact interpolation ---------------------------------------------------


class FitResult(Record):
    """A certified polynomial fit with the window that produced it: the
    values on base + [0, extent)^num_axes, as an int64 array."""

    __slots__ = ("poly", "base", "extent", "band_base", "band_extent", "values")

    def __init__(self, poly: BinomialBasisPolynomial, base: int, extent: int, band_base: int,
                 band_extent: int, values: np.ndarray):
        _set(self, "poly", poly)
        _set(self, "base", base)
        _set(self, "extent", extent)
        _set(self, "band_base", band_base)
        _set(self, "band_extent", band_extent)
        _set(self, "values", values)

    def provenance(self) -> dict:
        return {
            "window_base": self.base,
            "window_extent": self.extent,
            "band_base": self.band_base,
            "band_extent": self.band_extent,
        }


def window_points(num_axes: int, base: int, extent: int):
    """The points of the box base + [0, extent)^num_axes, as int tuples in
    lexicographic order."""
    return itertools.product(*(range(base, base + extent) for _ in range(num_axes)))


def _grid(value, num_axes: int, base: int, extent: int) -> np.ndarray:
    """The values on the box base + [0, extent)^num_axes, as exact ints."""
    values = [value(pt) for pt in window_points(num_axes, base, extent)]
    return np.array(values, dtype=object).reshape((extent,) * num_axes)


def _hilbert_function(fam: IdealFamily, which: str):
    hf = hf_P if which == "P" else hf_F
    return lambda pt: hf(fam, MultiDegree(pt[0], pt[1:]))


def _shift_matrix(base: int, degree: int) -> list[list[int]]:
    """Row j holds the coefficients of binom(v - base, j) on binom(v + k, k):
    (-1)^(j - k) binom(base + j, j - k) for k <= j, by Chu-Vandermonde, as
    binom(v - b, j) = sum_k binom(-b - k - 1, j - k) binom(v + k, k).  The
    matrix is unitriangular over the integers.
    """
    return [
        [(-1) ** (j - k) * comb(base + j, j - k) if k <= j else 0 for k in range(degree + 1)]
        for j in range(degree + 1)
    ]


def _binomial_coefficients(values: np.ndarray, base: int, degree: int):
    """The binomial-basis coefficients of the polynomial of total degree at
    most ``degree`` through a box of values at ``base``, or None when no such
    polynomial exists.

    Forward differences at the box corner give the Newton coefficients on
    products of binom(v - base, j); the box is consistent exactly when every
    one with |j| > degree vanishes.  ``_shift_matrix`` then moves them onto
    products of binom(v + k, k), one contraction per axis.
    """
    newton = values.copy()
    for axis in range(newton.ndim):
        view = np.moveaxis(newton, axis, 0)
        for step in range(1, view.shape[0]):
            view[step:] = view[step:] - view[step - 1 : -1]
    for idx, c in np.ndenumerate(newton):
        if c and sum(idx) > degree:
            return None
    coeffs = newton[(slice(degree + 1),) * newton.ndim]
    shift = np.array(_shift_matrix(base, degree), dtype=object)
    # Each contraction over the first axis appends its result as the last,
    # so after one per axis the axes are back in order.
    for _ in range(coeffs.ndim):
        coeffs = np.tensordot(coeffs, shift, axes=(0, 0))
    return {idx: c for idx, c in np.ndenumerate(coeffs) if c}


def _fit_window(value, num_axes: int, degree: int, start: int) -> FitResult:
    """Fit the polynomial of total degree ``degree`` that ``value`` (a map
    from points to ints) eventually agrees with.

    The box of extent degree + 2 at base ``start`` is interpolated exactly
    and certified on a disjoint band; the base doubles on failure up to
    WINDOW_CAP_FACTOR * start, past which StabilizationError is raised.
    """
    extent = degree + 2
    base = start
    residual_log = []
    while base <= WINDOW_CAP_FACTOR * start:
        values = _grid(value, num_axes, base, extent)
        coeffs = _binomial_coefficients(values, base, degree)
        if coeffs is not None:
            poly = BinomialBasisPolynomial(num_axes, coeffs)
            band_base = base + extent
            residuals = []
            for pt in window_points(num_axes, band_base, BAND_EXTENT):
                fitted = poly.evaluate(pt)
                actual = value(pt)
                if fitted != actual:
                    residuals.append((pt, actual - fitted))
            if not residuals:
                window = values.astype(np.int64)
                return FitResult(poly, base, extent, band_base, BAND_EXTENT, window)
            residual_log.append((base, residuals))
        else:
            residual_log.append((base, "inconsistent fit system"))
        base *= 2
    raise StabilizationError(
        f"no stable window up to base {WINDOW_CAP_FACTOR * start}", residual_log
    )


def initial_offset(fam: IdealFamily) -> int:
    """Starting base offset of the evaluation window.

    Uses the dimension of the module itself (not its saturation), which
    dominates and keeps strand computations inside the stable regime.
    """
    mdim = krull_dim(fam.module)
    base_dim = 0 if mdim == MINUS_INFINITY else int(mdim)
    return max(1, base_dim + fam.max_generator_degree())


@_kept
def interpolate(fam: IdealFamily, which: str = "P") -> FitResult:
    """Fit the Hilbert polynomial of ``hf_P`` or ``hf_F`` exactly.

    The fit is retried on doubled base offsets until the polynomial through
    the evaluation box reproduces a disjoint verification band; failure past
    the cap raises StabilizationError.
    """
    if which not in ("P", "F"):
        raise ValueError("which must be 'P' or 'F'")
    num_axes = fam.d + 1
    qdim = fam.saturated_dim()
    # A zero saturation has dimension minus infinity, and so has degree.
    degree = qdim - 1 if which == "P" else qdim
    if degree < 0:
        return _fit_zero(fam, which, num_axes)
    return _fit_window(_hilbert_function(fam, which), num_axes, int(degree), initial_offset(fam))


def _fit_zero(fam: IdealFamily, which: str, num_axes: int) -> FitResult:
    """The zero fit of an eventually-zero Hilbert function.

    Only the window of 2^(d+1) values at the initial offset is checked to
    be zero; the band fields record where a band would sit, and nothing
    evaluates the function there.
    """
    base = initial_offset(fam)
    extent = 2
    values = table_on_window(fam, which, base, extent)
    residuals = [
        (tuple(base + i for i in idx), int(v))
        for idx, v in np.ndenumerate(values)
        if v != 0
    ]
    if residuals:
        raise StabilizationError("zero module produced nonzero Hilbert values", residuals)
    poly = BinomialBasisPolynomial(num_axes, {})
    return FitResult(poly, base, extent, base + extent, BAND_EXTENT, values)


def table_on_window(fam: IdealFamily, which: str, base: int, extent: int) -> np.ndarray:
    """The Hilbert values on the box base + [0, extent)^(d+1), as an int64
    array."""
    return _grid(_hilbert_function(fam, which), fam.d + 1, base, extent).astype(np.int64)


# -- mixed multiplicities --------------------------------------------------


def _index_strictly_above(h: tuple[int, ...], k: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(h, k)) and h != k


def mixed_multiplicity(fam: IdealFamily, mt: MixedType):
    """The binomial-basis coefficient at (k0, k) and its defined-flag.

    The flag is true exactly when every coefficient at a componentwise larger
    index vanishes (the maximal-degrees condition); the componentwise order is
    the adopted reading of "larger index".
    """
    if len(mt.k) != fam.d:
        raise ValueError("type has wrong axis count")
    fit = interpolate(fam, "P")
    target = mt.as_tuple()
    value = fit.poly.coefficient(target)
    defined = not any(
        _index_strictly_above(idx, target) for idx in fit.poly.coeffs
    )
    return value, defined
