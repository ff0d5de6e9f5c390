"""Multigraded Hilbert functions, exact interpolation, and mixed multiplicities.

Two Hilbert functions are attached to a family (J; I_1, ..., I_d) acting on a
cyclic module M = A/Q:

* ``hf_P`` counts the length of J^n0 * I^n * M / J^(n0+1) * I^n * M,
* ``hf_F`` counts the length of I^n * M / J^n0 * I^n * M,

where I^n abbreviates the product I_1^{n_1} ... I_d^{n_d}.  For all large
(n0, n) each function agrees with a polynomial.  We recover it from a box of
grid values by exact integer forward differences, rewritten on the
binomial-coefficient basis

    binom(n0 + k0, k0) * binom(n1 + k1, k1) * ... * binom(nd + kd, kd),

and certify the fit on a disjoint verification band of grid values.  Both
change-of-basis steps are unitriangular over the integers, so every
coefficient is a Python int.  A fit carries its window of values as an int64
array.  The mixed multiplicity of type (k0, k) is the basis coefficient at
(k0, k); it is *defined* exactly when every coefficient at a
componentwise-larger index vanishes.

``IdealFamily.piece`` presents J^n0 * I^n * M inside A, without the
relations; the Hilbert functions, the joint-reduction window and the Koszul
strands all read their ideals from it.  Each Hilbert value is one length
count with J (for ``hf_P``) or J^n0 (for ``hf_F``) as its colon floor.
``IdealFamily`` checks that J contains a power of every variable, so every
value is finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .monomials import (
    MINUS_INFINITY,
    ContextMismatchError,
    MonomialIdeal,
    QuotientModule,
    _count_difference,
    ideal_power,
    ideal_product,
    ideal_sum,
    krull_dim,
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


@dataclass(frozen=True)
class MultiDegree:
    """A point (n0, n1, ..., nd) in the multigrading."""

    n0: int
    n: tuple[int, ...]

    def as_tuple(self) -> tuple[int, ...]:
        return (self.n0,) + self.n


@dataclass(frozen=True)
class MixedType:
    """An index (k0, k); as a joint-reduction shape it calls for k_i elements
    from each I_i and k0 + 1 elements from J."""

    k0: int
    k: tuple[int, ...]

    def __post_init__(self):
        if self.k0 < 0 or any(ki < 0 for ki in self.k):
            raise ValueError("type entries must be non-negative")

    def as_tuple(self) -> tuple[int, ...]:
        return (self.k0,) + self.k

    @property
    def size(self) -> int:
        """Total element count of a candidate of this type: k0 + 1 + |k|."""
        return self.k0 + 1 + sum(self.k)


@dataclass(frozen=True)
class IdealFamily:
    """An m-primary ideal J, the ideals I_1..I_d, and the module they act on."""

    j: MonomialIdeal
    ideals: tuple[MonomialIdeal, ...]
    module: QuotientModule

    def __post_init__(self):
        if not self.ideals:
            raise ValueError("need at least one ideal I_i")
        for part in (self.j, *self.ideals):
            if part.ctx != self.module.ctx:
                raise ContextMismatchError("family parts live in different rings")
        if not self.j.is_primary_to_max_ideal():
            raise ValueError("J must contain a power of every variable")

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

    def piece(self, deg: MultiDegree) -> MonomialIdeal:
        """The ideal J^n0 * I_1^{n_1} * ... * I_d^{n_d} * T presenting
        J^n0 I^n M inside A, without the relations."""
        out = ideal_power(self.j, deg.n0)
        for i, ni in zip(self.ideals, deg.n):
            out = ideal_product(out, ideal_power(i, ni))
        return ideal_product(out, self.module.top)


def hf_P(fam: IdealFamily, deg: MultiDegree) -> int:
    """Length of J^n0 I^n M / J^(n0+1) I^n M."""
    if len(deg.n) != fam.d:
        raise ValueError("multidegree has wrong axis count")
    q = fam.module.relations
    top = fam.piece(deg)
    # J * top is the piece at the next point in n0, built from the cached
    # J^(n0+1) * I_1^(n1) product rather than by minimalizing top x J.
    bottom = fam.piece(MultiDegree(deg.n0 + 1, deg.n))
    return _count_difference(ideal_sum(top, q), ideal_sum(bottom, q), fam.j)


def hf_F(fam: IdealFamily, deg: MultiDegree) -> int:
    """Length of I^n M / J^n0 I^n M."""
    if len(deg.n) != fam.d:
        raise ValueError("multidegree has wrong axis count")
    if deg.n0 == 0:
        return 0
    q = fam.module.relations
    top = fam.piece(MultiDegree(0, deg.n))
    jpow = ideal_power(fam.j, deg.n0)
    bottom = ideal_product(top, jpow)
    return _count_difference(ideal_sum(top, q), ideal_sum(bottom, q), jpow)


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

    @staticmethod
    def zero(num_axes: int) -> BinomialBasisPolynomial:
        return BinomialBasisPolynomial(num_axes, {})

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def difference_once(self, axis: int) -> BinomialBasisPolynomial:
        """One forward difference along `axis`.

        On the binomial basis, differencing an index value t along one axis
        spreads the coefficient onto every index value below t on that axis
        (the hockey-stick identity), and kills index value 0.
        """
        out: dict[tuple[int, ...], int] = {}
        for index, c in self.coeffs.items():
            t = index[axis]
            for j in range(t):
                tgt = index[:axis] + (j,) + index[axis + 1 :]
                out[tgt] = out.get(tgt, 0) + c
        return BinomialBasisPolynomial(self.num_axes, out)

    def difference(self, mt: MixedType) -> BinomialBasisPolynomial:
        steps = mt.as_tuple()
        if len(steps) != self.num_axes:
            raise ValueError("type has wrong axis count")
        out = self
        for axis, count in enumerate(steps):
            for _ in range(count):
                out = out.difference_once(axis)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, BinomialBasisPolynomial)
            and self.num_axes == other.num_axes
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"BinomialBasisPolynomial({self.num_axes}, {self.coeffs!r})"


# -- exact interpolation ---------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """A certified polynomial fit with the window that produced it: the
    values on base + [0, extent)^num_axes, as an int64 array."""

    poly: BinomialBasisPolynomial
    base: int
    extent: int
    band_base: int
    band_extent: int
    values: np.ndarray

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


def _binom_negative(b: int, m: int) -> int:
    """binom(-b, m) for b >= 0."""
    return 1 if m == 0 else (-1) ** m * comb(b + m - 1, m)


def _shift_matrix(base: int, degree: int) -> list[list[int]]:
    """Row j holds the coefficients of binom(v - base, j) on binom(v + k, k).

    binom(v - b, j) = sum_i binom(-b, j - i) binom(v, i) (Vandermonde), and
    binom(v, i) = sum_k (-1)^(i - k) binom(i, k) binom(v + k, k); both steps
    are unitriangular over the integers.
    """
    return [
        [
            sum(
                _binom_negative(base, j - i) * (-1) ** (i - k) * comb(i, k)
                for i in range(k, j + 1)
            )
            for k in range(degree + 1)
        ]
        for j in range(degree + 1)
    ]


def _binomial_coefficients(values: np.ndarray, base: int, degree: int):
    """The binomial-basis coefficients of the polynomial of total degree at
    most ``degree`` through a box of values at ``base``, or None when no such
    polynomial exists.

    Forward differences at the box corner give the Newton coefficients on
    products of binom(v - base, j); the box is consistent exactly when every
    one with |j| > degree vanishes.
    """
    newton = values.copy()
    for axis in range(newton.ndim):
        view = np.moveaxis(newton, axis, 0)
        for step in range(1, view.shape[0]):
            view[step:] = view[step:] - view[step - 1 : -1]
    coeffs = {}
    for idx, c in np.ndenumerate(newton):
        if c:
            if sum(idx) > degree:
                return None
            coeffs[idx] = c
    shift = _shift_matrix(base, degree)
    for axis in range(newton.ndim):
        moved = {}
        for idx, c in coeffs.items():
            for k, t in enumerate(shift[idx[axis]]):
                if t:
                    tgt = idx[:axis] + (k,) + idx[axis + 1 :]
                    moved[tgt] = moved.get(tgt, 0) + c * t
        coeffs = moved
    return coeffs


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


@lru_cache(maxsize=None)
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
    if qdim == MINUS_INFINITY:
        # Zero saturation: the function is eventually zero.
        return _fit_zero(fam, which, num_axes)
    degree = int(qdim) - 1 if which == "P" else int(qdim)
    if degree < 0:
        return _fit_zero(fam, which, num_axes)
    return _fit_window(_hilbert_function(fam, which), num_axes, degree, initial_offset(fam))


def _fit_zero(fam: IdealFamily, which: str, num_axes: int) -> FitResult:
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
    poly = BinomialBasisPolynomial.zero(num_axes)
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
