"""Euler characteristics of joint reductions via multigraded Koszul strands.

The extended Rees module of the family places I^n * M in multidegree (n0, n)
for every n0 >= 0.  A joint-reduction candidate gives Koszul elements acting
on that tower: an I_i-sourced element shifts (n0, n) by (0, e_i), a J-sourced
element by (1, 0), and every element shifts the internal (exponent) degree by
its own exponent vector.  Fixing a multidegree and an internal degree cuts the
Koszul complex down to a strand, a finite complex of finite-dimensional
rational vector spaces.

Each piece of a strand is spanned by at most one monomial, so a strand is
determined by its support pattern: which exterior subsets have a nonzero
piece.  The strands of a whole internal-degree box are built at once: one
membership mask per piece ideal (``IdealFamily.piece`` at n0 = 0, and one
for the relations) over the box, shifted into one column per exterior
subset.  x^a lies in a monomial ideal exactly when some generator g has
g <= a, so each mask is the orthant prefix-OR of the generators that fall in
the box (``monomials._box_members``): marked, then OR-accumulated along each
axis in turn, with no enumeration or sort of the box's points.

By Euler-Poincare, the alternating homology sum of a finite complex is its
alternating chain count, so the strands of the band [0, band]^m sum to the
count of each exterior subset S over the band, signed (-1)^|S|: no
homology is computed for the value.  Homology decides only the band
certificate, that every strand of the buffer beyond the band is acyclic.
There each pattern is keyed by its bit row packed into int64 words, the
distinct patterns are the runs of one lexsort of the keys, and each is
checked once, by fraction-free integer (Bareiss) rank.

The Euler characteristic itself is defined operationally as the constant value
of the (k0, k)-difference of the Hilbert polynomial P (the DIFFERENCE method).
On the binomial basis that constant and its existence are the mixed
multiplicity of type (k0, k) and its defined-flag, read off the coefficients;
the fit's window of values, differenced, checks them.  The strand computation
(the DIRECT method) is an independent verification channel carrying an
empirical band certificate for the truncation of internal degrees.  These
two channels, which the `chi` request runs, are all this module computes,
and both refuse a datum whose candidate is not certified.
"""

from __future__ import annotations

import itertools

import numpy as np

from .hilbert import (
    MultiDegree,
    _index_strictly_above,
    interpolate,
    mixed_multiplicity,
    table_on_window,
)
from .monomials import Record, _box_members, _set, _sorted_runs
from .reductions import J_SOURCE, JointReductionCandidate, ReesDatum

#: Internal-degree band doubles at most this many times before giving up.
BAND_DOUBLINGS = 3

#: Bit weights of the int64 words that key a support pattern, 63 subsets each.
_BIT_WEIGHTS = np.left_shift(1, np.arange(63, dtype=np.int64))


class NonConstantDifferenceError(RuntimeError):
    """The differenced Hilbert table is not constant; the declared type does
    not match the polynomial's coefficient support."""


class EulerValue(Record):
    """A chi value with the window or band that produced it."""

    __slots__ = ("value", "provenance", "certified")

    def __init__(self, value: int, provenance: dict, certified: bool = True):
        _set(self, "value", value)
        _set(self, "provenance", provenance)
        _set(self, "certified", certified)


def _require_certified(datum: ReesDatum) -> None:
    if not datum.certificate.holds:
        raise ValueError("candidate failed joint-reduction certification")


def _koszul_shifts(cand: JointReductionCandidate, d: int):
    """Per element: the (n0, n) bidegree shift and the exponent shift."""
    shifts = []
    for u, src in cand.elements:
        if src == J_SOURCE:
            bidegree = (1,) + (0,) * d
        else:
            bidegree = (0,) + tuple(1 if i == src else 0 for i in range(d))
        shifts.append((bidegree, u.exponents))
    return shifts


def _rank_exact(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) integer elimination.

    After each pivot step every entry below the pivot rows is a minor of the
    input, so the division by the previous pivot is exact and the entries
    stay integers bounded by Hadamard's inequality.
    """
    if not rows or not rows[0]:
        return 0
    mat = [[int(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        p = pr[c]
        for i in range(rank + 1, nrows):
            f = mat[i][c]
            mat[i] = [(p * x - f * y) // prev for x, y in zip(mat[i], pr)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _support_patterns(datum: ReesDatum, deg: MultiDegree, bounds: tuple[int, ...]):
    """The exterior subsets, and which of them have a nonzero piece at each
    internal degree a of the box 0 <= a < bounds: a boolean
    (cells, 2^n) matrix whose rows follow the box's cells in C order.

    Subset S sits at (deg, a) minus the shifts of its elements, (n0', n')
    and a - e_S.  The piece of I^n * M at multidegree (n0', n') and internal
    degree b is spanned by the single monomial x^b when (n0', n') and b are
    componentwise non-negative and x^b lies in I^n' * T but not in B, and is
    empty otherwise; the tower does not cut by powers of J.  Since a - e_S
    stays in the box, one membership mask per distinct n' (and one for B)
    over the box serves every subset: the subset's column is that mask
    shifted by e_S.  Each mask is filled over the whole box from the
    ideal's generators alone (``_box_members``), with no list of points.
    """
    fam = datum.fam
    shifts = _koszul_shifts(datum.cand, fam.d)
    # Columns: every subset of the elements, by size and then lexicographically.
    count = len(shifts)
    subsets = [s for p in range(count + 1) for s in itertools.combinations(range(count), p)]
    bide_shift = np.array([b for b, _ in shifts], dtype=np.int64).reshape(-1, fam.d + 1)
    exp_shift = np.array([e for _, e in shifts], dtype=np.int64).reshape(-1, fam.ctx.num_vars)
    point = np.array(deg.as_tuple(), dtype=np.int64)
    outside = ~_box_members(fam.module.relations, bounds)
    in_piece = {}
    present = np.zeros(bounds + (len(subsets),), dtype=bool)
    for col, subset in enumerate(subsets):
        bide = point - bide_shift[list(subset)].sum(axis=0)
        e = exp_shift[list(subset)].sum(axis=0).tolist()
        if (bide < 0).any() or any(ei >= b for ei, b in zip(e, bounds)):
            continue
        n = tuple(bide[1:].tolist())
        if n not in in_piece:
            in_piece[n] = _box_members(fam.piece(MultiDegree(0, n)), bounds) & outside
        src = tuple(slice(b - ei) for ei, b in zip(e, bounds))
        dst = tuple(slice(ei, None) for ei in e)
        present[dst + (col,)] = in_piece[n][src]
    return subsets, present.reshape(-1, len(subsets))


def _pattern_complex(subsets, present):
    """Chain bases (per exterior degree) and differential matrices of the
    strand whose nonzero pieces are the subsets marked in `present`."""
    n = len(subsets[-1])
    chains = [[] for _ in range(n + 1)]
    for subset, here in zip(subsets, present.tolist()):
        if here:
            chains[len(subset)].append(subset)
    boundaries = []
    for p in range(1, n + 1):
        src, dst = chains[p], chains[p - 1]
        index = {s: i for i, s in enumerate(dst)}
        mat = [[0] * len(src) for _ in range(len(dst))]
        for col, subset in enumerate(src):
            for r, removed in enumerate(subset):
                rest = tuple(x for x in subset if x != removed)
                row = index.get(rest)
                if row is not None:
                    # Sign (-1)^(r+1) for the r-th removed element, 1-based.
                    mat[row][col] = (-1) ** r
        boundaries.append(mat)
    return chains, boundaries


def _homology(chains, boundaries) -> dict[int, int]:
    """Nonzero homology dimensions of a complex, by exact rank."""
    ranks = [0] + [_rank_exact(mat) for mat in boundaries] + [0]
    dims = {}
    for p in range(len(chains)):
        h = len(chains[p]) - ranks[p] - ranks[p + 1]
        if h:
            dims[p] = h
    return dims


def _acyclic(subsets, rows: np.ndarray) -> bool:
    """Whether every strand among `rows`, a boolean (cells, 2^n) matrix of
    support patterns over `subsets`, has no homology.

    A pattern's key is its bit row, one int64 word per 63 subsets, so any
    element count fits; equal patterns are the runs of a lexsort of the
    keys (``_sorted_runs``), and each distinct one is checked once.
    """
    count = rows.shape[1]
    words = [rows[:, s : s + 63] @ _BIT_WEIGHTS[: count - s] for s in range(0, count, 63)]
    order, fresh = _sorted_runs(words)
    return not any(_homology(*_pattern_complex(subsets, rows[i])) for i in order[fresh])


def _band_euler(datum: ReesDatum, deg: MultiDegree, band: int, buffer: int) -> tuple[int, bool]:
    """The strands' Euler characteristics summed over the internal degrees
    [0, band]^m, and whether every strand of the buffer up to band+buffer
    per axis is acyclic.

    By Euler-Poincare the sum is the count of each exterior subset S over
    the band, signed (-1)^|S|.
    """
    m = datum.fam.ctx.num_vars
    bounds = (band + buffer + 1,) * m
    subsets, present = _support_patterns(datum, deg, bounds)
    cells = present.reshape(bounds + (len(subsets),))
    inside = (slice(band + 1),) * m
    signs = np.array([(-1) ** len(subset) for subset in subsets])
    value = int(signs @ cells[inside].sum(axis=tuple(range(m))))
    in_buffer = np.ones(bounds, dtype=bool)
    in_buffer[inside] = False
    return value, _acyclic(subsets, present[in_buffer.ravel()])


def euler_char_direct(datum: ReesDatum, deg: MultiDegree) -> EulerValue:
    """Chi at one multidegree as the signed count of strand pieces.

    Internal degrees are truncated at a band, starting at (n0 + |n| + 1)
    times the maximal generator degree, that must be followed by an acyclic
    buffer of width the maximal generator degree; the band doubles a
    bounded number of times, and a value whose buffer never comes up
    acyclic is returned flagged as uncertified.
    """
    _require_certified(datum)
    maxgd = max(1, datum.fam.max_generator_degree())
    first = (deg.n0 + sum(deg.n) + 1) * maxgd
    for band in (first << doubling for doubling in range(BAND_DOUBLINGS + 1)):
        value, certified = _band_euler(datum, deg, band, maxgd)
        if certified:
            break
    prov = {"multidegree": (deg.n0,) + deg.n, "band": band, "buffer": maxgd}
    return EulerValue(value, prov, certified)


def euler_char_via_difference(datum: ReesDatum) -> EulerValue:
    """Chi as the constant of the (k0, k)-difference of the P polynomial.

    On the binomial basis that difference is constant exactly when no
    coefficient sits strictly above (k0, k), and the constant is then the
    coefficient at (k0, k): the pair ``mixed_multiplicity`` reads.  The
    constant is checked again on the window values, differenced k_a times
    along each axis a.
    """
    _require_certified(datum)
    fam = datum.fam
    mt = datum.mixed_type
    value, defined = mixed_multiplicity(fam, mt)
    fit = interpolate(fam, "P")
    target = mt.as_tuple()
    if not defined:
        above = sorted(idx for idx in fit.poly.coeffs if _index_strictly_above(idx, target))
        raise NonConstantDifferenceError(
            f"difference of P at type {target} is not constant: "
            f"nonzero coefficients strictly above it at {above}"
        )
    extent = max(target) + 2
    if extent <= fit.extent:
        values = fit.values[(slice(extent),) * len(target)]
    else:
        values = table_on_window(fam, "P", fit.base, extent)
    for axis, count in enumerate(target):
        values = np.diff(values, n=count, axis=axis)
    if not values.size or (values != value).any():
        raise NonConstantDifferenceError("difference table disagrees with the fit")
    prov = {"window_base": fit.base, "window_extent": fit.extent, "type": target}
    return EulerValue(value, prov)
