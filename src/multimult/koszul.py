"""Euler characteristics of joint reductions via multigraded Koszul strands.

The extended Rees module of the family places I^n * M in multidegree (n0, n)
for every n0 >= 0.  A joint-reduction candidate gives Koszul elements acting
on that tower: an I_i-sourced element shifts (n0, n) by (0, e_i), a J-sourced
element by (1, 0), and every element shifts the internal (exponent) degree by
its own exponent vector.  Fixing a multidegree and an internal degree cuts the
Koszul complex down to a strand of finite-dimensional rational vector spaces
whose homology is computed by exact rank.

Each piece of a strand is spanned by at most one monomial, so a strand is
determined by its support pattern: which exterior subsets have a nonzero
piece.  The strands of a whole internal-degree band are built at once: one
membership mask per piece ideal (``IdealFamily.piece`` at n0 = 0, and one
for the relations) over the band, shifted into one column per exterior
subset.  Homology is then computed once per distinct pattern, by
fraction-free integer (Bareiss) rank, and scattered back to the internal
degrees that share it.

The Euler characteristic itself is defined operationally as the constant value
of the (k0, k)-difference of the Hilbert polynomial P (the DIFFERENCE method).
On the binomial basis that constant and its existence are the mixed
multiplicity of type (k0, k) and its defined-flag, read off the coefficients;
the fit's window of values, differenced, checks them.  The strand computation
(the DIRECT method) is an independent verification channel carrying an
empirical band certificate for the truncation of internal degrees.  These two channels, which the `chi` request runs, are all this
module computes, and both refuse a datum whose candidate is not certified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    MultiDegree,
    _index_strictly_above,
    interpolate,
    mixed_multiplicity,
    table_on_window,
)
from .monomials import _box, _members_mask, _row_sums
from .reductions import J_SOURCE, JointReductionCandidate, ReesDatum

#: Internal-degree band doubles at most this many times before giving up.
BAND_DOUBLINGS = 3


class NonConstantDifferenceError(RuntimeError):
    """The differenced Hilbert table is not constant; the declared type does
    not match the polynomial's coefficient support."""


@dataclass(frozen=True)
class StrandHomologyProfile:
    """Homology dimensions per (index, internal degree) at one multidegree."""

    multidegree: MultiDegree
    band: int
    dims: tuple[tuple[tuple[int, tuple[int, ...]], int], ...]
    band_certified: bool


@dataclass(frozen=True)
class EulerValue:
    """A chi value with the method and window that produced it."""

    value: int
    method: str  # "DIRECT" or "DIFFERENCE"
    provenance: dict
    certified: bool = True


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
    internal degree a of the box ``_box(bounds)``: a boolean
    (len(box), 2^n) matrix whose rows follow the box's rows.

    Subset S sits at (deg, a) minus the shifts of its elements, (n0', n')
    and a - e_S.  The piece of I^n * M at multidegree (n0', n') and internal
    degree b is spanned by the single monomial x^b when (n0', n') and b are
    componentwise non-negative and x^b lies in I^n' * T but not in B, and is
    empty otherwise; the tower does not cut by powers of J.  Since a - e_S
    stays in the box, one membership mask per distinct n' (and one for B)
    over the box serves every subset: the subset's column is that mask
    shifted by e_S.
    """
    fam = datum.fam
    shifts = _koszul_shifts(datum.cand, fam.d)
    # Columns: every subset of the elements, by size and then lexicographically.
    count = len(shifts)
    subsets = [s for p in range(count + 1) for s in itertools.combinations(range(count), p)]
    bide_shift = np.array([b for b, _ in shifts], dtype=np.int64).reshape(-1, fam.d + 1)
    exp_shift = np.array([e for _, e in shifts], dtype=np.int64).reshape(-1, fam.ctx.num_vars)
    point = np.array(deg.as_tuple(), dtype=np.int64)
    box = _box(bounds)
    box_degrees = _row_sums(box)
    outside = ~_members_mask(fam.module.relations, box, box_degrees).reshape(bounds)
    in_piece = {}
    present = np.zeros(bounds + (len(subsets),), dtype=bool)
    for col, subset in enumerate(subsets):
        bide = point - bide_shift[list(subset)].sum(axis=0)
        e = exp_shift[list(subset)].sum(axis=0).tolist()
        if (bide < 0).any() or any(ei >= b for ei, b in zip(e, bounds)):
            continue
        n = tuple(bide[1:].tolist())
        if n not in in_piece:
            piece = fam.piece(MultiDegree(0, n))
            in_piece[n] = _members_mask(piece, box, box_degrees).reshape(bounds) & outside
        src = tuple(slice(b - ei) for ei, b in zip(e, bounds))
        dst = tuple(slice(ei, None) for ei in e)
        present[dst + (col,)] = in_piece[n][src]
    return subsets, present.reshape(len(box), len(subsets))


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


def strand_profile(datum: ReesDatum, deg: MultiDegree, band: int, buffer: int) -> StrandHomologyProfile:
    """All strand homology up to internal degree band+buffer per axis, with
    the homology-free-buffer certificate.

    Every piece has dimension 0 or 1, so a strand's homology depends only on
    its support pattern; it is computed once per distinct pattern on the
    grid and scattered back to the internal degrees that have it.
    """
    bounds = (band + buffer + 1,) * datum.fam.ctx.num_vars
    subsets, present = _support_patterns(datum, deg, bounds)
    # A pattern's key is its packed bit row, so any element count fits.
    packed = np.packbits(present, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    grid = _box(bounds)
    in_buffer = grid.max(axis=1) > band
    dims = []
    certified = True
    for u, row in enumerate(first):
        h = _homology(*_pattern_complex(subsets, present[row]))
        if not h:
            continue
        where = np.flatnonzero(inverse == u)
        if in_buffer[where].any():
            certified = False
        for a in map(tuple, grid[where].tolist()):
            dims.extend(((p, a), dim) for p, dim in h.items())
    return StrandHomologyProfile(deg, band, tuple(sorted(dims)), certified)


def euler_char_direct(datum: ReesDatum, deg: MultiDegree) -> EulerValue:
    """Chi at one multidegree by summing strand alternating sums.

    Internal degrees are truncated at a band, starting at (n0 + |n| + 1)
    times the maximal generator degree, that must be followed by a
    homology-free buffer of width the maximal generator degree; the band
    doubles a bounded number of times, and a value whose buffer never comes
    up empty is returned flagged as uncertified.
    """
    _require_certified(datum)
    fam = datum.fam
    maxgd = max(1, fam.max_generator_degree())
    b = (deg.n0 + sum(deg.n) + 1) * maxgd
    profile = None
    for _ in range(BAND_DOUBLINGS + 1):
        profile = strand_profile(datum, deg, b, maxgd)
        if profile.band_certified:
            break
        b *= 2
    total = 0
    for (p, a), dim in profile.dims:
        if max(a) <= profile.band:
            total += (-1) ** p * dim
    prov = {"multidegree": (deg.n0,) + deg.n, "band": profile.band, "buffer": maxgd}
    return EulerValue(total, "DIRECT", prov, profile.band_certified)


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
    return EulerValue(value, "DIFFERENCE", prov)
