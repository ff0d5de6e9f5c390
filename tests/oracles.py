"""Independent oracles the tests check the engine against."""

import numpy as np

from multimult.hilbert import BAND_EXTENT, MultiDegree, _fit_window, initial_offset, window_points
from multimult.monomials import (
    INFINITE,
    MINUS_INFINITY,
    Monomial,
    _count_difference,
    _members_mask,
    colon_by_ideal,
    ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    krull_dim,
)
from multimult.multiplicity import NotMultiplicitySystemError
from multimult.reductions import J_SOURCE, ContainmentCertificate


def _box(bounds):
    """All exponent vectors v with 0 <= v < bounds, one per row, in C order."""
    return np.indices(bounds, dtype=np.int64).reshape(len(bounds), -1).T


def box_members(a, bounds):
    """Membership over the box 0 <= v < bounds by the point-list kernel: the
    box's rows through ``_members_mask``, reshaped to `bounds`."""
    pts = _box(bounds)
    return _members_mask(a, pts, pts.sum(axis=1)).reshape(bounds)


def is_multiplicity_system(module, elems) -> bool:
    """Whether the elements generate an ideal of definition for the module:
    M/(elems)M has finite length."""
    if module.is_zero():
        return True
    return module.quotient_by_elements(list(elems)).length() != INFINITE


def hilbert_samuel(module, a) -> int:
    """The multiplicity of an ideal of definition: the top binomial-basis
    coefficient of the exactly fitted polynomial n -> length(M / a^(n+1) M)."""
    if module.is_zero():
        return 0
    if module.quotient_by(a).length() == INFINITE:
        raise NotMultiplicitySystemError("not an ideal of definition")
    dim = krull_dim(module)
    degree = 0 if dim == MINUS_INFINITY else int(dim)
    maxdeg = max(
        1,
        a.max_generator_degree()
        + module.relations.max_generator_degree()
        + module.top.max_generator_degree(),
    )

    def value(pt):
        return int(module.quotient_by(ideal_power(a, pt[0] + 1)).length())

    fit = _fit_window(value, 1, degree, degree + maxdeg)
    top = fit.poly.coefficient((degree,))
    assert top >= 0
    return top


def box_standard_rows(w):
    """The box filter: the points of the box of pure-power bounds of `w`
    that lie outside `w`, in box order."""
    pts = _box(w.pure_power_bounds())
    return pts[~_members_mask(w, pts, pts.sum(axis=1))]


def _colon_pure_bounds(bot, g):
    """Per-variable least pure-power exponent of (bot : x^g), without
    minimalizing the colon.  None marks a variable with no pure power.

    A colon row is a power of x_j (or 1) exactly when its degree equals its
    j-th exponent."""
    colon = np.maximum(bot.matrix - np.asarray(g, dtype=np.int64), 0)
    degs = colon.sum(axis=1)
    bounds = []
    for j in range(bot.ctx.num_vars):
        pure = colon[degs == colon[:, j], j]
        bounds.append(int(pure.min()) if len(pure) else None)
    return bounds


def box_count(top, bot):
    """The per-generator colon-box counter, with no floor: the monomials in
    `top` and not in `bot`, or INFINITE.

    Every such monomial factors as g*v with g a minimal generator of `top`
    and v a standard monomial of bot : g, so the count is the size of the
    deduplicated candidate set { g*v : g*v not in bot }.  Finiteness holds
    exactly when every colon bot : g contains a power of each variable.
    """
    if top.is_zero() or bot.is_unit():
        return 0
    blocks = []
    for g in top.matrix:
        bounds = _colon_pure_bounds(bot, g)
        if all(b == 0 for b in bounds):
            continue  # g already lies in bot
        if any(b is None for b in bounds):
            return INFINITE
        blocks.append(_box(bounds) + g)
    if not blocks:
        return 0
    pts = np.unique(np.concatenate(blocks), axis=0)
    return int(np.count_nonzero(~_members_mask(bot, pts, pts.sum(axis=1))))


def direct_piece(fam, deg):
    """J^n0 * I_1^{n_1} * ... * I_d^{n_d} * T, the product of the powers of
    the family's own ideals, with no content divided out and not through
    ``IdealFamily.piece``."""
    out = ideal_power(fam.j, deg.n0)
    for i, ni in zip(fam.ideals, deg.n):
        out = ideal_product(out, ideal_power(i, ni))
    return ideal_product(out, fam.module.top)


def j_power_floor_f(fam, deg):
    """hf_F as one length count with J^n0 as its colon floor: the monomials
    of top + Q outside top * J^n0 + Q, for top = I^n T built by
    ``direct_piece``.  This is how the engine counted F before it summed P
    values."""
    q = fam.module.relations
    top = direct_piece(fam, MultiDegree(0, deg.n))
    jpow = ideal_power(fam.j, deg.n0)
    return _count_difference(ideal_sum(top, q), ideal_sum(ideal_product(top, jpow), q), jpow)


def joint_reduction_outside(fam, cand, pt):
    """The first generator, in grlex order, of the left side J^n0 I^n T + Q
    of a candidate's containment at `pt` that lies outside its right side,
    or None.  Both sides are built as whole ideals from `direct_piece`; a
    pure candidate's `pt` is n alone, at n0 = 0."""
    deg = MultiDegree(0, tuple(pt)) if cand.is_pure else MultiDegree(pt[0], tuple(pt[1:]))
    q = fam.module.relations
    rhs = q
    for u, src in cand.elements:
        if src == J_SOURCE:
            shifted = MultiDegree(deg.n0 - 1, deg.n)
        else:
            shifted = MultiDegree(deg.n0, tuple(ni - (i == src) for i, ni in enumerate(deg.n)))
        rhs = ideal_sum(rhs, ideal_product(ideal(fam.ctx, [u.exponents]), direct_piece(fam, shifted)))
    lhs = ideal_sum(direct_piece(fam, deg), q)
    return next((Monomial(g) for g in lhs.gens if not rhs.contains(Monomial(g))), None)


def window_joint_reduction(fam, cand):
    """The joint-reduction certificate as a test of every point of the
    window initial_offset(fam) + [0, BAND_EXTENT)^axes, in lexicographic
    order; a failure's witness is the first failing point."""
    cand.check_membership(fam)
    base = initial_offset(fam)
    axes = fam.d if cand.is_pure else fam.d + 1
    for pt in window_points(axes, base, BAND_EXTENT):
        witness = joint_reduction_outside(fam, cand, pt)
        if witness is not None:
            return ContainmentCertificate(False, base, BAND_EXTENT, (pt, witness))
    return ContainmentCertificate(True, base, BAND_EXTENT)


def saturation_fixpoint(q, i):
    """q : i^infinity as the stable value of the ascending chain q, q : i,
    (q : i) : i, ...: the iteration that ``saturation`` replaces by one
    colon ideal."""
    current = q
    while True:
        nxt = colon_by_ideal(current, i)
        if nxt == current:
            return current
        current = nxt


def unpruned_symbol(module, y):
    """e(y; M) by the recursion down to every leaf, zero modules included,
    where ``multiplicity._symbol`` stops at zero modules."""
    if not y:
        n = module.length()
        if n == INFINITE:
            raise NotMultiplicitySystemError("elements do not cut M to finite length")
        return int(n)
    head, tail = y[0], y[1:]
    return unpruned_symbol(module.quotient_by_elements([head]), tail) - unpruned_symbol(
        module.annihilator_of(head), tail
    )
