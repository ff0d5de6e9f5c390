"""Independent oracles the tests check the engine against."""

import numpy as np

from multimult.hilbert import _fit_window
from multimult.monomials import (
    INFINITE,
    MINUS_INFINITY,
    _box,
    _grlex_unique,
    _members_mask,
    _row_sums,
    ideal_power,
    krull_dim,
)
from multimult.multiplicity import NotMultiplicitySystemError


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
    return pts[~_members_mask(w, pts, _row_sums(pts))]


def _colon_pure_bounds(bot, g):
    """Per-variable least pure-power exponent of (bot : x^g), without
    minimalizing the colon.  None marks a variable with no pure power.

    A colon row is a power of x_j (or 1) exactly when its degree equals its
    j-th exponent."""
    colon = np.maximum(bot.matrix - np.asarray(g, dtype=np.int64), 0)
    degs = _row_sums(colon)
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
    pts, degrees = _grlex_unique(np.concatenate(blocks))
    return int(np.count_nonzero(~_members_mask(bot, pts, degrees)))
