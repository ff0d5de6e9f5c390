"""Joint-reduction certificates and element-property tests.

A joint-reduction candidate of type (k0, k) supplies k_i monomials drawn from
each ideal I_i and k0 + 1 monomials drawn from J.  The defining containment

    J^n0 I^n M  =  sum of u * J^(n0-1) I^n M   over J-sourced u
                 + sum of u * J^n0 I^(n-e_i) M over I_i-sourced u

holds automatically from right to left, so certification only checks the left
side generator-by-generator modulo the module relations, at one point: the
base (b, ..., b) of the window of large multidegrees.  Containment at a point
implies containment at every larger point, so a holds-verdict is "proved for
all degrees >= the base point"; the window base and extent travel with the
certificate.  A ReesDatum pairs a family with one candidate and certifies it
once, when it is made; the chi channels and every verified claim read that
one certificate.

The right side is never summed.  A monomial lies in a sum of monomial ideals
iff it lies in one of the parts, so each left-side generator is tested
against the relations, then against each u * piece in turn, and only the
generators still outside go on to the next part.  The witness of a failure
is the base point with the first such generator in grlex order, as it would
be against the sum.  Rees-superficiality, whose intersection is not monotone
in n, is tested the same way at every point of its window, with the
relations and u * I^n M as its parts.
"""

from __future__ import annotations

import itertools

from .hilbert import (
    BAND_EXTENT,
    IdealFamily,
    MixedType,
    MultiDegree,
    initial_offset,
    window_points,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    QuotientModule,
    Record,
    _grlex_key,
    _set,
    colon_by_monomial,
    first_outside_sum,
    ideal_intersection,
    ideal_product,
    ideal_shift,
    ideal_sum,
    krull_dim,
    saturation,
)

#: Source tag for elements drawn from J.
J_SOURCE = "J"


class JointReductionCandidate(Record):
    """An ordered tuple of (monomial, source) pairs with a declared type.

    Sources are the string "J" or a 0-based index into the family's ideals.
    Elements are stored I_1-block first, then I_2, ..., then the J-block; a
    candidate with no J-block at all is a pure candidate checked against the
    ungraded containment I^n M = sum of u * I^(n-e_i) M.
    """

    __slots__ = ("elements", "declared_type")

    def __init__(self, elements: tuple[tuple[Monomial, object], ...], declared_type: MixedType):
        d = len(declared_type.k)
        counts = [0] * d
        j_count = 0
        for _, src in elements:
            if src == J_SOURCE:
                j_count += 1
            elif isinstance(src, int) and 0 <= src < d:
                counts[src] += 1
            else:
                raise ValueError(f"unknown source tag {src!r}")
        if tuple(counts) != declared_type.k:
            raise ValueError("I-sourced element counts do not match the declared type")
        if j_count not in (0, declared_type.k0 + 1):
            raise ValueError("J-sourced element count must be k0+1 (or 0 for pure candidates)")
        _set(self, "elements", elements)
        _set(self, "declared_type", declared_type)

    def axes(self) -> list[int]:
        """The axis of (n0, n1, ..., nd) each element steps along: 0 for a
        J-element, i + 1 for an I_i-element."""
        return [0 if src == J_SOURCE else src + 1 for _, src in self.elements]

    @property
    def is_pure(self) -> bool:
        return all(src != J_SOURCE for _, src in self.elements)

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(u for u, _ in self.elements)

    def check_membership(self, fam: IdealFamily) -> None:
        for u, src in self.elements:
            source_ideal = fam.j if src == J_SOURCE else fam.ideals[src]
            if not source_ideal.contains(u):
                raise ValueError(f"element {u} does not lie in its source ideal")


class ContainmentCertificate(Record):
    """Outcome of a containment check on the box base + [0, extent)^axes;
    failures carry a witness (point, generator outside).

    For a joint reduction the check is made at the base point alone, and a
    holds-verdict is a proof for the whole box and every point above it.
    For Rees-superficiality every point of the box is tested, and a
    holds-verdict covers those points only.
    """

    __slots__ = ("holds", "window_base", "window_extent", "witness")

    def __init__(self, holds: bool, window_base: int, window_extent: int,
                 witness: tuple[tuple[int, ...], Monomial] | None = None):
        if not holds and witness is None:
            raise ValueError("a failing certificate needs a witness")
        _set(self, "holds", holds)
        _set(self, "window_base", window_base)
        _set(self, "window_extent", window_extent)
        _set(self, "witness", witness)


def _rhs_parts(fam: IdealFamily, cand: JointReductionCandidate, deg: MultiDegree) -> list[MonomialIdeal]:
    """The parts of the right side at `deg`: the relations, then u * piece
    for each element u, the piece at `deg` stepped down one along u's axis;
    each distinct axis's piece is built once."""
    axes = cand.axes()
    pieces = {}
    for axis in axes:
        if axis not in pieces:
            step = list(deg.as_tuple())
            step[axis] -= 1
            pieces[axis] = fam.piece(MultiDegree(step[0], tuple(step[1:])))
    parts = [fam.module.relations]
    for (u, _), axis in zip(cand.elements, axes):
        parts.append(ideal_shift(pieces[axis], u.exponents, u.degree))
    return parts


def verify_joint_reduction(fam: IdealFamily, cand: JointReductionCandidate) -> ContainmentCertificate:
    """Prove the defining containment of a joint-reduction candidate for
    all degrees >= the window's base point.

    Write L(n) = J^n0 I^n T + Q for the left side and R(n) for the right.
    Then L(n + e_i) = L(n) I_i + Q and R(n) I_i is inside R(n + e_i), with J
    in place of I_i on axis 0, so containment at n implies containment at
    every n' >= n.  The step needs every entry of n >= 1, which the base
    b = initial_offset(fam) >= 1 gives: the check at (b, ..., b) alone is a
    proof for the window base + [0, BAND_EXTENT)^axes and beyond, and a
    failure anywhere in the window is a failure at the base.

    The right-to-left inclusion is automatic, so only minimal generators of
    the left side are tested for membership in the right side modulo the
    relations.  A pure candidate is checked at n0 = 0 on n alone, so its
    base point, and its witness, have d entries; the others have (n0, n).
    """
    cand.check_membership(fam)
    base = initial_offset(fam)
    pure = cand.is_pure
    pt = (base,) * (fam.d if pure else fam.d + 1)
    deg = MultiDegree(0, pt) if pure else MultiDegree(pt[0], pt[1:])
    lhs = ideal_sum(fam.piece(deg), fam.module.relations)
    witness = first_outside_sum(_rhs_parts(fam, cand, deg), lhs)
    if witness is not None:
        return ContainmentCertificate(False, base, BAND_EXTENT, (pt, witness))
    return ContainmentCertificate(True, base, BAND_EXTENT)


class ReesDatum(Record, compared=("fam", "cand"), shown=("fam", "cand", "certificate")):
    """A family with one joint-reduction candidate, certified once when made.

    An uncertified candidate is kept, not refused: the claims report it as
    an unmet hypothesis, and the chi channels raise.
    """

    __slots__ = ("fam", "cand", "certificate")

    def __init__(self, fam: IdealFamily, cand: JointReductionCandidate):
        _set(self, "fam", fam)
        _set(self, "cand", cand)
        _set(self, "certificate", verify_joint_reduction(fam, cand))

    @property
    def mixed_type(self) -> MixedType:
        return self.cand.declared_type


def is_filter_regular(fam: IdealFamily, u: Monomial) -> bool:
    """Whether the annihilator of u is contained in the I-power torsion."""
    q = fam.module.relations
    return saturation(q, fam.product_ideal()).contains_ideal(colon_by_monomial(q, u))


def is_rees_superficial(fam: IdealFamily, u: Monomial, i: int) -> ContainmentCertificate:
    """Check (u)M meet I^n I_i M = u I^n M at every point of a window of
    large n: the intersection is not monotone in n, so no one point proves
    the others."""
    if not fam.ideals[i].contains(u):
        raise ValueError("element must lie in the indexed ideal")
    q = fam.module.relations
    multiples = ideal_sum(ideal_shift(fam.module.top, u.exponents, u.degree), q)
    base = initial_offset(fam)
    for n in window_points(fam.d, base, BAND_EXTENT):
        blob = fam.piece(MultiDegree(0, n))
        lhs = ideal_intersection(multiples, ideal_sum(ideal_product(blob, fam.ideals[i]), q))
        witness = first_outside_sum([q, ideal_shift(blob, u.exponents, u.degree)], lhs)
        if witness is not None:
            return ContainmentCertificate(False, base, BAND_EXTENT, (n, witness))
    return ContainmentCertificate(True, base, BAND_EXTENT)


def is_system_of_parameters(module: QuotientModule, elems) -> bool:
    """Exactly dim-many elements cutting the module down to dimension <= 0."""
    elems = list(elems)
    dim = krull_dim(module)
    if dim == float("-inf"):
        return False
    if len(elems) != int(dim):
        return False
    if not elems:
        return True
    cut = krull_dim(module.quotient_by_elements(elems))
    return cut == float("-inf") or cut <= 0


# -- search ----------------------------------------------------------------


class PoolPolicy(Record):
    """Bounds on the joint-reduction search: pool degree and verify budget."""

    __slots__ = ("max_degree", "budget")

    def __init__(self, max_degree: int = 2, budget: int = 2000):
        _set(self, "max_degree", max_degree)
        _set(self, "budget", budget)


def _element_pool(source_ideal: MonomialIdeal, policy: PoolPolicy) -> list[Monomial]:
    gens = [Monomial(g) for g in source_ideal.gens]
    pool = {g for g in gens if g.degree <= policy.max_degree}
    for a, b in itertools.combinations_with_replacement(gens, 2):
        p = a * b
        if p.degree <= policy.max_degree:
            pool.add(p)
    return sorted(pool, key=lambda u: _grlex_key(u.exponents))


def _blocks(sources):
    """One block of each (pool, size) source, as itertools.product orders
    them, generated lazily: no source's blocks are ever listed."""
    if not sources:
        yield ()
        return
    (pool, size), rest = sources[0], sources[1:]
    for block in itertools.combinations_with_replacement(pool, size):
        for tail in _blocks(rest):
            yield (block,) + tail


def search_joint_reduction(
    fam: IdealFamily, mt: MixedType, policy: PoolPolicy = PoolPolicy()
) -> JointReductionCandidate | None:
    """First certified candidate of the given type in deterministic pool order.

    Pools are minimal generators plus their pairwise products up to the policy
    degree bound; tuples are tried in graded lexicographic order, stopping when
    the verification budget runs out.  Every pool monomial lies in its source
    ideal, so every tuple counts toward the budget, and the one membership
    check per tuple is the one inside verify_joint_reduction.  Returns None
    when nothing certifies, which is inconclusive: monomial pools cannot
    witness nonexistence.
    """
    if len(mt.k) != fam.d:
        raise ValueError("type has wrong axis count")
    sources = [(_element_pool(fam.ideals[i], policy), ki) for i, ki in enumerate(mt.k)]
    sources.append((_element_pool(fam.j, policy), mt.k0 + 1))
    for combo in itertools.islice(_blocks(sources), max(policy.budget, 0)):
        elements = []
        for i, block in enumerate(combo[:-1]):
            elements.extend((u, i) for u in block)
        elements.extend((u, J_SOURCE) for u in combo[-1])
        cand = JointReductionCandidate(tuple(elements), mt)
        if verify_joint_reduction(fam, cand).holds:
            return cand
    return None
