"""Joint-reduction certificates and element-property tests.

A joint-reduction candidate of type (k0, k) supplies k_i monomials drawn from
each ideal I_i and k0 + 1 monomials drawn from J.  The defining containment

    J^n0 I^n M  =  sum of u * J^(n0-1) I^n M   over J-sourced u
                 + sum of u * J^n0 I^(n-e_i) M over I_i-sourced u

holds automatically from right to left, so certification only checks the left
side generator-by-generator modulo the module relations, on a finite window of
large multidegrees.  A holds-verdict is therefore "certified on window": the
window base and extent travel with the certificate.  A ReesDatum pairs a
family with one candidate and certifies it once, when it is made; the chi
channels and every verified claim read that one certificate.

The right side is never summed.  A monomial lies in a sum of monomial ideals
iff it lies in one of the parts, so each left-side generator is tested
against the relations, then against each u * piece in turn, and only the
generators still outside go on to the next part.  The witness of a failure
is the window point with the first such generator in grlex order, as it
would be against the sum.  Rees-superficiality runs through the same loop,
with the relations and u * I^n M as its parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    _grlex_key,
    colon_by_monomial,
    first_outside_sum,
    ideal,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    krull_dim,
    saturation,
)

#: Source tag for elements drawn from J.
J_SOURCE = "J"


@dataclass(frozen=True)
class JointReductionCandidate:
    """An ordered tuple of (monomial, source) pairs with a declared type.

    Sources are the string "J" or a 0-based index into the family's ideals.
    Elements are stored I_1-block first, then I_2, ..., then the J-block; a
    candidate with no J-block at all is a pure candidate checked against the
    ungraded containment I^n M = sum of u * I^(n-e_i) M.
    """

    elements: tuple[tuple[Monomial, object], ...]
    declared_type: MixedType

    def __post_init__(self):
        d = len(self.declared_type.k)
        counts = [0] * d
        j_count = 0
        for _, src in self.elements:
            if src == J_SOURCE:
                j_count += 1
            elif isinstance(src, int) and 0 <= src < d:
                counts[src] += 1
            else:
                raise ValueError(f"unknown source tag {src!r}")
        if tuple(counts) != self.declared_type.k:
            raise ValueError("I-sourced element counts do not match the declared type")
        if j_count not in (0, self.declared_type.k0 + 1):
            raise ValueError("J-sourced element count must be k0+1 (or 0 for pure candidates)")

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


@dataclass(frozen=True)
class ContainmentCertificate:
    """Outcome of a window containment check; failures carry a witness."""

    holds: bool
    window_base: int
    window_extent: int
    witness: tuple[tuple[int, ...], Monomial] | None = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failing certificate needs a witness")


def _principal(ctx, u: Monomial) -> MonomialIdeal:
    return ideal(ctx, [u])


def _rhs_parts(fam: IdealFamily, cand: JointReductionCandidate, deg: MultiDegree) -> list[MonomialIdeal]:
    """The parts of the right side at `deg`: the relations, then u * piece
    for each element u."""
    ctx = fam.ctx
    parts = [fam.module.relations]
    for u, src in cand.elements:
        if src == J_SOURCE:
            piece = fam.piece(MultiDegree(deg.n0 - 1, deg.n))
        else:
            shifted = tuple(ni - (1 if i == src else 0) for i, ni in enumerate(deg.n))
            piece = fam.piece(MultiDegree(deg.n0, shifted))
        parts.append(ideal_product(_principal(ctx, u), piece))
    return parts


def _check_window(lhs_of, rhs_parts_of, points, base, extent) -> ContainmentCertificate:
    """Test lhs_of(pt) against the sum of rhs_parts_of(pt) at each window
    point in turn; a failure's witness is (pt, first generator outside)."""
    for pt in points:
        witness = first_outside_sum(rhs_parts_of(pt), lhs_of(pt))
        if witness is not None:
            return ContainmentCertificate(False, base, extent, (pt, witness))
    return ContainmentCertificate(True, base, extent)


def verify_joint_reduction(fam: IdealFamily, cand: JointReductionCandidate) -> ContainmentCertificate:
    """Certify the defining containment of a joint-reduction candidate.

    Checks every multidegree in a box of large degrees; the right-to-left
    inclusion is automatic, so only minimal generators of the left side are
    tested for membership in the right side modulo the relations.  A pure
    candidate is checked at n0 = 0 on the box of n alone, so its window
    points, and its witness, have d entries; the others have (n0, n).
    """
    cand.check_membership(fam)
    base = initial_offset(fam)
    extent = BAND_EXTENT
    q = fam.module.relations
    pure = cand.is_pure

    def degree(pt):
        return MultiDegree(0, pt) if pure else MultiDegree(pt[0], pt[1:])

    return _check_window(
        lambda pt: ideal_sum(fam.piece(degree(pt)), q),
        lambda pt: _rhs_parts(fam, cand, degree(pt)),
        window_points(fam.d if pure else fam.d + 1, base, extent),
        base,
        extent,
    )


@dataclass(frozen=True)
class ReesDatum:
    """A family with one joint-reduction candidate, certified once when made.

    An uncertified candidate is kept, not refused: the claims report it as
    an unmet hypothesis, and the chi channels raise.
    """

    fam: IdealFamily
    cand: JointReductionCandidate
    certificate: ContainmentCertificate = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "certificate", verify_joint_reduction(self.fam, self.cand))

    @property
    def mixed_type(self) -> MixedType:
        return self.cand.declared_type


def is_filter_regular(fam: IdealFamily, u: Monomial) -> bool:
    """Whether the annihilator of u is contained in the I-power torsion."""
    q = fam.module.relations
    return saturation(q, fam.product_ideal()).contains_ideal(colon_by_monomial(q, u))


def is_rees_superficial(fam: IdealFamily, u: Monomial, i: int) -> ContainmentCertificate:
    """Check (u)M meet I^n I_i M = u I^n M on a window of large n."""
    if not fam.ideals[i].contains(u):
        raise ValueError("element must lie in the indexed ideal")
    q = fam.module.relations
    pu = _principal(fam.ctx, u)
    t = fam.module.top

    def blob(n):
        return fam.piece(MultiDegree(0, n))

    def lhs(n):
        return ideal_intersection(
            ideal_sum(ideal_product(pu, t), q),
            ideal_sum(ideal_product(blob(n), fam.ideals[i]), q),
        )

    base = initial_offset(fam)
    extent = BAND_EXTENT
    return _check_window(
        lhs,
        lambda n: [q, ideal_product(pu, blob(n))],
        window_points(fam.d, base, extent),
        base,
        extent,
    )


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


def is_multiplicity_system(module: QuotientModule, elems) -> bool:
    """Whether the elements generate an ideal of definition for the module."""
    if module.is_zero():
        return True
    return module.quotient_by_elements(list(elems)).length() != float("inf")


# -- search ----------------------------------------------------------------


@dataclass(frozen=True)
class PoolPolicy:
    """Bounds on the joint-reduction search: pool degree and verify budget."""

    max_degree: int = 2
    budget: int = 2000


def _element_pool(source_ideal: MonomialIdeal, policy: PoolPolicy) -> list[Monomial]:
    gens = [Monomial(g) for g in source_ideal.gens]
    pool = {g for g in gens if g.degree <= policy.max_degree}
    for a, b in itertools.combinations_with_replacement(gens, 2):
        p = a * b
        if p.degree <= policy.max_degree:
            pool.add(p)
    return sorted(pool, key=lambda u: _grlex_key(u.exponents))


def search_joint_reduction(
    fam: IdealFamily, mt: MixedType, policy: PoolPolicy = PoolPolicy()
) -> JointReductionCandidate | None:
    """First certified candidate of the given type in deterministic pool order.

    Pools are minimal generators plus their pairwise products up to the policy
    degree bound; tuples are tried in graded lexicographic order, stopping when
    the verification budget runs out.  Returns None when nothing certifies,
    which is inconclusive: monomial pools cannot witness nonexistence.
    """
    if len(mt.k) != fam.d:
        raise ValueError("type has wrong axis count")
    per_source = []
    for i, ki in enumerate(mt.k):
        pool = _element_pool(fam.ideals[i], policy)
        per_source.append(list(itertools.combinations_with_replacement(pool, ki)))
    j_pool = _element_pool(fam.j, policy)
    per_source.append(list(itertools.combinations_with_replacement(j_pool, mt.k0 + 1)))
    tried = 0
    for combo in itertools.product(*per_source):
        elements = []
        for i, block in enumerate(combo[:-1]):
            elements.extend((u, i) for u in block)
        elements.extend((u, J_SOURCE) for u in combo[-1])
        cand = JointReductionCandidate(tuple(elements), mt)
        try:
            cand.check_membership(fam)
        except ValueError:
            continue
        tried += 1
        if tried > policy.budget:
            return None
        if verify_joint_reduction(fam, cand).holds:
            return cand
    return None
