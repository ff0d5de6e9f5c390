"""Deterministic corpus of certified (family, candidate) instances.

Families range over 1 to 4 variables with up to two ideals and generator
degrees at most 3; candidates are found by the deterministic search and are
therefore certified by construction.  The corpus is built once per session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from multimult.hilbert import IdealFamily, MixedType
from multimult.monomials import MonomialIdeal, QuotientModule, RingContext, ideal
from multimult.reductions import (
    JointReductionCandidate,
    J_SOURCE,
    PoolPolicy,
    search_joint_reduction,
)

C1 = RingContext(1)
C2 = RingContext(2)
C3 = RingContext(3)
C4 = RingContext(4)


@dataclass(frozen=True)
class CorpusInstance:
    label: str
    fam: IdealFamily
    cand: JointReductionCandidate
    all_primary: bool
    recursion_axis: int | None

    @property
    def mixed_type(self) -> MixedType:
        return self.cand.declared_type


def _axis(mt: MixedType) -> int | None:
    for i, ki in enumerate(mt.k):
        if ki > 0:
            return i
    return None


def _try(label, fam, mt, out, policy=PoolPolicy(max_degree=2, budget=400)):
    cand = search_joint_reduction(fam, mt, policy)
    if cand is None:
        return
    out.append(
        CorpusInstance(
            label=label,
            fam=fam,
            cand=cand,
            all_primary=all(i.is_primary_to_max_ideal() for i in fam.ideals),
            recursion_axis=_axis(mt),
        )
    )


def dim4_family() -> IdealFamily:
    i1 = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    i2 = ideal(C4, [(0, 0, 1, 0)])
    j = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    return IdealFamily(j, (i1, i2), QuotientModule.free(C4))


def dim4_candidates():
    def cand(powers):
        a, b, c = powers
        return JointReductionCandidate(
            (
                (C4.monomial(0, 0, 1, 0), 1),
                (C4.monomial(a, 0, 0, 0), J_SOURCE),
                (C4.monomial(0, b, 0, 0), J_SOURCE),
                (C4.monomial(0, 0, 0, c), J_SOURCE),
            ),
            MixedType(2, (0, 1)),
        )

    return cand((1, 1, 1)), cand((2, 2, 2))


@lru_cache(maxsize=None)
def build_corpus() -> tuple[CorpusInstance, ...]:
    out: list[CorpusInstance] = []

    # One variable.
    x = ideal(C1, [(1,)])
    x2 = ideal(C1, [(2,)])
    for label, i1, j in [
        ("1v-principal", x, x),
        ("1v-square-ideal", x2, x),
        ("1v-square-j", x, x2),
    ]:
        fam = IdealFamily(j, (i1,), QuotientModule.free(C1))
        _try(label + "-t01", fam, MixedType(0, (1,)), out)

    # Two variables, one ideal.
    m2 = ideal(C2, [(1, 0), (0, 1)])
    i_choices = [
        ("max", m2),
        ("x1", ideal(C2, [(1, 0)])),
        ("x2q", ideal(C2, [(2, 0), (0, 1)])),
        ("mix", ideal(C2, [(1, 0), (0, 2)])),
        ("sq", ideal(C2, [(2, 0), (1, 1), (0, 2)])),
        ("diag", ideal(C2, [(1, 1)])),
        ("corner", ideal(C2, [(2, 0), (0, 2)])),
    ]
    j_choices = [
        ("max", m2),
        ("wt", ideal(C2, [(2, 0), (0, 1)])),
        ("wt2", ideal(C2, [(1, 0), (0, 2)])),
        ("deep", ideal(C2, [(3, 0), (1, 1), (0, 3)])),
    ]
    q_choices = [
        ("free", MonomialIdeal.zero(C2)),
        ("dbl", ideal(C2, [(2, 0)])),
        ("diag", ideal(C2, [(1, 1)])),
        ("cub", ideal(C2, [(0, 3)])),
    ]
    for iname, i1 in i_choices:
        for jname, j in j_choices:
            for qname, q in q_choices:
                fam = IdealFamily(j, (i1,), QuotientModule(C2, q))
                label = f"2v-{iname}-{jname}-{qname}"
                _try(label + "-t01", fam, MixedType(0, (1,)), out)

    # Two variables, two ideals.
    pairs = [
        ("maxmax", m2, m2),
        ("maxx1", m2, ideal(C2, [(1, 0)])),
        ("x1x2", ideal(C2, [(1, 0)]), ideal(C2, [(0, 1)])),
        ("wtmax", ideal(C2, [(2, 0), (0, 1)]), m2),
    ]
    for pname, i1, i2 in pairs:
        for qname, q in [("free", MonomialIdeal.zero(C2)), ("dbl", ideal(C2, [(2, 0)]))]:
            fam = IdealFamily(m2, (i1, i2), QuotientModule(C2, q))
            label = f"2v2i-{pname}-{qname}"
            _try(label + "-t010", fam, MixedType(0, (1, 0)), out)
            _try(label + "-t001", fam, MixedType(0, (0, 1)), out)

    # Three variables.
    m3 = ideal(C3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    three = [
        ("max-free", m3, m3, MonomialIdeal.zero(C3)),
        ("plane-free", ideal(C3, [(1, 0, 0), (0, 1, 0)]), m3, MonomialIdeal.zero(C3)),
        ("max-diag", m3, m3, ideal(C3, [(1, 1, 0)])),
        ("wt-free", ideal(C3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]), m3, MonomialIdeal.zero(C3)),
        ("max-hyp", m3, m3, ideal(C3, [(0, 0, 2)])),
    ]
    for name, i1, j, q in three:
        fam = IdealFamily(j, (i1,), QuotientModule(C3, q))
        _try(f"3v-{name}-t01", fam, MixedType(0, (1,)), out)
        _try(f"3v-{name}-t11", fam, MixedType(1, (1,)), out)

    # Four variables: the dim-4 family with its two hand-picked candidates.
    fam4 = dim4_family()
    for tag, cand in zip(("vars", "squares"), dim4_candidates()):
        out.append(
            CorpusInstance(
                label=f"4v-joint-{tag}",
                fam=fam4,
                cand=cand,
                all_primary=False,
                recursion_axis=1,
            )
        )

    return tuple(out)


def recursion_instances():
    return [c for c in build_corpus() if c.recursion_axis is not None]


def all_primary_small():
    return [
        c
        for c in build_corpus()
        if c.all_primary and c.fam.ctx.num_vars <= 3
    ]


def direct_chi_instances():
    """Every instance in at most three variables, for the DIRECT strand sum."""
    return [c for c in build_corpus() if c.fam.ctx.num_vars <= 3]
