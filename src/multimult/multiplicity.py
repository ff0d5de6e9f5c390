"""The recursive multiplicity symbol and the verification suite for the
recursion formula and its corollaries.

The multiplicity symbol e(y; M) of a sequence of monomials y on a subquotient
module M is defined by e((); M) = length(M) and

    e(y; M) = e(y'; M / y1 M) - e(y'; 0_M : y1),

which closes inside the pair presentation of QuotientModule.  It is nonzero
exactly when y is a system of parameters, and agrees with the Hilbert-Samuel
multiplicity of the generated ideal.

Each verify_* claim takes a ReesDatum, whose certificate is its "candidate
certified" hypothesis, and recomputes both sides of its claim through
independent routes (interpolation on one side, the symbol recursion on the
other), both as integers.  One verdict rule gives EQUAL, LEQ_STRICT,
HYPOTHESIS_UNMET, or MISMATCH; a MISMATCH means a conclusion or the claimed
relation failed with all hypotheses met, and is a build-failing event.
verify_corollaries runs the corollaries that apply to a datum, in report
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from .hilbert import MixedType, StabilizationError, mixed_multiplicity
from .monomials import (
    INFINITE,
    MINUS_INFINITY,
    Monomial,
    QuotientModule,
    colon_by_monomial,
    krull_dim,
)
from .reductions import (
    J_SOURCE,
    ReesDatum,
    is_filter_regular,
    is_multiplicity_system,
    is_system_of_parameters,
)


class NotMultiplicitySystemError(ValueError):
    """The given elements do not generate an ideal of definition."""


def _symbol(module: QuotientModule, y) -> int:
    if not y:
        n = module.length()
        if n == INFINITE:
            raise NotMultiplicitySystemError("infinite length at recursion base")
        return int(n)
    head, tail = y[0], y[1:]
    return _symbol(module.quotient_by_elements([head]), tail) - _symbol(
        module.annihilator_of(head), tail
    )


def mult_symbol(module: QuotientModule, y) -> int:
    """The recursive multiplicity symbol e(y; M)."""
    y = list(y)
    if not is_multiplicity_system(module, y):
        raise NotMultiplicitySystemError("elements do not cut M to finite length")
    return _symbol(module, y)


# -- verification reports --------------------------------------------------


class Verdict(Enum):
    EQUAL = "EQUAL"
    LEQ_STRICT = "LEQ_STRICT"
    HYPOTHESIS_UNMET = "HYPOTHESIS_UNMET"
    MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verified claim, with its hypothesis checklist."""

    claim_id: str
    instance: str
    left: int
    right: int
    hypotheses: tuple[tuple[str, bool], ...]
    verdict: Verdict


def _holds(checks) -> bool:
    return all(ok for _, ok in checks)


def _verdict(hypotheses, conclusions, left, right, relation) -> Verdict:
    """The one verdict rule.  relation 'eq' asserts left = right and 'le'
    asserts left <= right; a failed conclusion fails the claim whatever the
    sides, and unmet hypotheses assert nothing."""
    if not _holds(hypotheses):
        return Verdict.HYPOTHESIS_UNMET
    if not _holds(conclusions):
        return Verdict.MISMATCH
    if left == right:
        return Verdict.EQUAL
    if relation == "le" and left < right:
        return Verdict.LEQ_STRICT
    return Verdict.MISMATCH


def _report(claim_id, datum, left, right, hypotheses, relation="eq", conclusions=()):
    """The report of one claim; its checklist lists the hypotheses, then the
    conclusions."""
    verdict = _verdict(hypotheses, conclusions, left, right, relation)
    checks = tuple(hypotheses) + tuple(conclusions)
    return VerificationReport(claim_id, _instance_label(datum), left, right, checks, verdict)


def _instance_label(datum: ReesDatum) -> str:
    fam = datum.fam
    parts = [f"Q={fam.module.relations}", f"J={fam.j}"]
    if not fam.module.top.is_unit():
        parts.insert(0, f"T={fam.module.top}")
    parts += [f"I{i + 1}={ideal_}" for i, ideal_ in enumerate(fam.ideals)]
    parts.append(
        "cand=" + ",".join(f"{u}:{'J' if s == J_SOURCE else f'I{s + 1}'}" for u, s in datum.cand.elements)
    )
    return "; ".join(parts)


def _blocks(datum: ReesDatum) -> tuple[list[Monomial], list[Monomial]]:
    """The candidate's I-sourced elements x_I and its J-block, each in order."""
    elements = datum.cand.elements
    return [u for u, s in elements if s != J_SOURCE], [u for u, s in elements if s == J_SOURCE]


def _recursion_step(datum: ReesDatum, i: int):
    """x1, the first I_i-sourced element (None when there is none), the type
    with k_i lowered by one, and the hypotheses of the claims that cut by x1."""
    mt = datum.mixed_type
    x1 = next((u for u, s in datum.cand.elements if s == i), None)
    hyps = [
        ("candidate certified", datum.certificate.holds),
        ("k_i positive", mt.k[i] > 0),
        ("element from I_i present", x1 is not None),
    ]
    if x1 is None:
        return None, None, hyps
    return x1, MixedType(mt.k0, tuple(k - (j == i) for j, k in enumerate(mt.k))), hyps


def verify_theorem_recursion(datum: ReesDatum, i: int) -> VerificationReport:
    """Three-term recursion: the mixed multiplicity of M equals the one of
    M/x1*M minus the one of 0_M:x1, for x1 drawn from I_i with k_i > 0."""
    x1, smaller, hyps = _recursion_step(datum, i)
    if x1 is None:
        return _report("recursion", datum, 0, 0, hyps)
    fam = datum.fam
    try:
        left, _ = mixed_multiplicity(fam, datum.mixed_type)
        quot, _ = mixed_multiplicity(fam.with_module(fam.module.quotient_by_elements([x1])), smaller)
        tors, _ = mixed_multiplicity(fam.with_module(fam.module.annihilator_of(x1)), smaller)
    except StabilizationError:
        hyps.append(("interpolation stabilized", False))
        return _report("recursion", datum, 0, 0, hyps)
    return _report("recursion", datum, left, quot - tors, hyps)


def verify_cor_filter_regular(datum: ReesDatum, i: int) -> VerificationReport:
    """One-term comparison: e(M) <= e(M/x1*M), with equality when x1 is
    M-regular or I-filter-regular."""
    x1, smaller, hyps = _recursion_step(datum, i)
    if x1 is None:
        return _report("quotient-comparison", datum, 0, 0, hyps)
    fam = datum.fam
    q = fam.module.relations
    regular = colon_by_monomial(q, x1) == q and fam.module.top.is_unit()
    relation = "eq" if regular or is_filter_regular(fam, x1) else "le"
    left, _ = mixed_multiplicity(fam, datum.mixed_type)
    right, _ = mixed_multiplicity(fam.with_module(fam.module.quotient_by_elements([x1])), smaller)
    hyps.append(("regular or filter-regular (equality case)", True))
    return _report(f"quotient-comparison-{relation}", datum, left, right, hyps, relation)


def _is_filter_regular_sequence(fam, elems) -> bool:
    module = fam.module
    for u in elems:
        if not is_filter_regular(fam.with_module(module), u):
            return False
        module = module.quotient_by_elements([u])
    return True


def verify_cor_transition(datum: ReesDatum) -> VerificationReport:
    """Transition to the saturated quotient: the mixed multiplicity is at most
    the symbol of the J-block on M/(x_I)M with its I-power torsion killed,
    with equality for an I-filter-regular sequence x_I."""
    fam = datum.fam
    x_i, u_j = _blocks(datum)
    hyps = [("candidate certified", datum.certificate.holds)]
    left, _ = mixed_multiplicity(fam, datum.mixed_type)
    target = fam.module.quotient_by_elements(x_i).saturate(fam.product_ideal())
    try:
        right = mult_symbol(target, u_j)
    except NotMultiplicitySystemError:
        hyps.append(("J-block is a multiplicity system of the saturated quotient", False))
        return _report("saturated-transition", datum, left, 0, hyps)
    relation = "eq" if _is_filter_regular_sequence(fam, x_i) else "le"
    return _report(f"saturated-transition-{relation}", datum, left, right, hyps, relation)


def verify_cor_sop(datum: ReesDatum) -> VerificationReport:
    """Comparison with the symbol of the full candidate, which must be a
    system of parameters; equality under the dimension-drop hypothesis
    dim M/(x_I, I)M < dim M/(x_I)M."""
    fam = datum.fam
    x_i, _ = _blocks(datum)
    elems = list(datum.cand.monomials())
    hyps = [
        ("candidate certified", datum.certificate.holds),
        ("candidate is a system of parameters", is_system_of_parameters(fam.module, elems)),
    ]
    left, _ = mixed_multiplicity(fam, datum.mixed_type)
    if not _holds(hyps):
        return _report("sop-comparison", datum, left, 0, hyps)
    right = mult_symbol(fam.module, elems)
    cut = fam.module.quotient_by_elements(x_i)
    relation = "eq" if krull_dim(cut.quotient_by(fam.product_ideal())) < krull_dim(cut) else "le"
    return _report(f"sop-comparison-{relation}", datum, left, right, hyps, relation)


def height_hypothesis(datum: ReesDatum) -> bool:
    """Whether I avoids every minimal prime of Ann(M/(x_I)M).

    For monomial data a minimal prime is a variable set p; I lies inside p
    exactly when every generator's support meets p.
    """
    x_i, _ = _blocks(datum)
    ann = datum.fam.module.quotient_by_elements(x_i).annihilator()
    if ann.is_unit():
        return False
    i_total = datum.fam.product_ideal()
    for p in ann.minimal_primes():
        inside = all(set(Monomial(g).support()) & p for g in i_total.gens)
        if inside:
            return False
    return True


def verify_cor_height(datum: ReesDatum) -> VerificationReport:
    """Under the height hypothesis and k0 + |k| = dim(saturated M) - 1, the
    candidate must be a system of parameters with symbol equal to the mixed
    multiplicity."""
    fam, mt = datum.fam, datum.mixed_type
    qdim = fam.saturated_dim()
    degree_ok = qdim != MINUS_INFINITY and mt.k0 + sum(mt.k) == int(qdim) - 1
    hyps = [
        ("candidate certified", datum.certificate.holds),
        ("height hypothesis", height_hypothesis(datum)),
        ("degree hypothesis k0+|k| = q-1", degree_ok),
    ]
    if not _holds(hyps):
        return _report("height-criterion", datum, 0, 0, hyps)
    elems = list(datum.cand.monomials())
    sop = is_system_of_parameters(fam.module, elems)
    left, _ = mixed_multiplicity(fam, mt)
    # Without a system of parameters the conclusion itself fails, and the
    # right side reads -1.
    right = mult_symbol(fam.module, elems) if sop else -1
    return _report("height-criterion", datum, left, right, hyps,
                   conclusions=[("conclusion: system of parameters", sop)])


def verify_rees_mprimary(datum: ReesDatum) -> VerificationReport:
    """All-primary recovery: with every I_i an ideal of definition, the mixed
    multiplicity equals the symbol of the candidate's elements."""
    fam = datum.fam
    hyps = [
        ("every I_i primary to the maximal ideal",
         all(i.is_primary_to_max_ideal() for i in fam.ideals)),
        ("candidate certified", datum.certificate.holds),
    ]
    left, _ = mixed_multiplicity(fam, datum.mixed_type)
    right = 0
    if _holds(hyps):
        right = mult_symbol(fam.module, list(datum.cand.monomials()))
    return _report("primary-recovery", datum, left, right, hyps)


def verify_base_type(datum: ReesDatum) -> VerificationReport:
    """Type (k0, 0): the mixed multiplicity equals the symbol of the J-block
    on the module with its I-power torsion killed."""
    fam, mt = datum.fam, datum.mixed_type
    hyps = [
        # The candidate carries exactly k_i elements from each I_i, so a type
        # with no I-components leaves only the J-block.
        ("type has no I-components", sum(mt.k) == 0),
        ("candidate certified", datum.certificate.holds),
    ]
    left, _ = mixed_multiplicity(fam, mt)
    if not _holds(hyps):
        return _report("base-type", datum, left, 0, hyps)
    try:
        right = mult_symbol(fam.saturated_module(), list(datum.cand.monomials()))
    except NotMultiplicitySystemError:
        hyps.append(("J-block is a multiplicity system of the saturation", False))
        return _report("base-type", datum, left, 0, hyps)
    return _report("base-type", datum, left, right, hyps)


def verify_corollaries(datum: ReesDatum, i: int | None) -> list[VerificationReport]:
    """The corollaries that apply to the datum, in report order: the quotient
    comparison on axis i (none without one), the saturated transition, the
    s.o.p. comparison and the height criterion; then all-primary recovery
    when every I_i is primary to the maximal ideal, and the base type when
    the type has no I-components."""
    fam = datum.fam
    reports = [] if i is None else [verify_cor_filter_regular(datum, i)]
    reports += [verify_cor_transition(datum), verify_cor_sop(datum), verify_cor_height(datum)]
    if all(a.is_primary_to_max_ideal() for a in fam.ideals):
        reports.append(verify_rees_mprimary(datum))
    if sum(datum.mixed_type.k) == 0:
        reports.append(verify_base_type(datum))
    return reports
