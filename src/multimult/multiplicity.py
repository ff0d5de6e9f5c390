"""The recursive multiplicity symbol, Hilbert-Samuel multiplicities, and the
verification suite for the recursion formula and its corollaries.

The multiplicity symbol e(y; M) of a sequence of monomials y on a subquotient
module M is defined by e((); M) = length(M) and

    e(y; M) = e(y'; M / y1 M) - e(y'; 0_M : y1),

which closes inside the pair presentation of QuotientModule.  It is nonzero
exactly when y is a system of parameters, and agrees with the Hilbert-Samuel
multiplicity of the generated ideal.

Each verify_* operation recomputes both sides of its claim through independent
routes (interpolation on one side, the symbol recursion on the other) and
reports EQUAL, LEQ_STRICT, HYPOTHESIS_UNMET, or MISMATCH.  A MISMATCH means a
claim failed with all its hypotheses satisfied and is a build-failing event.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .hilbert import (
    IdealFamily,
    MixedType,
    StabilizationError,
    _fit_window,
    interpolate,
    mixed_multiplicity,
)
from .monomials import (
    INFINITE,
    MINUS_INFINITY,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    colon_by_monomial,
    ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    krull_dim,
)
from .reductions import (
    J_SOURCE,
    JointReductionCandidate,
    is_filter_regular,
    is_multiplicity_system,
    is_system_of_parameters,
    verify_joint_reduction,
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


def hilbert_samuel(module: QuotientModule, a: MonomialIdeal) -> int:
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
    return int(top)


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
    left: Fraction
    right: Fraction
    hypotheses: tuple[tuple[str, bool], ...]
    verdict: Verdict


def _report(claim_id, instance, left, right, hypotheses, relation="eq") -> VerificationReport:
    """relation 'eq' asserts left = right; 'le' asserts left <= right."""
    if not all(ok for _, ok in hypotheses):
        verdict = Verdict.HYPOTHESIS_UNMET
    elif left == right:
        verdict = Verdict.EQUAL
    elif relation == "le" and left < right:
        verdict = Verdict.LEQ_STRICT
    else:
        verdict = Verdict.MISMATCH
    return VerificationReport(claim_id, instance, left, right, tuple(hypotheses), verdict)


def _instance_label(fam: IdealFamily, cand: JointReductionCandidate | None = None) -> str:
    parts = [f"Q={fam.module.relations}", f"J={fam.j}"]
    if not fam.module.top.is_unit():
        parts.insert(0, f"T={fam.module.top}")
    parts += [f"I{i + 1}={ideal_}" for i, ideal_ in enumerate(fam.ideals)]
    if cand is not None:
        parts.append(
            "cand=" + ",".join(f"{u}:{'J' if s == J_SOURCE else f'I{s + 1}'}" for u, s in cand.elements)
        )
    return "; ".join(parts)


def _first_i_element(cand: JointReductionCandidate, i: int) -> Monomial | None:
    for u, src in cand.elements:
        if src == i:
            return u
    return None


def _shift_type(mt: MixedType, i: int) -> MixedType:
    k = tuple(ki - (1 if idx == i else 0) for idx, ki in enumerate(mt.k))
    return MixedType(mt.k0, k)


def verify_theorem_recursion(fam: IdealFamily, cand: JointReductionCandidate, i: int) -> VerificationReport:
    """Three-term recursion: the mixed multiplicity of M equals the one of
    M/x1*M minus the one of 0_M:x1, for x1 drawn from I_i with k_i > 0."""
    mt = cand.declared_type
    x1 = _first_i_element(cand, i)
    hyps = [
        ("candidate certified", verify_joint_reduction(fam, cand).holds),
        ("k_i positive", mt.k[i] > 0),
        ("element from I_i present", x1 is not None),
    ]
    label = _instance_label(fam, cand)
    if x1 is None:
        return _report("recursion", label, Fraction(0), Fraction(0), hyps)
    smaller = _shift_type(mt, i)
    try:
        left, _ = mixed_multiplicity(fam, mt)
        quot, _ = mixed_multiplicity(fam.with_module(fam.module.quotient_by_elements([x1])), smaller)
        tors, _ = mixed_multiplicity(fam.with_module(fam.module.annihilator_of(x1)), smaller)
    except StabilizationError:
        hyps.append(("interpolation stabilized", False))
        return _report("recursion", label, Fraction(0), Fraction(0), hyps)
    return _report("recursion", label, left, quot - tors, hyps)


def verify_cor_filter_regular(fam: IdealFamily, cand: JointReductionCandidate, i: int) -> VerificationReport:
    """One-term comparison: e(M) <= e(M/x1*M), with equality when x1 is
    M-regular or I-filter-regular."""
    mt = cand.declared_type
    x1 = _first_i_element(cand, i)
    hyps = [
        ("candidate certified", verify_joint_reduction(fam, cand).holds),
        ("k_i positive", mt.k[i] > 0),
        ("element from I_i present", x1 is not None),
    ]
    label = _instance_label(fam, cand)
    if x1 is None:
        return _report("quotient-comparison", label, Fraction(0), Fraction(0), hyps)
    q = fam.module.relations
    regular = colon_by_monomial(q, x1) == q and fam.module.top.is_unit()
    filter_reg = is_filter_regular(fam, x1)
    left, _ = mixed_multiplicity(fam, mt)
    right, _ = mixed_multiplicity(
        fam.with_module(fam.module.quotient_by_elements([x1])), _shift_type(mt, i)
    )
    relation = "eq" if (regular or filter_reg) else "le"
    hyps.append(("regular or filter-regular (equality case)", True))
    claim = "quotient-comparison-eq" if relation == "eq" else "quotient-comparison-le"
    return _report(claim, label, left, right, hyps, relation)


def _split_candidate(cand: JointReductionCandidate):
    x_i = [(u, s) for u, s in cand.elements if s != J_SOURCE]
    u_j = [u for u, s in cand.elements if s == J_SOURCE]
    return x_i, u_j


def _is_filter_regular_sequence(fam: IdealFamily, elems) -> bool:
    module = fam.module
    for u, _src in elems:
        if not is_filter_regular(fam.with_module(module), u):
            return False
        module = module.quotient_by_elements([u])
    return True


def verify_cor_transition(fam: IdealFamily, cand: JointReductionCandidate) -> VerificationReport:
    """Transition to the saturated quotient: the mixed multiplicity is at most
    the symbol of the J-block on M/(x_I)M with its I-power torsion killed,
    with equality for an I-filter-regular sequence x_I."""
    mt = cand.declared_type
    x_i, u_j = _split_candidate(cand)
    hyps = [("candidate certified", verify_joint_reduction(fam, cand).holds)]
    label = _instance_label(fam, cand)
    left, _ = mixed_multiplicity(fam, mt)
    target = fam.module.quotient_by_elements([u for u, _ in x_i]) if x_i else fam.module
    target = target.saturate(fam.product_ideal())
    try:
        right = Fraction(mult_symbol(target, u_j))
    except NotMultiplicitySystemError:
        hyps.append(("J-block is a multiplicity system of the saturated quotient", False))
        return _report("saturated-transition", label, left, Fraction(0), hyps)
    seq_ok = _is_filter_regular_sequence(fam, x_i)
    relation = "eq" if seq_ok else "le"
    claim = "saturated-transition-eq" if seq_ok else "saturated-transition-le"
    return _report(claim, label, left, right, hyps, relation)


def verify_cor_sop(fam: IdealFamily, cand: JointReductionCandidate) -> VerificationReport:
    """Comparison with the symbol of the full candidate, which must be a
    system of parameters; equality under the dimension-drop hypothesis
    dim M/(x_I, I)M < dim M/(x_I)M."""
    mt = cand.declared_type
    x_i, _ = _split_candidate(cand)
    elems = list(cand.monomials())
    hyps = [
        ("candidate certified", verify_joint_reduction(fam, cand).holds),
        ("candidate is a system of parameters", is_system_of_parameters(fam.module, elems)),
    ]
    label = _instance_label(fam, cand)
    left, _ = mixed_multiplicity(fam, mt)
    if not all(ok for _, ok in hyps):
        return _report("sop-comparison", label, left, Fraction(0), hyps)
    right = Fraction(mult_symbol(fam.module, elems))
    cut = fam.module.quotient_by_elements([u for u, _ in x_i]) if x_i else fam.module
    dim_cut = krull_dim(cut)
    dim_cut_i = krull_dim(cut.quotient_by(fam.product_ideal()))
    drop = dim_cut_i < dim_cut
    if drop:
        return _report("sop-comparison-eq", label, left, right, hyps, "eq")
    return _report("sop-comparison-le", label, left, right, hyps, "le")


def height_hypothesis(fam: IdealFamily, cand: JointReductionCandidate) -> bool:
    """Whether I avoids every minimal prime of Ann(M/(x_I)M).

    For monomial data a minimal prime is a variable set p; I lies inside p
    exactly when every generator's support meets p.
    """
    x_i, _ = _split_candidate(cand)
    cut = fam.module.quotient_by_elements([u for u, _ in x_i]) if x_i else fam.module
    ann = cut.annihilator()
    if ann.is_unit():
        return False
    i_total = fam.product_ideal()
    for p in ann.minimal_primes():
        inside = all(set(Monomial(g).support()) & p for g in i_total.gens)
        if inside:
            return False
    return True


def verify_cor_height(fam: IdealFamily, cand: JointReductionCandidate) -> VerificationReport:
    """Under the height hypothesis and k0 + |k| = dim(saturated M) - 1, the
    candidate must be a system of parameters with symbol equal to the mixed
    multiplicity."""
    mt = cand.declared_type
    label = _instance_label(fam, cand)
    qdim = fam.saturated_dim()
    degree_ok = qdim != MINUS_INFINITY and mt.k0 + sum(mt.k) == int(qdim) - 1
    hyps = [
        ("candidate certified", verify_joint_reduction(fam, cand).holds),
        ("height hypothesis", height_hypothesis(fam, cand)),
        ("degree hypothesis k0+|k| = q-1", degree_ok),
    ]
    if not all(ok for _, ok in hyps):
        return _report("height-criterion", label, Fraction(0), Fraction(0), hyps)
    elems = list(cand.monomials())
    sop = is_system_of_parameters(fam.module, elems)
    left, _ = mixed_multiplicity(fam, mt)
    if not sop:
        # The conclusion itself failed: force a MISMATCH.
        return VerificationReport(
            "height-criterion", label, left, Fraction(-1),
            tuple(hyps + [("conclusion: system of parameters", False)]), Verdict.MISMATCH,
        )
    right = Fraction(mult_symbol(fam.module, elems))
    return _report("height-criterion", label, left, right,
                   hyps + [("conclusion: system of parameters", True)])


def verify_rees_mprimary(fam: IdealFamily, cand: JointReductionCandidate) -> VerificationReport:
    """All-primary recovery: with every I_i an ideal of definition, the mixed
    multiplicity equals the symbol of the candidate's elements."""
    mt = cand.declared_type
    label = _instance_label(fam, cand)
    hyps = [
        ("every I_i primary to the maximal ideal",
         all(i.is_primary_to_max_ideal() for i in fam.ideals)),
        ("candidate certified", verify_joint_reduction(fam, cand).holds),
    ]
    left, _ = mixed_multiplicity(fam, mt)
    if not all(ok for _, ok in hyps):
        return _report("primary-recovery", label, left, Fraction(0), hyps)
    right = Fraction(mult_symbol(fam.module, list(cand.monomials())))
    return _report("primary-recovery", label, left, right, hyps)


def verify_base_type(fam: IdealFamily, cand: JointReductionCandidate) -> VerificationReport:
    """Type (k0, 0): the mixed multiplicity equals the symbol of the J-block
    on the module with its I-power torsion killed."""
    mt = cand.declared_type
    label = _instance_label(fam, cand)
    x_i, u_j = _split_candidate(cand)
    hyps = [
        ("type has no I-components", sum(mt.k) == 0 and not x_i),
        ("candidate certified", verify_joint_reduction(fam, cand).holds),
    ]
    left, _ = mixed_multiplicity(fam, mt)
    if not all(ok for _, ok in hyps):
        return _report("base-type", label, left, Fraction(0), hyps)
    saturated = fam.saturated_module()
    try:
        right = Fraction(mult_symbol(saturated, u_j))
    except NotMultiplicitySystemError:
        hyps.append(("J-block is a multiplicity system of the saturation", False))
        return _report("base-type", label, left, Fraction(0), hyps)
    return _report("base-type", label, left, right, hyps)
