"""Unit tests for joint-reduction certificates and element properties."""

import hashlib
import itertools
import json
import tracemalloc
from collections import Counter

import pytest

from corpus import build_corpus
from oracles import is_multiplicity_system
from multimult import reductions
from multimult.cli import run_request
from multimult.hilbert import IdealFamily, MixedType, MultiDegree
from multimult.instances import parse_instance
from multimult.monomials import QuotientModule, RingContext, ideal
from multimult.reductions import (
    J_SOURCE,
    JointReductionCandidate,
    PoolPolicy,
    _element_pool,
    is_filter_regular,
    is_rees_superficial,
    is_system_of_parameters,
    search_joint_reduction,
    verify_joint_reduction,
)
from multimult.reports import certificate_payload

C1 = RingContext(1)
C2 = RingContext(2)
C4 = RingContext(4)


def family_dim4():
    i1 = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    i2 = ideal(C4, [(0, 0, 1, 0)])
    j = ideal(C4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    return IdealFamily(j, (i1, i2), QuotientModule.free(C4))


def family_2var():
    m = ideal(C2, [(1, 0), (0, 1)])
    return IdealFamily(m, (m,), QuotientModule.free(C2))


def dim4_candidate(powers=(1, 1, 1)):
    a, b, c = powers
    elements = (
        (C4.monomial(0, 0, 1, 0), 1),  # x3 from I2
        (C4.monomial(a, 0, 0, 0), J_SOURCE),
        (C4.monomial(0, b, 0, 0), J_SOURCE),
        (C4.monomial(0, 0, 0, c), J_SOURCE),
    )
    return JointReductionCandidate(elements, MixedType(2, (0, 1)))


class TestCandidateValidation:
    def test_counts_must_match(self):
        with pytest.raises(ValueError):
            JointReductionCandidate(
                ((C2.monomial(1, 0), 0),), MixedType(0, (2,))
            )

    def test_j_count(self):
        with pytest.raises(ValueError):
            JointReductionCandidate(
                ((C2.monomial(1, 0), J_SOURCE), (C2.monomial(0, 1), J_SOURCE)),
                MixedType(0, ()),
            )

    def test_membership_checked(self):
        fam = family_2var()
        cand = JointReductionCandidate(
            ((C2.monomial(1, 0), 0), (C2.monomial(0, 1), J_SOURCE)), MixedType(0, (1,))
        )
        cand.check_membership(fam)
        i1 = ideal(C2, [(2, 0), (0, 2)])
        fam_small = IdealFamily(fam.j, (i1,), fam.module)
        with pytest.raises(ValueError):
            cand.check_membership(fam_small)


class TestVerifyJointReduction:
    def test_dim4_variables(self):
        assert verify_joint_reduction(family_dim4(), dim4_candidate()).holds

    def test_dim4_squares(self):
        assert verify_joint_reduction(family_dim4(), dim4_candidate((2, 2, 2))).holds

    def test_2var_classical(self):
        fam = family_2var()
        cand = JointReductionCandidate(
            ((C2.monomial(1, 0), 0), (C2.monomial(0, 1), J_SOURCE)), MixedType(0, (1,))
        )
        assert verify_joint_reduction(fam, cand).holds

    def test_pure_principal(self):
        x = ideal(C1, [(1,)])
        fam = IdealFamily(x, (x,), QuotientModule.free(C1))
        cand = JointReductionCandidate(((C1.monomial(1), 0),), MixedType(0, (1,)))
        assert cand.is_pure
        assert verify_joint_reduction(fam, cand).holds

    def test_failing_candidate_has_valid_witness(self):
        fam = family_2var()
        # One J element cannot regenerate the whole maximal ideal power.
        cand = JointReductionCandidate(
            ((C2.monomial(1, 0), J_SOURCE),), MixedType(0, (0,))
        )
        cert = verify_joint_reduction(fam, cand)
        assert not cert.holds
        (n0, *n), witness = cert.witness
        lhs = fam.piece(MultiDegree(n0, tuple(n)))
        assert lhs.contains(witness)

    def test_pure_witness_is_pinned(self):
        # A pure candidate's witness carries the d entries of n, not (n0, n).
        m = ideal(C2, [(1, 0), (0, 1)])
        fam = IdealFamily(m, (m,), QuotientModule.free(C2))
        cand = JointReductionCandidate(((C2.monomial(1, 0), 0),), MixedType(0, (1,)))
        assert certificate_payload(verify_joint_reduction(fam, cand)) == {
            "holds": False, "window_base": 3, "window_extent": 2,
            "witness": {"multidegree": [3], "monomial": "x2^3"},
        }
        fam2 = IdealFamily(m, (m, m), QuotientModule.free(C2))
        cand2 = JointReductionCandidate(
            ((C2.monomial(1, 0), 0), (C2.monomial(1, 0), 1)), MixedType(0, (1, 1))
        )
        assert certificate_payload(verify_joint_reduction(fam2, cand2)) == {
            "holds": False, "window_base": 3, "window_extent": 2,
            "witness": {"multidegree": [3, 3], "monomial": "x2^6"},
        }

    def test_corpus_certificates_are_pinned(self):
        # Every corpus candidate certifies with the payload the check of the
        # whole window gave: the bases tallied, and each (label, payload)
        # pinned by digest.
        payloads = [
            [c.label, certificate_payload(verify_joint_reduction(c.fam, c.cand))]
            for c in build_corpus()
        ]
        assert Counter(p["window_base"] for _, p in payloads) == {2: 1, 3: 60, 4: 63, 5: 5}
        assert all(p == {"holds": True, "window_base": p["window_base"], "window_extent": 2}
                   for _, p in payloads)
        digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
        assert digest == "e8dfe31087387035e50fe88e8bfb09297d44e72b7ea3159e2e53fbb2f34dac05"

    def test_permutation_invariance(self):
        fam = family_dim4()
        cand = dim4_candidate()
        swapped = JointReductionCandidate(
            (cand.elements[0], cand.elements[2], cand.elements[1], cand.elements[3]),
            cand.declared_type,
        )
        assert verify_joint_reduction(fam, swapped).holds


def element_props(doc, monomial, ideal_name):
    """The result of an element-props request on the instance `doc`."""
    inst = parse_instance(json.dumps(doc))
    req = {"command": "element-props", "monomial": monomial, "ideal": ideal_name}
    return run_request(inst, req)


class TestElementProperties:
    def test_filter_regular_domain(self):
        fam = family_2var()
        assert is_filter_regular(fam, C2.monomial(1, 0))

    def test_filter_regular_dim4(self):
        assert is_filter_regular(family_dim4(), C4.monomial(0, 0, 1, 0))

    def test_filter_regular_with_relations(self):
        i1 = ideal(C2, [(1, 0)])
        j = ideal(C2, [(1, 0), (0, 1)])
        fam = IdealFamily(j, (i1,), QuotientModule(C2, ideal(C2, [(1, 1)])))
        # Q:x1 = (x2) equals Q:I^inf = (x2).
        assert is_filter_regular(fam, C2.monomial(1, 0))

    def test_rees_superficial_principal(self):
        x = ideal(C1, [(1,)])
        fam = IdealFamily(x, (x,), QuotientModule.free(C1))
        assert is_rees_superficial(fam, C1.monomial(1), 0).holds

    def test_rees_superficial_dim4(self):
        assert is_rees_superficial(family_dim4(), C4.monomial(0, 0, 1, 0), 1).holds

    def test_weak_fc_dim4(self):
        doc = {
            "variables": ["x1", "x2", "x3", "x4"],
            "J": ["x1", "x2", "x3", "x4"],
            "ideals": {"I1": ["x1", "x2", "x3"], "I2": ["x3"]},
        }
        assert element_props(doc, "x3", "I2")["weak_fc"] is True

    def test_weak_fc_zero_module(self):
        doc = {
            "variables": ["x1", "x2"],
            "module_relations": ["1"],
            "J": ["x1", "x2"],
            "ideals": {"I1": ["x1", "x2"]},
        }
        assert element_props(doc, "x1", "I1")["weak_fc"] is True

    def test_failing_witness_is_pinned(self):
        # The first grlex generator of the left side outside the right side,
        # at the first multidegree of the window, as the report prints it.
        m = ideal(C2, [(1, 0), (0, 1)])
        free = IdealFamily(m, (m,), QuotientModule.free(C2))
        cert = is_rees_superficial(free, C2.monomial(2, 0), 0)
        assert certificate_payload(cert) == {
            "holds": False, "window_base": 3, "window_extent": 2,
            "witness": {"multidegree": [3], "monomial": "x1^2*x2^2"},
        }
        killed = IdealFamily(m, (m,), QuotientModule(C2, ideal(C2, [(2, 0)])))
        cert = is_rees_superficial(killed, C2.monomial(1, 1), 0)
        assert certificate_payload(cert) == {
            "holds": False, "window_base": 3, "window_extent": 2,
            "witness": {"multidegree": [3], "monomial": "x1*x2^3"},
        }


class TestParameterSystems:
    def test_variables_are_sop(self):
        elems = [C4.variable(i) for i in range(4)]
        assert is_system_of_parameters(QuotientModule.free(C4), elems)

    def test_squares_are_sop(self):
        elems = [
            C4.monomial(0, 0, 1, 0),
            C4.monomial(2, 0, 0, 0),
            C4.monomial(0, 2, 0, 0),
            C4.monomial(0, 0, 0, 2),
        ]
        assert is_system_of_parameters(QuotientModule.free(C4), elems)

    def test_dependent_pair_is_not(self):
        elems = [C2.monomial(1, 0), C2.monomial(1, 1)]
        assert not is_system_of_parameters(QuotientModule.free(C2), elems)

    def test_multiplicity_system(self):
        free2 = QuotientModule.free(C2)
        assert is_multiplicity_system(free2, [C2.monomial(1, 0), C2.monomial(0, 1)])
        assert not is_multiplicity_system(free2, [C2.monomial(1, 0)])
        mod = QuotientModule(C2, ideal(C2, [(1, 0)]))
        assert is_multiplicity_system(mod, [C2.monomial(0, 1)])


class TestSearch:
    def test_search_1var(self):
        x = ideal(C1, [(1,)])
        fam = IdealFamily(x, (x,), QuotientModule.free(C1))
        cand = search_joint_reduction(fam, MixedType(0, (1,)))
        assert cand is not None
        assert verify_joint_reduction(fam, cand).holds

    def test_search_2var(self):
        cand = search_joint_reduction(family_2var(), MixedType(0, (1,)))
        assert cand is not None

    def test_search_dim4(self):
        cand = search_joint_reduction(family_dim4(), MixedType(2, (0, 1)))
        assert cand is not None
        assert verify_joint_reduction(family_dim4(), cand).holds

    @staticmethod
    def eager_order(fam, mt, policy):
        """Every candidate, in the order of itertools.product over fully
        listed per-source blocks."""
        per_source = [
            list(itertools.combinations_with_replacement(_element_pool(i, policy), ki))
            for i, ki in zip(fam.ideals, mt.k)
        ]
        per_source.append(
            list(itertools.combinations_with_replacement(_element_pool(fam.j, policy), mt.k0 + 1))
        )
        out = []
        for combo in itertools.product(*per_source):
            elements = [(u, i) for i, block in enumerate(combo[:-1]) for u in block]
            elements += [(u, J_SOURCE) for u in combo[-1]]
            out.append(JointReductionCandidate(tuple(elements), mt))
        return out

    @pytest.mark.parametrize("budget", [3, 2000])
    def test_tries_candidates_in_product_order(self, monkeypatch, budget):
        tried = []
        verify = reductions.verify_joint_reduction
        monkeypatch.setattr(reductions, "verify_joint_reduction",
                            lambda fam, cand: tried.append(cand) or verify(fam, cand))
        m = ideal(C2, [(1, 0), (0, 1)])
        cases = [
            (family_dim4(), MixedType(2, (0, 1))),
            (family_2var(), MixedType(1, (1,))),
            (IdealFamily(ideal(C2, [(2, 0), (0, 2)]), (m, ideal(C2, [(0, 1)])),
                         QuotientModule.free(C2)), MixedType(1, (0, 1))),
            # One monomial is no reduction of m: the search runs to its end.
            (family_2var(), MixedType(0, (0,))),
        ]
        for fam, mt in cases:
            policy = PoolPolicy(budget=budget)
            tried.clear()
            found = search_joint_reduction(fam, mt, policy)
            # Every pool monomial lies in its source, so every candidate is tried.
            order = self.eager_order(fam, mt, policy)
            assert tried == order[:len(tried)]
            assert len(tried) == min(budget, order.index(found) + 1 if found else len(order))
            assert found is None or found == tried[-1]

    def test_many_j_elements_stay_small(self):
        # J = (x1, x2), I1 = (x1), type (45, (1)): the J pool has 5 monomials,
        # so the J source alone has C(50, 4) = 230 300 blocks of 46 elements.
        fam = IdealFamily(ideal(C2, [(1, 0), (0, 1)]), (ideal(C2, [(1, 0)]),),
                          QuotientModule.free(C2))
        tracemalloc.start()
        try:
            cand = search_joint_reduction(fam, MixedType(45, (1,)), PoolPolicy(budget=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        first = _element_pool(fam.j, PoolPolicy())[0]
        assert cand.elements == ((C2.monomial(1, 0), 0),) + ((first, J_SOURCE),) * 46
        assert verify_joint_reduction(fam, cand).holds


class TestSubmoduleStability:
    def test_colon_quotients_stay_certified(self):
        fam = family_dim4()
        cand = dim4_candidate()
        for u, _ in cand.elements:
            quotient = fam.module.annihilator_of(u)
            assert verify_joint_reduction(fam.with_module(quotient), cand).holds
