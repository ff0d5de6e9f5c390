"""Randomized property suites over the exact monomial machinery.

Each property runs on at least 1000 generated cases.  All comparisons are
exact; no tolerances appear anywhere.
"""

import itertools

from hypothesis import HealthCheck, example, given, settings, strategies as st

from multimult.hilbert import IdealFamily, MixedType, MultiDegree, initial_offset
from multimult.monomials import (
    INFINITE,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    colon_by_monomial,
    first_outside_sum,
    ideal,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    krull_dim,
    saturation,
)
from multimult.reductions import (
    J_SOURCE,
    JointReductionCandidate,
    _rhs_parts,
    verify_joint_reduction,
)
from oracles import saturation_fixpoint, window_joint_reduction

MANY = settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CONTEXTS = {m: RingContext(m) for m in (1, 2, 3, 4)}


def exponent_vectors(num_vars, max_exp=5):
    return st.tuples(*(st.integers(0, max_exp) for _ in range(num_vars)))


@st.composite
def ideal_with_ctx(draw, min_gens=1, max_gens=4, max_exp=5, max_vars=4):
    m = draw(st.integers(1, max_vars))
    gens = draw(
        st.lists(exponent_vectors(m, max_exp), min_size=min_gens, max_size=max_gens)
    )
    return ideal(CONTEXTS[m], gens)


@st.composite
def ideal_pair(draw, max_vars=4, max_exp=5):
    m = draw(st.integers(1, max_vars))
    ctx = CONTEXTS[m]
    a = ideal(ctx, draw(st.lists(exponent_vectors(m, max_exp), min_size=1, max_size=4)))
    b = ideal(ctx, draw(st.lists(exponent_vectors(m, max_exp), min_size=1, max_size=4)))
    return a, b


@st.composite
def ideal_and_monomials(draw):
    q = draw(ideal_with_ctx())
    m = q.ctx.num_vars
    u = Monomial(draw(exponent_vectors(m, 3)))
    v = Monomial(draw(exponent_vectors(m, 3)))
    return q, u, v


class TestColonProductAdjunction:
    @MANY
    @given(ideal_and_monomials())
    def test_iterated_colon_equals_colon_by_product(self, data):
        q, u, v = data
        assert colon_by_monomial(colon_by_monomial(q, u), v) == colon_by_monomial(
            q, u * v
        )


class TestSaturationIdempotence:
    @MANY
    @given(ideal_pair())
    def test_idempotent_and_increasing(self, pair):
        q, i = pair
        sat = saturation(q, i)
        assert sat.contains_ideal(q)
        assert saturation(sat, i) == sat


@st.composite
def saturation_rows(draw):
    """A variable count and generator rows for q and i, either possibly
    empty, with i sometimes the unit ideal."""
    m = draw(st.integers(1, 4))
    q_rows = draw(st.lists(exponent_vectors(m, 4), max_size=4))
    i_rows = draw(st.one_of(st.just([(0,) * m]),
                            st.lists(exponent_vectors(m, 3), max_size=4)))
    return m, q_rows, i_rows


class TestSaturationClosedForm:
    """saturation, an intersection of colons by monomials, against the
    ascending colon chain."""

    @MANY
    @given(saturation_rows())
    @example((2, [], [(1, 0)]))  # zero q
    @example((2, [(1, 1)], []))  # zero i
    @example((1, [], []))  # both zero
    @example((2, [(1, 1)], [(0, 0)]))  # unit i
    @example((2, [(3, 1), (0, 2)], [(2, 1), (1, 2)]))  # generators sharing a support
    @example((3, [(4, 0, 1), (0, 3, 2)], [(1, 1, 0), (2, 3, 0)]))  # ... of two variables
    @example((2, [(2, 0)], [(0, 1)]))  # q's maxima zero on supp(g)
    @example((3, [(2, 0, 0), (0, 1, 0)], [(0, 0, 1), (1, 0, 0)]))  # ... on one of them
    def test_matches_the_fixpoint(self, case):
        m, q_rows, i_rows = case
        q, i = ideal(CONTEXTS[m], q_rows), ideal(CONTEXTS[m], i_rows)
        assert saturation(q, i) == saturation_fixpoint(q, i)

    def test_colon_monomial_past_int64(self):
        # x^e(g) = x1^(2^62) x2^(2^62) has degree 2^63, past int64, while
        # each colon q : x^e(g) is representable.  The ascending chain would
        # take 2^62 steps, so the answers are checked by hand.
        ctx2, ctx3 = CONTEXTS[2], CONTEXTS[3]
        q = ideal(ctx2, [(2**62, 0), (0, 2**62)])
        assert saturation(q, ideal(ctx2, [(1, 1)])) == MonomialIdeal.unit(ctx2)
        q = ideal(ctx3, [(2**62, 0, 1), (0, 2**62, 1)])
        assert saturation(q, ideal(ctx3, [(1, 1, 0)])) == ideal(ctx3, [(0, 0, 1)])
        # q : x3 = (x1^(2^62), x2^(2^62)), and its meet with (x3) is q.
        assert saturation(q, ideal(ctx3, [(1, 1, 0), (0, 0, 1)])) == q


def _is_minimal(q: MonomialIdeal) -> bool:
    gens = [Monomial(g) for g in q.gens]
    return all(
        not a.divides(b) for a, b in itertools.permutations(gens, 2)
    )


class TestGeneratorMinimality:
    @MANY
    @given(ideal_pair(), st.integers(0, 3))
    def test_every_operation_returns_minimal_generators(self, pair, n):
        a, b = pair
        for result in (
            ideal_sum(a, b),
            ideal_product(a, b),
            ideal_power(a, n),
            ideal_intersection(a, b),
            saturation(a, b),
        ):
            assert _is_minimal(result)


def _brute_force_length(bot: MonomialIdeal):
    """Independent oracle: enumerate standard monomials degree by degree."""
    if bot.pure_power_bounds() is None:
        return INFINITE
    m = bot.ctx.num_vars
    total = 0
    deg = 0
    while True:
        layer = [
            e
            for e in itertools.product(range(deg + 1), repeat=m)
            if sum(e) == deg and not bot.contains(Monomial(e))
        ]
        if not layer and deg > 0:
            return total
        total += len(layer)
        deg += 1


class TestLengthOracle:
    @MANY
    @given(ideal_with_ctx(min_gens=1, max_gens=5, max_exp=5, max_vars=4))
    def test_counting_matches_enumeration(self, bot):
        zero = MonomialIdeal.zero(bot.ctx)
        got = QuotientModule(
            bot.ctx, ideal_sum(bot, zero), ideal_sum(MonomialIdeal.unit(bot.ctx), zero)
        ).length()
        assert got == _brute_force_length(bot)


@st.composite
def subquotient(draw):
    """A module (T+B)/B in 2 or 3 variables with T not the unit ideal; B
    often holds pure powers, so both finite and infinite lengths occur."""
    m = draw(st.integers(2, 3))
    ctx = CONTEXTS[m]
    rels = draw(st.lists(exponent_vectors(m, 4).filter(any), max_size=3))
    for j in range(m):
        power = draw(st.one_of(st.none(), st.integers(2, 6)))
        if power is not None:
            rels.append(tuple(power if k == j else 0 for k in range(m)))
    tops = draw(st.lists(exponent_vectors(m, 3).filter(any), min_size=1, max_size=3))
    return QuotientModule(ctx, ideal(ctx, rels), ideal(ctx, tops))


def _enumerated_length(module: QuotientModule) -> int:
    """Count the monomials of T+B outside B degree by degree.  Past the
    largest generator degree of T+B, a monomial of T+B outside B divides by
    a variable into one of lower degree, so the count stops at the first
    empty degree there."""
    top = ideal_sum(module.top, module.relations)

    def inside(gens, e):
        return any(all(a <= b for a, b in zip(g, e)) for g in gens)

    m = module.ctx.num_vars
    total = 0
    for deg in itertools.count():
        layer = [
            e
            for e in itertools.product(range(deg + 1), repeat=m)
            if sum(e) == deg and inside(top.gens, e) and not inside(module.relations.gens, e)
        ]
        if not layer and deg > top.max_generator_degree():
            return total
        total += len(layer)


class TestSubquotientLength:
    @MANY
    @given(subquotient())
    def test_length_against_enumeration(self, module):
        got = module.length()
        zero = module.relations.contains_ideal(module.top)
        assert module.is_zero() == zero
        if zero:
            assert got == 0
        if krull_dim(module) <= 0:
            assert got == _enumerated_length(module)
        else:
            assert got == INFINITE


@st.composite
def candidate_scenario(draw):
    """A 2-variable family plus a type-(1,(1)) candidate with a 2-element
    J-block, built from source-ideal generators so membership always holds."""
    ctx = CONTEXTS[2]
    i1 = ideal(ctx, draw(st.lists(exponent_vectors(2, 2), min_size=1, max_size=2)))
    j_gens = draw(
        st.sampled_from(
            [
                [(1, 0), (0, 1)],
                [(2, 0), (0, 1)],
                [(1, 0), (0, 2)],
                [(2, 0), (1, 1), (0, 2)],
            ]
        )
    )
    j = ideal(ctx, j_gens)
    q = ideal(ctx, draw(st.lists(exponent_vectors(2, 2), min_size=0, max_size=1)))
    fam = IdealFamily(j, (i1,), QuotientModule(ctx, q))

    def pick(src: MonomialIdeal) -> Monomial:
        gens = [Monomial(g) for g in src.gens]
        a = draw(st.sampled_from(gens))
        b = draw(st.sampled_from(gens))
        return draw(st.sampled_from([a, a * b]))

    i_elem = pick(i1)
    j_elems = (pick(j), pick(j))
    return fam, i_elem, j_elems


class TestVerdictPermutationInvariance:
    @MANY
    @given(candidate_scenario())
    def test_swapping_within_a_source_block_preserves_the_verdict(self, scenario):
        fam, i_elem, (j1, j2) = scenario
        mt = MixedType(1, (1,))
        original = JointReductionCandidate(
            ((i_elem, 0), (j1, J_SOURCE), (j2, J_SOURCE)), mt
        )
        swapped = JointReductionCandidate(
            ((i_elem, 0), (j2, J_SOURCE), (j1, J_SOURCE)), mt
        )
        assert (
            verify_joint_reduction(fam, original).holds
            == verify_joint_reduction(fam, swapped).holds
        )


class TestOnePointCertificate:
    SHAPES = {
        "k0=1": (MixedType(1, (1,)), lambda i, j1, j2: ((i, 0), (j1, J_SOURCE), (j2, J_SOURCE))),
        "k0=0": (MixedType(0, (1,)), lambda i, j1, j2: ((i, 0), (j1, J_SOURCE))),
        "pure": (MixedType(0, (1,)), lambda i, j1, j2: ((i, 0),)),
    }

    @MANY
    @given(candidate_scenario(), st.sampled_from(sorted(SHAPES)), st.data())
    def test_base_point_agrees_with_the_window_and_proves_larger_points(self, scenario, shape, data):
        fam, i_elem, (j1, j2) = scenario
        mt, elements = self.SHAPES[shape]
        cand = JointReductionCandidate(elements(i_elem, j1, j2), mt)
        cert = verify_joint_reduction(fam, cand)
        assert cert == window_joint_reduction(fam, cand)
        if not cert.holds:
            return
        base = initial_offset(fam)
        axes = fam.d if cand.is_pure else fam.d + 1
        points = data.draw(st.lists(
            st.tuples(*[st.integers(base, base + 3)] * axes), min_size=1, max_size=3))
        for pt in points:
            deg = MultiDegree(0, pt) if cand.is_pure else MultiDegree(pt[0], pt[1:])
            lhs = ideal_sum(fam.piece(deg), fam.module.relations)
            assert first_outside_sum(_rhs_parts(fam, cand, deg), lhs) is None
