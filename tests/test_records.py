"""The immutable records against frozen dataclass twins.

The package writes its records out by hand (``monomials.Record``).  Each
record here has a twin made by ``dataclasses.make_dataclass(frozen=True)``
with the same fields, defaults and compare/repr/init flags, which gives the
behaviour the record must keep: its constructor's signature, its repr, its
equality and hash (the hash of the tuple of compared fields, so hash values
and set orders match the twin's), its refusal of assignment and deletion, its copies.
The validations are checked against the messages they have always given.
"""

import copy
import dataclasses
import inspect
import pickle
from dataclasses import field

import pytest

from multimult.hilbert import FitResult, IdealFamily, MixedType, MultiDegree, interpolate
from multimult.instances import InstanceFile
from multimult.koszul import EulerValue
from multimult.monomials import (
    ContextMismatchError,
    Monomial,
    QuotientModule,
    Record,
    RingContext,
    ideal,
)
from multimult.multiplicity import VerificationReport, Verdict
from multimult.reductions import (
    J_SOURCE,
    ContainmentCertificate,
    JointReductionCandidate,
    PoolPolicy,
    ReesDatum,
    verify_joint_reduction,
)

C2 = RingContext(2)
C3 = RingContext(3)
M2 = ideal(C2, [(1, 0), (0, 1)])
X1 = ideal(C2, [(1, 0)])
FREE = QuotientModule.free(C2)
CUT = QuotientModule(C2, ideal(C2, [(0, 3)]))
FAM = IdealFamily(M2, (M2,), FREE)
T01 = MixedType(0, (1,))
CAND = JointReductionCandidate(((Monomial((1, 0)), 0), (Monomial((0, 1)), J_SOURCE)), T01)
CAND_2 = JointReductionCandidate(((Monomial((0, 1)), 0), (Monomial((1, 0)), J_SOURCE)), T01)
FIT = interpolate(FAM, "P")


def _certify(self):
    object.__setattr__(self, "certificate", verify_joint_reduction(self.fam, self.cand))


def _fields(*specs):
    return [spec if isinstance(spec, tuple) else (spec, object) for spec in specs]


#: name -> (record, twin, arguments, arguments that differ in a compared
#: field, arguments that differ only where nothing is compared or None).
CASES = {
    "RingContext": (
        RingContext,
        dataclasses.make_dataclass("RingContext", _fields(
            "num_vars",
            ("memo", dict, field(default_factory=dict, init=False, compare=False, repr=False)),
        ), frozen=True),
        (2,), (3,), None,
    ),
    "Monomial": (
        Monomial,
        dataclasses.make_dataclass("Monomial", _fields("exponents"), frozen=True),
        ((1, 2),), ((2, 1),), None,
    ),
    "QuotientModule": (
        QuotientModule,
        dataclasses.make_dataclass("QuotientModule", _fields(
            "ctx", "relations", ("top", object, None),
        ), frozen=True),
        (C2, M2, X1), (C2, X1, X1), None,
    ),
    "MultiDegree": (
        MultiDegree,
        dataclasses.make_dataclass("MultiDegree", _fields("n0", "n"), frozen=True),
        (5, (5, 5)), (5, (5, 4)), None,
    ),
    "MixedType": (
        MixedType,
        dataclasses.make_dataclass("MixedType", _fields("k0", "k"), frozen=True),
        (0, (1,)), (1, (0,)), None,
    ),
    "IdealFamily": (
        IdealFamily,
        dataclasses.make_dataclass("IdealFamily", _fields("j", "ideals", "module"), frozen=True),
        (M2, (M2,), FREE), (M2, (X1,), FREE), None,
    ),
    "FitResult": (
        FitResult,
        dataclasses.make_dataclass("FitResult", _fields(
            "poly", "base", "extent", "band_base", "band_extent", "values",
        ), frozen=True),
        (FIT.poly, 3, 2, 5, 2, FIT.values), (FIT.poly, 4, 2, 5, 2, FIT.values), None,
    ),
    "JointReductionCandidate": (
        JointReductionCandidate,
        dataclasses.make_dataclass("JointReductionCandidate", _fields(
            "elements", "declared_type",
        ), frozen=True),
        (CAND.elements, T01), (CAND_2.elements, T01), None,
    ),
    "ContainmentCertificate": (
        ContainmentCertificate,
        dataclasses.make_dataclass("ContainmentCertificate", _fields(
            "holds", "window_base", "window_extent", ("witness", object, None),
        ), frozen=True),
        (False, 1, 2, ((1, 1), Monomial((1, 1)))), (True, 1, 2), None,
    ),
    "ReesDatum": (
        ReesDatum,
        dataclasses.make_dataclass("ReesDatum", _fields(
            "fam", "cand", ("certificate", object, field(init=False, compare=False)),
        ), frozen=True, namespace={"__post_init__": _certify}),
        (FAM, CAND), (FAM, CAND_2), None,
    ),
    "PoolPolicy": (
        PoolPolicy,
        dataclasses.make_dataclass("PoolPolicy", _fields(
            ("max_degree", int, 2), ("budget", int, 2000),
        ), frozen=True),
        (), (3,), None,
    ),
    "InstanceFile": (
        InstanceFile,
        dataclasses.make_dataclass("InstanceFile", _fields(
            "name", "variables", "family", "ideal_names", "candidates", "requests", "raw",
            ("_data", dict, field(default_factory=dict, init=False, repr=False, compare=False)),
        ), frozen=True),
        ("a", ("x", "y"), FAM, ("I1",), {"c": CAND}, ({"command": "mixed"},), {"J": []}),
        ("b", ("x", "y"), FAM, ("I1",), {"c": CAND}, ({"command": "mixed"},), {"J": []}),
        None,
    ),
    "EulerValue": (
        EulerValue,
        dataclasses.make_dataclass("EulerValue", _fields(
            "value", "provenance", ("certified", bool, True),
        ), frozen=True),
        (0, {"window_base": 3}), (1, {"window_base": 3}), None,
    ),
    "VerificationReport": (
        VerificationReport,
        dataclasses.make_dataclass("VerificationReport", _fields(
            "claim_id", "instance", "left", "right", "hypotheses", "verdict",
        ), frozen=True),
        ("thm", "a", 1, 1, (("h", True),), Verdict.EQUAL),
        ("thm", "a", 1, 2, (("h", True),), Verdict.MISMATCH),
        None,
    ),
}


def outcome(fn, *args):
    """What a call gives: its value, or the type of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raised", type(exc)


def parameters(cls):
    """The constructor's parameters as (name, kind, default); a dataclass
    default factory is the default None, which the hand-written record
    replaces by a fresh value."""
    out = []
    for p in inspect.signature(cls).parameters.values():
        default = p.default
        if repr(default) == "<factory>":
            default = None
        out.append((p.name, p.kind, default))
    return out


def test_every_record_has_a_twin():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(CASES)


@pytest.mark.parametrize("name", CASES)
class TestAgainstTwin:
    def test_signature(self, name):
        record, twin, *_ = CASES[name]
        assert parameters(record) == parameters(twin)

    def test_repr(self, name):
        record, twin, args, other, _ = CASES[name]
        for values in (args, other):
            assert repr(record(*values)) == repr(twin(*values))

    def test_eq_and_hash(self, name):
        record, twin, args, other, hidden = CASES[name]
        cases = [(args, args), (args, other), (other, args)]
        if hidden is not None:
            cases.append((args, hidden))
        for a, b in cases:
            assert outcome(lambda: record(*a) == record(*b)) == outcome(
                lambda: twin(*a) == twin(*b))
            assert outcome(lambda: record(*a) != record(*b)) == outcome(
                lambda: twin(*a) != twin(*b))
        for values in (args, other):
            assert outcome(hash, record(*values)) == outcome(hash, twin(*values))

    def test_unequal_to_another_class(self, name):
        record, twin, args, *_ = CASES[name]
        made = record(*args)
        assert made != twin(*args) and twin(*args) != made
        assert made.__eq__(object()) is NotImplemented

    def test_assignment_and_deletion_refused(self, name):
        record, twin, args, *_ = CASES[name]
        made, expected = record(*args), twin(*args)
        for attr in [f.name for f in dataclasses.fields(twin)] + ["unknown"]:
            for act in (lambda obj: setattr(obj, attr, 1), lambda obj: delattr(obj, attr)):
                with pytest.raises(AttributeError) as got:
                    act(made)
                with pytest.raises(AttributeError) as want:
                    act(expected)
                assert str(got.value) == str(want.value)

    def test_copies(self, name):
        record, twin, args, *_ = CASES[name]
        made, expected = record(*args), twin(*args)
        for clone in (copy.copy, copy.deepcopy):
            (got, copied), (want, twin_copied) = outcome(clone, made), outcome(clone, expected)
            assert got == want
            if got == "value":
                assert type(copied) is record and repr(copied) == repr(made)
                assert outcome(lambda: copied == made) == outcome(lambda: twin_copied == expected)

    def test_fields_hold_the_arguments(self, name):
        record, twin, args, *_ = CASES[name]
        made, expected = record(*args), twin(*args)
        given = [f.name for f in dataclasses.fields(twin) if f.init][:len(args)]
        for attr, value in zip(given, args):
            assert getattr(made, attr) is value
        for f in dataclasses.fields(twin):
            if f.name not in given:
                assert getattr(made, f.name) == getattr(expected, f.name)


def test_equal_records_hash_and_order_as_twins():
    degrees = [MultiDegree(n0, (a, b)) for n0 in range(3) for a in range(3) for b in range(3)]
    _, twin, *_ = CASES["MultiDegree"]
    twins = [twin(d.n0, d.n) for d in degrees]
    assert [hash(d) for d in degrees] == [hash(t) for t in twins]
    assert [d.as_tuple() for d in set(degrees)] == [(t.n0, *t.n) for t in set(twins)]


def test_pickle_round_trip():
    for made in (Monomial((1, 2)), MultiDegree(5, (5, 5)), RingContext(3), PoolPolicy(3)):
        assert pickle.loads(pickle.dumps(made)) == made


def test_defaults_are_kept():
    # The twins check the other defaults; these differ from a twin's or are
    # passed the way the command line passes them.
    assert QuotientModule(C2, M2).top.is_unit()
    assert PoolPolicy(**{"budget": 5}) == PoolPolicy(2, 5)
    assert ContainmentCertificate(True, 1, 2).witness is None
    assert RingContext(2).memo == {} and RingContext(2).memo is not RingContext(2).memo


def test_uncompared_fields_are_kept():
    datum = ReesDatum(FAM, CAND)
    assert datum.certificate == verify_joint_reduction(FAM, CAND)
    assert "certificate=" in repr(datum)
    filled = RingContext(2)
    filled.memo["held"] = 1
    assert "memo" not in repr(filled) and repr(filled) == repr(RingContext(2))
    assert filled == RingContext(2) and hash(filled) == hash(RingContext(2))
    inst = InstanceFile(*CASES["InstanceFile"][2])
    assert inst._data == {} and "_data" not in repr(inst)


VALIDATIONS = [
    (lambda: Monomial((1, -1)), ValueError, "negative exponent in (1, -1)"),
    (lambda: MultiDegree(-1, (0,)), ValueError, "multidegree entries must be non-negative"),
    (lambda: MultiDegree(0, (0, -1)), ValueError, "multidegree entries must be non-negative"),
    (lambda: MixedType(-1, (0,)), ValueError, "type entries must be non-negative"),
    (lambda: MixedType(0, (1, -1)), ValueError, "type entries must be non-negative"),
    (lambda: RingContext(0), ValueError, "need at least one variable"),
    (lambda: QuotientModule(C3, M2), ContextMismatchError,
     "module parts live in a different ring"),
    (lambda: QuotientModule(C2, M2, ideal(C3, [(1, 0, 0)])), ContextMismatchError,
     "module parts live in a different ring"),
    (lambda: IdealFamily(M2, (), FREE), ValueError, "need at least one ideal I_i"),
    (lambda: IdealFamily(M2, (ideal(C3, [(1, 0, 0)]),), FREE), ContextMismatchError,
     "family parts live in different rings"),
    (lambda: IdealFamily(X1, (M2,), CUT), ValueError, "J must contain a power of every variable"),
    (lambda: JointReductionCandidate(((Monomial((1, 0)), "K"),), T01), ValueError,
     "unknown source tag 'K'"),
    (lambda: JointReductionCandidate(((Monomial((1, 0)), 1),), T01), ValueError,
     "unknown source tag 1"),
    (lambda: JointReductionCandidate(((Monomial((0, 1)), J_SOURCE),), T01), ValueError,
     "I-sourced element counts do not match the declared type"),
    (lambda: JointReductionCandidate(((Monomial((1, 0)), 0),) + ((Monomial((0, 1)), J_SOURCE),) * 2,
                                     T01), ValueError,
     "J-sourced element count must be k0+1 (or 0 for pure candidates)"),
    (lambda: ContainmentCertificate(False, 1, 2), ValueError,
     "a failing certificate needs a witness"),
]


@pytest.mark.parametrize("make, kind, message", VALIDATIONS)
def test_validation(make, kind, message):
    with pytest.raises(kind) as got:
        make()
    assert type(got.value) is kind and str(got.value) == message
