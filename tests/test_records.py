"""The library's record types keep the value semantics of frozen
dataclasses: construction with defaults, canonical fields and refusals,
equality only within one class, the hash of the field tuple, the repr,
immutability, pickle and copy round trips, and the parity order of
kneading sequences."""

import copy
import pickle
from fractions import Fraction

import pytest

from skewtent.curves import (IsentropePoint, KneadingClassField, RasterGrid, ScanRoot, ThetaSignField,
                             ThetaValueField)
from skewtent.symbolic import GapSeq, KneadingSeq, parse_seq
from skewtent.tentmap import TentParams
from skewtent.theta import Quadratic2D, ThetaSpec, ThetaValue, theta_eval

GAPS = GapSeq((2,), (1, 0))
SPEC = ThetaSpec(GAPS)
RLC = parse_seq("RLC")

# one instance of each record type, its fields in order, and its repr
RECORDS = [
    (KneadingSeq(("R", "L"), ("R", "L", "R", "L")), {"pre": "", "period": "RL"},
     "KneadingSeq(pre='', period='RL')"),
    (KneadingSeq(("R", "L")), {"pre": "RL", "period": None},
     "KneadingSeq(pre='RL', period=None)"),
    (GapSeq((2, 1)), {"head": (2, 1), "period": (0,)}, "GapSeq(head=(2, 1), period=(0,))"),
    (GAPS, {"head": (2,), "period": (1, 0)}, "GapSeq(head=(2,), period=(1, 0))"),
    (TentParams(0.6, 0.8), {"alpha": 0.6, "beta": 0.8}, "TentParams(alpha=0.6, beta=0.8)"),
    # exact parameters; this entry keeps the index, and so the test id, of each record after it
    (TentParams(Fraction(1, 2), Fraction(3, 4)), {"alpha": Fraction(1, 2), "beta": Fraction(3, 4)},
     "TentParams(alpha=Fraction(1, 2), beta=Fraction(3, 4))"),
    (SPEC, {"gaps": GAPS, "source": None},
     "ThetaSpec(gaps=GapSeq(head=(2,), period=(1, 0)), source=None)"),
    (ThetaSpec.from_seq(RLC), {"gaps": GapSeq((), (1, 0)), "source": RLC},
     "ThetaSpec(gaps=GapSeq(head=(), period=(1, 0)), source=KneadingSeq(pre='RL', period=None))"),
    (ThetaValue(0.25, 1e-16, 3), {"value": 0.25, "error_bound": 1e-16, "terms_used": 3},
     "ThetaValue(value=0.25, error_bound=1e-16, terms_used=3)"),
    (Quadratic2D(1.0, -0.5, 2.0), {"a": 1.0, "b": -0.5, "c": 2.0}, "Quadratic2D(a=1.0, b=-0.5, c=2.0)"),
    (IsentropePoint(0.5, 0.75, -0.125, True),
     {"alpha": 0.5, "beta": 0.75, "residual_theta": -0.125, "kneading_ok": True},
     "IsentropePoint(alpha=0.5, beta=0.75, residual_theta=-0.125, kneading_ok=True)"),
    (ScanRoot(0.7, "less"), {"beta": 0.7, "relation": "less"}, "ScanRoot(beta=0.7, relation='less')"),
    (ThetaValueField(SPEC), {"spec": SPEC},
     "ThetaValueField(spec=ThetaSpec(gaps=GapSeq(head=(2,), period=(1, 0)), source=None))"),
    (ThetaSignField(SPEC), {"spec": SPEC},
     "ThetaSignField(spec=ThetaSpec(gaps=GapSeq(head=(2,), period=(1, 0)), source=None))"),
    (KneadingClassField(), {"depth": 8}, "KneadingClassField(depth=8)"),
    (RasterGrid((0.5, 0.6), (0.7, 0.8), 2, 2, (1.0, 2.0, 3.0, -1.0), "f"),
     {"alpha_range": (0.5, 0.6), "beta_range": (0.7, 0.8), "width": 2, "height": 2,
      "values": (1.0, 2.0, 3.0, -1.0), "field": "f"},
     "RasterGrid(alpha_range=(0.5, 0.6), beta_range=(0.7, 0.8), width=2, height=2, "
     "values=(1.0, 2.0, 3.0, -1.0), field='f')"),
]
IDS = [f"{type(obj).__name__}-{i}" for i, (obj, _, _) in enumerate(RECORDS)]


def test_every_record_type_is_covered():
    assert len({type(obj) for obj, _, _ in RECORDS}) == 12


@pytest.mark.parametrize("obj, fields, text", RECORDS, ids=IDS)
def test_fields_equality_hash_and_repr(obj, fields, text):
    cls = type(obj)
    assert {name: getattr(obj, name) for name in fields} == fields
    assert cls(*fields.values()) == obj
    assert cls(**fields) == obj
    assert not cls(*fields.values()) != obj
    assert hash(obj) == hash(tuple(fields.values()))
    assert repr(obj) == text
    assert obj != tuple(fields.values())


@pytest.mark.parametrize("obj, fields, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(obj, fields, text):
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == text


@pytest.mark.parametrize("obj, fields, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(obj, fields, text):
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(obj)
        assert twin == obj
        assert hash(twin) == hash(obj)
        assert repr(twin) == text


def test_defaults():
    assert GapSeq((3, 1)).period == (0,)
    assert GapSeq(head=(3, 1)) == GapSeq((3, 1), (0,))
    assert KneadingSeq(("R", "L")).period is None
    assert KneadingSeq(pre=("R", "L")) == KneadingSeq(("R", "L"), None)
    assert ThetaSpec(GAPS).source is None
    assert ThetaSpec(gaps=GAPS) == ThetaSpec(GAPS, None)
    assert KneadingClassField().depth == 8


def test_construction_refuses_wrong_arguments():
    with pytest.raises(TypeError):
        TentParams(0.6)
    with pytest.raises(TypeError):
        TentParams(0.6, 0.8, 0.9)
    with pytest.raises(TypeError):
        TentParams(0.6, gamma=0.8)
    with pytest.raises(TypeError):
        ScanRoot(0.7, beta=0.8)


def test_canonical_fields():
    seq = KneadingSeq(["R", "R", "L"], ["L", "L", "L", "L"])
    assert (seq.pre, seq.period) == ("RR", "L")
    assert seq == KneadingSeq(("R", "R"), ("L",))
    assert hash(seq) == hash(KneadingSeq(("R", "R"), ("L",)))
    assert seq.text(7) == "RRLLLLL"
    assert KneadingSeq(["R", "L", "R"], ["L", "R", "L", "R"]) == KneadingSeq((), ("R", "L"))
    assert KneadingSeq(["R", "L"]).pre == "RL"
    gaps = GapSeq([3, 1, 2, 2], [2, 2])
    assert (gaps.head, gaps.period) == ((3, 1), (2,))
    assert GapSeq(["2"], [1]).head == (2,)


REFUSALS = [
    (lambda: KneadingSeq(("X",)), ValueError, "preperiod may only contain L and R, got 'X'"),
    (lambda: KneadingSeq(("R",), ()), ValueError, "period must be nonempty"),
    (lambda: KneadingSeq(("R",), ("Q",)), ValueError, "period may only contain L and R, got 'Q'"),
    (lambda: GapSeq((1,), ()), ValueError, "gap period must be nonempty"),
    (lambda: GapSeq((0, 1)), ValueError, "first gap must be positive"),
    (lambda: GapSeq((2, 5)), ValueError, "gaps may not exceed the first gap"),
    (lambda: GapSeq((2, -1)), ValueError, "gaps must be nonnegative"),
    (lambda: TentParams(0, 0.5), ValueError, "alpha must lie in (0,1), got 0"),
    (lambda: TentParams(0.5, 1.5), ValueError, "beta must lie in (0,1], got 1.5"),
    (lambda: TentParams(float("nan"), 0.5), ValueError, "alpha must lie in (0,1), got nan"),
    (lambda: TentParams(0.5, float("nan")), ValueError, "beta must lie in (0,1], got nan"),
]


@pytest.mark.parametrize("make, kind, text", REFUSALS)
def test_refusals_keep_their_type_and_text(make, kind, text):
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is kind
    assert str(info.value) == text


def test_equality_only_within_one_class():
    assert ThetaSignField(SPEC) != ThetaValueField(SPEC)
    assert ThetaValueField(SPEC) != ThetaSignField(SPEC)
    assert TentParams(0.6, 0.8) != (0.6, 0.8)
    assert ScanRoot(0.7, "less") != (0.7, "less")
    assert KneadingClassField(8) != 8
    assert len({ThetaSignField(SPEC), ThetaValueField(SPEC), ThetaSignField(ThetaSpec(GAPS))}) == 2


def test_copies_keep_working():
    seq = KneadingSeq(("R", "L"), ("R", "L", "L"))
    for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert twin.text(12) == seq.text(12)
    spec = ThetaSpec.from_seq(parse_seq("RLLRC"))
    before = theta_eval(spec, 0.6, 0.8)  # the spec's evaluation plan is made here
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert theta_eval(twin, 0.6, 0.8) == before
        assert twin.to_kneading() == spec.to_kneading()


def test_kneading_order():
    low, high = parse_seq("RLC"), parse_seq("RLLC")
    assert low < high and low <= high
    assert not high < low and not high <= low
    assert high > low and high >= low
    assert low <= parse_seq("RLC") and not low < parse_seq("RLC")
    assert sorted([parse_seq("RL(R)"), high, low, parse_seq("(RL)")]) == [
        parse_seq("(RL)"), parse_seq("RL(R)"), low, high]


def test_records_bind_their_fields_as_a_call_would():
    # a record that neither checks nor derives a slot takes Record's
    # constructor: the fields by position, then the rest by name, each once
    point = IsentropePoint(0.5, 0.75, -0.125, True)
    assert IsentropePoint(0.5, 0.75, kneading_ok=True, residual_theta=-0.125) == point
    assert IsentropePoint(kneading_ok=True, beta=0.75, alpha=0.5, residual_theta=-0.125) == point
    assert KneadingClassField(depth=3) == KneadingClassField(3)
    for make in (lambda: IsentropePoint(0.5, 0.75, -0.125),  # a field missing
                 lambda: IsentropePoint(0.5, 0.75, -0.125, True, 1),  # one too many
                 lambda: IsentropePoint(0.5, 0.75, -0.125, ok=True),  # an unknown name
                 lambda: IsentropePoint(0.5, 0.75, -0.125, True, alpha=0.5),  # alpha twice
                 lambda: ScanRoot(relation="less"),
                 lambda: ScanRoot(),
                 lambda: KneadingClassField(8, depth=8)):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(TypeError) as info:
        ScanRoot(0.7, beta=0.8)
    assert str(info.value) == "ScanRoot() takes the fields beta, relation, got 1 by position and beta by name"
