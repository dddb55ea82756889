"""The record decorator behind the package's value types: the subset of
frozen-dataclass behaviour the package relies on."""

import copy
import pickle
from fractions import Fraction

import pytest

from ncharm import (
    Degree4Coeffs,
    Degree4Region,
    PointVerdict,
    SampleConfig,
    degree4_inequalities,
    extract,
    parse,
)
from ncharm._record import record


@record
class Pair:
    a: int
    b: tuple = ()


@record(eq=False)
class Tag:
    kind: str


def test_fields_in_annotation_order_with_defaults():
    assert Pair.__match_args__ == ("a", "b")
    assert (Pair(1).a, Pair(1).b) == (1, ())
    assert Pair(1, (2,)) == Pair(b=(2,), a=1)
    assert SampleConfig().sizes == (1, 2, 3, 4)
    assert SampleConfig(3, h_samples=7) == SampleConfig(seed=3, h_samples=7)


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing required argument 'a'"),
    ((1,), {"c": 2}, "unexpected keyword argument 'c'"),
    ((1,), {"a": 2}, "multiple values for argument 'a'"),
    ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
])
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_frozen():
    p = Pair(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'a'"):
        p.a = 2
    with pytest.raises(AttributeError, match="cannot assign to field 'c'"):
        p.c = 2
    with pytest.raises(AttributeError, match="cannot delete field 'a'"):
        del p.a
    assert p == Pair(1)


def test_eq_and_hash_follow_the_fields_of_one_class():
    assert Pair(1, (2,)) == Pair(1, (2,)) and hash(Pair(1, (2,))) == hash(Pair(1, (2,)))
    assert Pair(1) != Pair(2) and Pair(1) != (1, ())
    assert len({Pair(1), Pair(1), Pair(2)}) == 2
    # A cached property lives in the instance dict but is not a field.
    a, b = extract(parse("h*x1*h + h*x2^2*h", 2)), extract(parse("h*x1*h + h*x2^2*h", 2))
    a.Z
    assert "Z" in vars(a) and a == b and hash(a) == hash(b)


def test_eq_false_keeps_identity():
    t = Tag("x")
    assert t == t and t != Tag("x")
    assert PointVerdict("Unknown") != PointVerdict("Unknown")
    assert len({Tag("x"), Tag("x")}) == 2


def test_repr_matches_the_dataclass_form():
    region = degree4_inequalities(Degree4Coeffs(1, 0, 0, 0, 0, 0))
    assert repr(region) == (
        "Degree4Region(kind='Boundary', G=Fraction(1, 1), Hh=Fraction(1, 1), "
        "Jj=Fraction(0, 1), K=Fraction(1, 1))"
    )
    assert repr(Pair(1)) == "Pair(a=1, b=())"


def test_match_args():
    match degree4_inequalities(Degree4Coeffs(1, 0, 0, 0, 0, 0)):
        case Degree4Region(kind, G, Hh, Jj, K):
            assert (kind, G, Hh, Jj, K) == ("Boundary", 1, 1, 0, 1)
        case _:
            pytest.fail("Degree4Region did not match its fields")


def test_post_init_is_resolved_at_call_time(monkeypatch):
    assert Degree4Coeffs(1, 2, 3, 4, 5, "1/2").b6 == Fraction(1, 2)
    seen = []
    check = Degree4Coeffs.__post_init__
    monkeypatch.setattr(Degree4Coeffs, "__post_init__", lambda c: seen.append(c) or check(c))
    c = Degree4Coeffs(1, 0, 0, 0, 0, 0)
    assert seen == [c] and c.b1 == Fraction(1)


def test_copy_and_pickle_round_trip():
    rep = extract(parse("h*x1*h + x1*h^2*x1", 2))
    for clone in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert clone == rep and clone is not rep
        assert clone.Z == rep.Z
    cfg = SampleConfig(seed=4, sizes=(2, 3))
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert pickle.loads(pickle.dumps(Pair(1, (2,)))) == Pair(1, (2,))
