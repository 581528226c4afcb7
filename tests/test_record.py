"""The package's value types share one immutable Record base.

A Record behaves as a frozen dataclass did: positional construction of
exactly its annotated fields, no assignment or deletion, equality within
one class, hash(x) == hash(field tuple) (so set and dict orders, and with
them the report bytes, are those of a frozen dataclass) and the
Name(f=v, ...) repr.  It generates no code per class, so importing the
package loads neither dataclasses nor inspect.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import newtonmu
from newtonmu.fans import Fan, LatticeCone
from newtonmu.newton_number import NewtonVolumeVector
from newtonmu.polyhedra import SupportSet, support_set
from oracles import cone_from_rays


def test_fields_cannot_be_set_or_deleted():
    s = support_set(2, [(2, 0), (0, 3)])
    with pytest.raises(AttributeError):
        s.dim = 3
    with pytest.raises(AttributeError):
        s.other = 1
    with pytest.raises(AttributeError):
        del s.points
    assert s.dim == 2


def test_hash_is_the_hash_of_the_field_tuple():
    s = support_set(2, [(2, 0), (0, 3)])
    assert SupportSet._fields == ("dim", "points")
    assert s._astuple(s) == (s.dim, s.points)
    assert hash(s) == hash((s.dim, s.points))
    v = NewtonVolumeVector((F(1), F(2)))
    assert NewtonVolumeVector._fields == ("V",)
    assert hash(v) == hash(((F(1), F(2)),))


def test_equality_is_per_class():
    rays = ((0, 1), (1, 0))
    cone = LatticeCone(2, rays)
    assert cone == LatticeCone(2, rays) and cone != LatticeCone(2, rays[:1])
    # equal field tuples in two classes are two different values
    assert cone != SupportSet(2, rays) and SupportSet(2, rays) != cone
    assert cone.__eq__(SupportSet(2, rays)) is NotImplemented
    assert cone != (2, rays)


def test_repr_keeps_the_dataclass_format():
    s = support_set(2, [(2, 0), ("1/2", 1)])
    assert repr(s) == ("SupportSet(dim=2, points=((Fraction(1, 2), "
                       "Fraction(1, 1)), (Fraction(2, 1), Fraction(0, 1))))")
    assert repr(NewtonVolumeVector((F(1), F(3, 2)))) == (
        "NewtonVolumeVector(V=(Fraction(1, 1), Fraction(3, 2)))")


def test_wrong_arity_is_a_type_error():
    with pytest.raises(TypeError):
        SupportSet(2)
    with pytest.raises(TypeError):
        SupportSet(2, (), ())
    with pytest.raises(TypeError):
        NewtonVolumeVector(V=())


def test_fan_post_init_dedups_and_sorts_maximal():
    a = cone_from_rays(2, [(1, 0), (1, 1)])
    b = cone_from_rays(2, [(0, 1), (1, 1)])
    fan = Fan(2, (b, a, b))
    assert fan.maximal == (b, a)    # by (number of rays, rays)
    assert fan == Fan(2, [a, b]) and hash(fan) == hash((2, (b, a)))


def test_post_init_wrapped_later_still_runs(monkeypatch):
    """A wrapper set on __post_init__ after the class was made, as a tracer
    sets one, runs on construction."""
    calls = []
    check = Fan.__post_init__

    def traced(self):
        calls.append(self.ambient_dim)
        check(self)

    monkeypatch.setattr(Fan, "__post_init__", traced)
    cone = cone_from_rays(2, [(1, 0), (0, 1)])
    assert Fan(2, (cone, cone)).maximal == (cone,) and calls == [2]


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(newtonmu.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import newtonmu.cli; import sys; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert "newtonmu.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded
