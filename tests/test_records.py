"""``corprod.records`` against the standard library's ``dataclass``.

Every test builds the same class body twice, once with ``record`` and
``records.field`` and once with ``dataclasses.dataclass`` and
``dataclasses.field``, and requires the two to behave alike.  The guard
at the end requires that no class in the package carries a method made
from source text at run time (``exec``/``eval``, file name ``<string>``).
"""

import dataclasses
import functools
import importlib
import inspect
import pkgutil

import pytest

import corprod
from corprod import records

FLAVOURS = {"record": (records.record, records.field), "dataclass": (dataclasses.dataclass, dataclasses.field)}


def point_class(flavour, **params):
    decorate, field = FLAVOURS[flavour]

    @decorate(**params)
    class Point:
        x: int
        y: int = 0
        items: list = field(default_factory=list, hash=False)
        cache: dict = field(default_factory=dict, repr=False, compare=False)

    return Point


def twins(**params):
    return point_class("record", **params), point_class("dataclass", **params)


def raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the test compares what each twin raises
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("frozen", [True, False])
def test_repr_matches(frozen):
    for cls in twins(frozen=frozen):
        assert cls.__qualname__ == "point_class.<locals>.Point"
    rec, dc = twins(frozen=frozen)
    for args in ((1,), (1, 2), (1, 2, [3, "a"]), (1, 2, [], {"k": 1})):
        assert repr(rec(*args)) == repr(dc(*args))
    assert repr(rec(x=5, items=[1])) == repr(dc(x=5, items=[1])) == (
        "point_class.<locals>.Point(x=5, y=0, items=[1])"
    )


def test_eq_and_hash_match_with_fields_left_out():
    rec, dc = twins(frozen=True)
    # cache is left out of == and hash, items out of hash alone
    args = [(1, 2, [3], {}), (1, 2, [3], {"k": 1}), (1, 2, [4], {}), (1, 3, [3], {}), (2, 2, [3], {})]
    for a in args:
        assert hash(rec(*a)) == hash(dc(*a))
        for b in args:
            assert (rec(*a) == rec(*b)) == (dc(*a) == dc(*b))
            assert (rec(*a) != rec(*b)) == (dc(*a) != dc(*b))
    assert rec(1, 2, [3]) == rec(1, 2, [3], {"k": 1})
    assert rec(1, 2, [3]) != rec(1, 2, [4]) and hash(rec(1, 2, [3])) == hash(rec(1, 2, [4]))
    # another class, even with the same fields, is never equal
    assert rec(1) != dc(1) and rec(1).__eq__(dc(1)) is NotImplemented


def test_frozen_records_refuse_assignment_and_deletion():
    for cls in twins(frozen=True):
        p = cls(1)
        for change in (
            lambda: setattr(p, "x", 2),
            lambda: setattr(p, "other", 2),
            lambda: delattr(p, "y"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                change()
        assert (p.x, p.y) == (1, 0)
    rec, dc = (cls(1) for cls in twins(frozen=True))
    assert raised(lambda: setattr(rec, "x", 2)) == raised(lambda: setattr(dc, "x", 2))
    assert raised(lambda: delattr(rec, "x")) == raised(lambda: delattr(dc, "x"))


@pytest.mark.parametrize("frozen", [True, False])
def test_bad_arguments_raise_type_error(frozen):
    for cls in twins(frozen=frozen):
        for call in (
            lambda: cls(),                      # missing
            lambda: cls(y=2),                   # missing
            lambda: cls(1, z=2),                # unknown
            lambda: cls(1, x=1),                # repeated
            lambda: cls(1, 2, y=3),             # repeated
            lambda: cls(1, 2, [], {}, 5),       # too many
        ):
            with pytest.raises(TypeError):
                call()


@pytest.mark.parametrize("frozen", [True, False])
def test_keywords_and_defaults_fill_the_same_fields(frozen):
    rec, dc = twins(frozen=frozen)
    for cls in (rec, dc):
        assert cls(x=1, items=[2]) == cls(1, 0, [2]) == cls(1, items=[2], y=0)
        # a plain default stays on the class; a field() without a default does not
        assert cls.y == 0 and not hasattr(cls, "items") and not hasattr(cls, "cache")


@pytest.mark.parametrize("frozen", [True, False])
def test_each_default_factory_makes_a_fresh_object(frozen):
    rec, _ = twins(frozen=frozen)
    a, b = rec(1), rec(1)
    assert a.items == [] and a.cache == {}
    assert a.items is not b.items and a.cache is not b.cache
    given = [1]
    assert rec(1, 2, given).items is given


def test_a_non_frozen_eq_record_is_unhashable():
    for cls in twins():
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls(1))
        p = cls(1)
        p.x = 2
        assert p == cls(2)


@pytest.mark.parametrize("frozen", [True, False])
def test_an_eq_false_record_compares_by_identity(frozen):
    for cls in twins(frozen=frozen, eq=False):
        a, b = cls(1), cls(1)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert cls.__eq__ is object.__eq__


def written_class(flavour, **params):
    decorate, field = FLAVOURS[flavour]

    @decorate(**params)
    class Keyed:
        key: int
        payload: list = field(default_factory=list)

        def __eq__(self, other):
            return isinstance(other, Keyed) and self.key == other.key

        def __hash__(self):
            return hash(("keyed", self.key))

    return Keyed


def eq_only_class(flavour):
    decorate, _ = FLAVOURS[flavour]

    @decorate(frozen=True)
    class EqOnly:
        key: int
        other: int

        def __eq__(self, other):
            return isinstance(other, EqOnly) and self.key == other.key

    return EqOnly


@pytest.mark.parametrize("params", [{}, {"frozen": True}, {"frozen": True, "eq": False}])
def test_a_written_eq_and_hash_are_kept(params):
    for flavour in FLAVOURS:
        cls = written_class(flavour, **params)
        # the payload is a list: a generated hash would raise
        assert cls(1, [1]) == cls(1, [2]) and cls(1) != cls(2)
        assert hash(cls(1, [1])) == hash(("keyed", 1))


def test_a_written_eq_alone_gets_the_generated_hash_when_frozen():
    rec, dc = (eq_only_class(flavour) for flavour in FLAVOURS)
    assert rec(1, 2) == rec(1, 3)
    assert hash(rec(1, 2)) == hash(dc(1, 2)) == hash((1, 2))


def test_post_init_runs_after_the_fields_are_set():
    made = {}
    for flavour, (decorate, _) in FLAVOURS.items():

        @decorate(frozen=True)
        class Normalized:
            factors: tuple = ()

            def __post_init__(self):
                object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))

        assert Normalized(["2", 4.0]).factors == (2, 4) == Normalized(factors=[2, 4]).factors
        assert Normalized().factors == ()
        made[flavour] = Normalized([2, 4])
    # one field: hashed as a 1-tuple, as the standard library does
    assert hash(made["record"]) == hash(made["dataclass"]) == hash(((2, 4),))
    assert repr(made["record"]) == repr(made["dataclass"])


def test_a_field_without_a_default_after_one_with_is_refused():
    with pytest.raises(TypeError, match="non-default field 'b'"):

        @records.record()
        class Bad:
            a: int = 0
            b: int


def corprod_classes():
    for info in pkgutil.iter_modules(corprod.__path__):
        module = importlib.import_module(f"corprod.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def code_of(value):
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        return [f.__code__ for f in (value.fget, value.fset, value.fdel) if f is not None]
    if isinstance(value, functools.cached_property):
        return [value.func.__code__]
    return [value.__code__] if hasattr(value, "__code__") else []


def test_no_corprod_class_has_a_method_made_from_source_text():
    classes = list(corprod_classes())
    assert len(classes) > 50 and corprod.formulas.FiberZ1 in classes
    made = [
        f"{cls.__qualname__}.{name}"
        for cls in classes
        for name, value in vars(cls).items()
        for code in code_of(value)
        if code.co_filename == "<string>"
    ]
    assert made == []
    assert [cls.__qualname__ for cls in classes if hasattr(cls, "__dataclass_fields__")] == []
