"""Record classes whose methods are closures, not generated source.

``@record(frozen=..., eq=...)`` adds what ``dataclasses.dataclass``
adds for these options: an ``__init__`` over the annotated fields in
order, a ``__repr__``, with ``eq`` an ``__eq__`` over the compared
fields, and a ``__hash__`` over the hashed fields of a frozen record (a
non-frozen one is unhashable).  A frozen record raises
``dataclasses.FrozenInstanceError`` on assignment and deletion.

It exists because Python 3.11's ``dataclasses`` compiles every method it
adds from a source string with ``exec``, one call per method.  For this
package's 52 record classes that is 279 calls and 45-50 ms of importing
``corprod.cli`` on a 2-vCPU host, about two thirds of the package's own
import time with bytecode cached.  Here each method is a closure over
the class's field names, made without compiling anything.

Only what the package uses is supported: ``frozen`` and ``eq``; plain
defaults; ``field(default_factory=..., repr=..., compare=..., hash=...)``;
``__post_init__``; and an ``__eq__`` or ``__hash__`` written in the class
body, which is kept.  There are no ``__slots__``: ``cached_property``
needs the instance ``__dict__``.
"""

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default_factory", "repr", "compare", "hash")

    def __init__(self, default_factory, repr, compare, hash):
        self.default_factory = default_factory
        self.repr = repr
        self.compare = compare
        self.hash = hash


_PLAIN = _Field(_MISSING, True, True, None)


def field(*, default_factory=_MISSING, repr=True, compare=True, hash=None):
    """A field with a default factory, or left out of ``repr``, of ``==``
    and ``hash``, or of ``hash`` alone (``hash=None`` follows ``compare``)."""
    return _Field(default_factory, repr, compare, hash)


def record(*, frozen=False, eq=True):
    """Class decorator: make the annotated fields of the class a record."""
    return lambda cls: _build(cls, frozen, eq)


def _values(names):
    """The tuple of a record's values of ``names``, read by one
    ``attrgetter`` call when there are two or more."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _frozen(message):
    # dataclasses is imported only here: the package never needs it otherwise
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


def _build(cls, frozen, eq):
    body = cls.__dict__
    names, defaults, factories, specs = [], {}, {}, []
    for name in body.get("__annotations__", {}):
        spec = body.get(name, _MISSING)
        if isinstance(spec, _Field):
            delattr(cls, name)
            if spec.default_factory is not _MISSING:
                factories[name] = spec.default_factory
        else:
            if spec is not _MISSING:
                defaults[name] = spec
            spec = _PLAIN
        if name not in defaults and name not in factories and (defaults or factories):
            raise TypeError(f"non-default field {name!r} follows a default field in {cls.__qualname__}")
        names.append(name)
        specs.append(spec)
    names = tuple(names)
    n = len(names)
    qualname = cls.__qualname__
    store = object.__setattr__ if frozen else setattr
    has_post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """The field values of a call that is not n positional arguments."""
        if len(args) > n:
            raise TypeError(
                f"{qualname}.__init__() takes {n + 1} positional arguments but {len(args) + 1} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            elif name in factories:
                values.append(factories[name]())
            else:
                raise TypeError(f"{qualname}.__init__() missing required argument {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{qualname}.__init__() got multiple values for argument {name!r}")
            raise TypeError(f"{qualname}.__init__() got an unexpected keyword argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # a counted index: about 150 ns less than zip() for three fields
        i = 0
        for value in args:
            store(self, names[i], value)
            i += 1
        if has_post_init:
            self.__post_init__()

    shown = tuple(name for name, spec in zip(names, specs) if spec.repr)
    shown_values = _values(shown)

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, shown, shown_values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        key = _values(tuple(name for name, spec in zip(names, specs) if spec.compare))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        methods["__eq__"] = __eq__
    if frozen:

        def __setattr__(self, name, value):
            raise _frozen(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise _frozen(f"cannot delete field {name!r}")

        methods["__setattr__"] = __setattr__
        methods["__delattr__"] = __delattr__
    for name, method in methods.items():
        if name not in body:
            method.__qualname__ = f"{qualname}.{name}"
            setattr(cls, name, method)
    # a body that defines __eq__ alone gets __hash__ = None from Python
    if eq and body.get("__hash__") is None:
        cls.__hash__ = None
        if frozen:
            hashed = _values(
                tuple(
                    name
                    for name, spec in zip(names, specs)
                    if (spec.compare if spec.hash is None else spec.hash)
                )
            )

            def __hash__(self):
                return hash(hashed(self))

            __hash__.__qualname__ = f"{qualname}.__hash__"
            cls.__hash__ = __hash__
    return cls
