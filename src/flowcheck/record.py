"""Immutable records: the base of every term, predicate and Go syntax node.

A record class names its fields in ``__slots__``, the defaults of its
trailing fields in ``_defaults``, and in ``_uncompared`` the fields that
equality and hashing skip.  Two records are equal when they are of the same
class and their compared fields are equal as a tuple, and a record hashes as
that tuple.  A field cannot be assigned or deleted after construction.

Each class gets its own ``__init__``, ``__eq__`` and ``__hash__``, made when
the class is defined from code compiled once per number of fields and of
compared fields, with the placeholder names replaced by the class's field
names: compiling is most of the cost of defining a class, so it is shared.
A loop over the fields instead would make each comparison about three times
slower, and terms are compared and hashed on every reduction step.
"""

from __future__ import annotations

from types import FunctionType

_METHODS = ("__init__", "__eq__", "__hash__")

_TEMPLATE = """\
def __init__(self, {params}):
    {sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""

_compiled = {}  # (fields, compared fields) -> the code of each of _METHODS


def _methods_code(fields: int, compared: int) -> tuple:
    """The code of ``_METHODS`` for ``fields`` fields, named ``_f0``,
    ``_f1``, …, of which ``compared`` fields, named ``_c0``, …, are
    compared; field ``i`` is stored by the global ``_set<i>``."""
    key = fields, compared
    if key not in _compiled:
        namespace = {}
        exec(_TEMPLATE.format(
            params=", ".join("_f%d" % i for i in range(fields)),
            sets="\n    ".join("_set%d(self, _f%d)" % (i, i) for i in range(fields)) or "pass",
            mine="".join("self._c%d," % i for i in range(compared)),
            theirs="".join("other._c%d," % i for i in range(compared)),
        ), namespace)
        _compiled[key] = tuple(namespace[name].__code__ for name in _METHODS)
    return _compiled[key]


class Record:
    __slots__ = ()
    _defaults: dict = {}
    _uncompared: tuple = ()

    def __init_subclass__(cls):
        if "__slots__" not in cls.__dict__:
            raise TypeError("record %s must declare its fields in __slots__" % cls.__name__)
        fields = tuple(cls.__slots__)
        defaults = tuple(cls._defaults[f] for f in fields if f in cls._defaults)
        if any(f not in cls._defaults for f in fields[len(fields) - len(defaults):]):
            raise TypeError("record %s: only trailing fields may have defaults" % cls.__name__)
        compared = [f for f in fields if f not in cls._uncompared]
        names = {"_f%d" % i: f for i, f in enumerate(fields)}
        names.update(("_c%d" % i, f) for i, f in enumerate(compared))
        # each field is stored through its slot's own setter, bypassing the
        # __setattr__ that keeps the record immutable
        setters = {"_set%d" % i: cls.__dict__[f].__set__ for i, f in enumerate(fields)}
        for name, code in zip(_METHODS, _methods_code(len(fields), len(compared))):
            code = code.replace(
                co_varnames=tuple(names.get(n, n) for n in code.co_varnames),
                co_names=tuple(names.get(n, n) for n in code.co_names),
            )
            function = FunctionType(code, setters, name)
            function.__qualname__ = "%s.%s" % (cls.__qualname__, name)
            if name == "__init__":
                function.__defaults__ = defaults or None
            setattr(cls, name, function)

    def __setattr__(self, name, value):
        raise AttributeError(
            "cannot assign %s to field %r: %s is immutable"
            % (type(value).__name__, name, type(self).__name__)
        )

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r: %s is immutable" % (name, type(self).__name__))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
