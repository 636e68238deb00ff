"""Immutable value records: the frozen-class behaviour recdig needs, in a
few lines.

The standard library's generator of frozen classes imports ``inspect``
(and with it ``ast``, ``dis`` and ``tokenize``).  Every ``recdig`` command
runs in a fresh interpreter, where that import was more than half of the
time ``import recdig.cli`` took.

A subclass lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``: validate, then store each field with
``object.__setattr__``.  It gets

* immutability: assigning or deleting an attribute raises
  ``AttributeError``;
* equality and hashing over the fields named by the class keyword
  ``compare`` (all fields by default), never equal to an object of another
  class;
* a ``Name(field=value, ...)`` repr over all fields;
* pickling and copying by calling the constructor again with the fields in
  order, so a restored record is validated like a new one.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        # Trees are hashed and compared once per map in the bijection round
        # trips, so __eq__ and __hash__ are compiled per class with plain
        # attribute reads.  Reading the fields through an attrgetter made
        # comparison about 1.7 times and hashing 1.25 times slower.
        names = compare or cls.__slots__

        def fields(obj: str) -> str:
            return "(" + "".join(f"{obj}.{name}, " for name in names) + ")"

        namespace: dict = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return {fields('self')} == {fields('other')}\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash({fields('self')})\n",
            namespace,
        )
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)
