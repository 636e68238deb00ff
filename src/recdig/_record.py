"""Immutable value records: the frozen-class behaviour recdig needs, in a
few lines.

The standard library's generator of frozen classes imports ``inspect``
(and with it ``ast``, ``dis`` and ``tokenize``).  Every ``recdig`` command
runs in a fresh interpreter, where that import was more than half of the
time ``import recdig.cli`` took.

A subclass lists its fields in ``__slots__``, in constructor order.  When
it has something to check it writes an ``__init__`` that validates and
then ends with one ``self._store(<fields in slot order>)``; when it has
nothing to check it writes no ``__init__`` and gets one that takes the
fields by name and stores them.  It gets

* immutability: assigning or deleting an attribute raises
  ``AttributeError``; ``_store`` is the one writer of the fields, and it
  stores a ``list`` value as a ``tuple``, so a record built from lists
  equals and hashes like one built from tuples;
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
        # Trees are built, hashed and compared once per map in the bijection
        # round trips, so the store, __eq__ and __hash__ are compiled per
        # class with plain attribute reads and writes.  Reading the fields
        # through an attrgetter made comparison about 1.7 times and hashing
        # 1.25 times slower.
        names = compare or cls.__slots__

        def fields(obj: str) -> str:
            return "(" + "".join(f"{obj}.{name}, " for name in names) + ")"

        store = f"(self, {', '.join(cls.__slots__)}):\n" + "".join(
            f"    _set(self, {name!r}, "
            f"tuple({name}) if isinstance({name}, list) else {name})\n"
            for name in cls.__slots__
        )
        source = (
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return {fields('self')} == {fields('other')}\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash({fields('self')})\n"
            f"def _store{store}"
        )
        generated = ["__eq__", "__hash__", "_store"]
        # A subclass of a validating record keeps the checks it inherits.
        if cls.__init__ is object.__init__:
            source += f"def __init__{store}"
            generated.append("__init__")
        namespace: dict = {"_set": object.__setattr__}
        exec(source, namespace)
        for name in generated:
            function = namespace[name]
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, function)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)
