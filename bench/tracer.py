"""In-memory span recorder for the recdig package's public functions.

`Tracer.install()` replaces every public function binding in the traced
modules with a wrapper, including the bindings a module imported from
another one (``recdig.stats.cayley_count`` as well as
``recdig.digraphs.cayley_count``), and the public methods and arithmetic
operators of the classes those modules define.  Each call records a span
(id, name, start, end, parent, self time); self time is the span minus the
part of it that child spans cover.  A function called more than
``SPAN_LIMIT`` times keeps one aggregate (calls, total, self) from then on,
so per-map calls such as ``oracle.classify`` do not fill memory.  Iterators
returned as generators are wrapped too: the time spent producing each item
goes to an aggregate named ``<function>.next``.

``sdiff`` and ``r_stirling`` recurse through their own module globals, so
a wrapper would record one span per recursive step; they are never
wrapped, and the probes time them directly.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

LAYERS = (
    "cli",
    "digraphs",
    "stirling",
    "series",
    "tables",
    "oracle",
    "bijections",
    "stats",
)
NEVER_WRAPPED = frozenset({"sdiff", "r_stirling"})
SPAN_LIMIT = 1000  # spans kept per name; later calls go to an aggregate
OPERATORS = frozenset({"__add__", "__sub__", "__mul__"})


class _TracedIter:
    __slots__ = ("_tracer", "_name", "_next")

    def __init__(self, tracer: "Tracer", name: str, it):
        self._tracer = tracer
        self._name = name
        self._next = it.__next__

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            return self._next()
        finally:
            self._tracer.exit(frame, aggregate=True)


class Tracer:
    """Records spans and aggregates; one instance per traced process."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, float]] = []
        self.aggregates: dict[str, list] = {}
        self._stack: list[list] = []
        self._span_counts: dict[str, int] = {}
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, aggregate: bool = False) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self_s = duration - child
        count = self._span_counts.get(name, 0)
        if aggregate or count >= SPAN_LIMIT:
            agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_s
        else:
            self._span_counts[name] = count + 1
            self.spans.append((span_id, name, start, end, parent, self_s))

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if isinstance(result, types.GeneratorType):
                return _TracedIter(tracer, name + ".next", result)
            return result

        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public bindings of the given recdig modules in place."""
        names = {m.__name__ for m in modules}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or attr in NEVER_WRAPPED:
                    continue
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ in names
                ):
                    self._patch(mod, attr, value, _layer_name(value))
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for mattr, mval in list(vars(value).items()):
                        if not isinstance(mval, types.FunctionType):
                            continue
                        if mattr.startswith("_") and mattr not in OPERATORS:
                            continue
                        self._patch(value, mattr, mval, _layer_name(mval))

    def _patch(self, owner, attr: str, fn, name: str) -> None:
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        import importlib

        self.install([importlib.import_module(f"recdig.{m}") for m in LAYERS])
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Calls and self time per layer (the module part of each name)."""
        out: dict[str, dict] = {}
        rows = [(name, 1, self_s) for _, name, _, _, _, self_s in self.spans]
        rows += [(name, c, self_s) for name, (c, _, self_s) in self.aggregates.items()]
        for name, calls, self_s in rows:
            layer = out.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += calls
            layer["self_s"] += self_s
        return out

    def calls(self, prefix: str = "") -> int:
        """Calls recorded (spans plus aggregated) whose name starts with prefix."""
        n = sum(1 for s in self.spans if s[1].startswith(prefix))
        return n + sum(
            a[0] for name, a in self.aggregates.items() if name.startswith(prefix)
        )

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "self_s": x}
                for i, n, s, e, p, x in self.spans
            ],
            "aggregates": {
                name: {"calls": c, "total_s": t, "self_s": x}
                for name, (c, t, x) in self.aggregates.items()
            },
            "layers": self.layers(),
        }


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
