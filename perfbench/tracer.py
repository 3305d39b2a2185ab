"""Spans and counters recorded from outside the library.

A ``Tracer`` wraps chosen functions of the ``unipotent_atlas`` package and
rebinds each wrapper in every ``unipotent_atlas.*`` module namespace that holds
the original, so calls made through any import path are seen.  Each wrapped
call is one span: name, start, end, parent span and operation id.  Spans stay
in memory; ``write_spans`` dumps them at the end of a run.  Constructors are
counted, not spanned, through their class's ``__post_init__``.

A span's self time is its duration minus the part of it covered by its direct
child spans (``self_times``).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import Callable, Iterable

PACKAGE = "unipotent_atlas"


def self_times(names, parents, starts, ends) -> list[int]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval and merged, so nested,
    back-to-back and (for generator segments) overlapping children are each
    subtracted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(names)):
        lo, hi = starts[i], ends[i]
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(hi - lo - covered)
    return out


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.ops: list[int] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.calls: Counter = Counter()
        self.constructed: Counter = Counter()
        self.keys: dict[str, set] = {}
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        for column in (self.names, self.ops, self.parents, self.starts, self.ends):
            column.clear()
        self.calls.clear()
        self.constructed.clear()
        for seen in self.keys.values():
            seen.clear()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.ops.append(self.op)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def operation(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a new operation with a root span of its own."""
        self.op += 1
        self.calls[name] += 1
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, key: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of ``fn`` (one per resumption
        for a generator function).  ``key(*args)``, when given, records the
        distinct (operation, key) pairs the function was called with."""
        tracer = self
        seen = self.keys.setdefault(name, set()) if key is not None else None

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if seen is not None:
                    seen.add((tracer.op, key(*args)))
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            wrapper = gen_wrapper
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if seen is not None:
                    seen.add((tracer.op, key(*args)))
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def count_constructions(self, name: str, cls: type) -> None:
        """Count instances of a dataclass through its ``__post_init__``."""
        original = cls.__dict__.get("__post_init__")
        counter = self.constructed

        def post_init(obj, *args):
            counter[name] += 1
            if original is not None:
                original(obj, *args)

        self._undo.append((cls, "__post_init__", original))
        setattr(cls, "__post_init__", post_init)

    # -- installation ----------------------------------------------------------

    def install(self, module: str, attr: str, key: Callable | None = None) -> bool:
        """Wrap ``<module>.<attr>`` (``attr`` may be ``Class.method``) and
        rebind it wherever the package holds it.  False if it does not exist."""
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if mod is None:
            return False
        owner: object = mod
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = inspect.getattr_static(owner, leaf, None)
        if original is None or not callable(original):
            return False
        wrapper = self.wrap(f"{module}.{attr}", original, key)
        if isinstance(owner, type):
            self._rebind(owner, leaf, wrapper)
        else:
            for name, namespace in list(sys.modules.items()):
                if namespace is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for var, value in list(vars(namespace).items()):
                    if value is original:
                        self._rebind(namespace, var, wrapper)
        return True

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries -------------------------------------------------------------

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in seconds."""
        selfs = self_times(self.names, self.parents, self.starts, self.ends)
        out: dict[str, dict[str, float]] = {}
        for name, s in zip(self.names, selfs):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["self_s"] += s / 1e9
        for name, n in self.calls.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0})["calls"] = n
        return out

    def calls_within(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that have an ancestor span named ``outer``."""
        memo: dict[int, bool] = {}

        def under(i: int) -> bool:
            chain = []
            found = False
            while i >= 0:
                if i in memo:
                    found = memo[i]
                    break
                chain.append(i)
                if self.names[i] == outer:
                    found = True
                    break
                i = self.parents[i]
            for j in chain:
                memo[j] = found
            return found

        return sum(1 for i, n in enumerate(self.names) if n == inner and under(self.parents[i]))

    def distinct_keys(self, name: str) -> int:
        return len(self.keys.get(name, ()))

    def write_spans(self, path) -> None:
        """Write spans as tab-separated lines: name, op, parent, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\top\tparent\tstart_ns\tend_ns\n")
            for row in zip(self.names, self.ops, self.parents, self.starts, self.ends):
                fh.write("\t".join(map(str, row)) + "\n")


def cache_stats(module_name: str) -> tuple[int, int, int]:
    """(entries, hits, misses) summed over the lru caches a module defines."""
    mod = sys.modules.get(f"{PACKAGE}.{module_name}")
    entries = hits = misses = 0
    for obj in vars(mod).values() if mod is not None else ():
        info = getattr(obj, "cache_info", None)
        if callable(info) and getattr(obj, "__module__", None) == mod.__name__:
            ci = info()
            entries += ci.currsize
            hits += ci.hits
            misses += ci.misses
    return entries, hits, misses


def install_all(tracer: Tracer, functions: Iterable[tuple[str, str]], constructors, keyed=None):
    """Install wrappers for (module, attr) pairs and constructor counters for
    (module, class) pairs; returns the names that could not be found."""
    keyed = keyed or {}
    missing = []
    for module, attr in functions:
        if not tracer.install(module, attr, keyed.get(f"{module}.{attr}")):
            missing.append(f"{module}.{attr}")
    for module, cls_name in constructors:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        cls = getattr(mod, cls_name, None) if mod is not None else None
        if isinstance(cls, type):
            tracer.count_constructions(f"{module}.{cls_name}", cls)
        else:
            missing.append(f"{module}.{cls_name}")
    return missing
