"""Span tracer that wraps a package's public functions from the outside.

`Tracer.install` replaces every public function of the package's modules
with a timing wrapper, at every module attribute that names it, so a
function imported with ``from .clifford import majorana_rep`` is traced in
the importing module too.  Nothing inside the package changes.

Each span records its name, start, end, parent and busy time.  Busy time is
end minus start for a plain function; for a generator it is the sum of the
intervals in which the generator ran, since its work happens while it is
consumed, not when it is created.  Self time is busy time minus the busy time
of the span's children.  Spans are kept in flat arrays in memory and written
out with `save` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[int] = []
        self._next_id = 0
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.failed = array("b")
        self.counters: Counter = Counter()
        self._error_keys: set[tuple[str, int]] = set()
        self._error_refs: list[BaseException] = []
        self.errors: Counter = Counter()
        self._hooks: dict = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package: str, hooks: dict | None = None) -> int:
        """Wrap the public functions of every loaded module of `package`.

        `hooks` maps a span name to ``fn(args, kwargs, result) -> dict`` whose
        items are added to `counters` after each successful call.  Returns
        the number of module attributes patched.
        """
        self._hooks = dict(hooks or {})
        prefix = package + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(prefix)]
        wrappers: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(prefix):
                    continue
                if obj not in wrappers:
                    span = f"{home[len(prefix):]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(span, obj)
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, span: str, fn):
        layer = span.split(".", 1)[0]
        index = self._intern(span)
        hook = self._hooks.get(span)
        clock = self._clock
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._consume(index, layer, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            failed = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = True
                self._note_error(layer, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self._record(sid, parent, index, t0, t1, t1 - t0, failed)
            if hook is not None:
                self.counters.update(hook(args, kwargs, result))
            return result

        return wrapper

    def _consume(self, index: int, layer: str, gen):
        """Re-yield `gen`, timing each resumption as part of one span."""
        stack = self._stack
        clock = self._clock
        sid = parent = None
        first = last = busy = 0.0
        failed = False
        try:
            while True:
                if sid is None:
                    sid = self._next_id
                    self._next_id += 1
                    parent = stack[-1] if stack else NO_PARENT
                stack.append(sid)
                t0 = clock()
                if not busy:
                    first = t0
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    failed = True
                    self._note_error(layer, exc)
                    raise
                finally:
                    last = clock()
                    stack.pop()
                    busy += last - t0
                yield item
        finally:
            gen.close()
            if sid is not None:
                self._record(sid, parent, index, first, last, busy, failed)

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _record(self, sid, parent, index, t0, t1, busy, failed) -> None:
        self.span_id.append(sid)
        self.parent.append(parent)
        self.name.append(index)
        self.start.append(t0)
        self.end.append(t1)
        self.busy.append(busy)
        self.failed.append(failed)

    def _note_error(self, layer: str, exc: BaseException) -> None:
        """Count each exception once per layer it leaves."""
        key = (layer, id(exc))
        if key not in self._error_keys:
            self._error_keys.add(key)
            self._error_refs.append(exc)  # pins id(exc) for the run
            self.errors[layer] += 1

    # -- results ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_id)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: busy time minus the children's."""
        ids = np.frombuffer(self.span_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        busy = np.frombuffer(self.busy, dtype=np.float64)
        has_parent = parent != NO_PARENT
        covered = np.bincount(parent[has_parent], weights=busy[has_parent],
                              minlength=self._next_id)
        own = busy - covered[ids]
        totals = np.bincount(np.frombuffer(self.name, dtype=np.int64),
                             weights=own, minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.name, dtype=np.int64),
                             minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span to an uncompressed .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            busy=np.frombuffer(self.busy, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )
