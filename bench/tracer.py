"""Span tracer for the benchmark's traced run.

It wraps, from outside the package, every binding of every public
function and public method that the package's source defines, so that
``src/`` stays untouched.  A function re-exported under several names
(``reducer.validate_normal``, ``generators.validate_normal``,
``pseudoform.validate_normal`` ...) gets one wrapper, installed at each
binding, and its spans carry the name of the defining module
(``complexes.validate_normal``).  ``uninstall`` puts every original
object back.

Per span the tracer keeps name, start, end, parent span and the id of
the benchmark input being processed.  Spans stay in memory up to
``SPAN_CAP`` and are written out by the caller after the run.
Aggregates are kept for every span, without a cap: per function the
calls, inclusive time, self time, failures and returned items; calls
per caller-callee pair; calls, time and items of every function
running under one of ``ROOTS``; and counters that ``hooks`` read off
returned values.
"""

from __future__ import annotations

import functools
import os
import time
import types

# Modules whose functions and classes are layers.  ``errors`` and
# ``defaults`` do no work and are left alone.
LAYERS = ("io", "complexes", "surfaces", "moves", "generators", "reducer",
          "rigidity", "cli")

# Spans under which the tracer also sums, per descendant function, the
# calls and the inclusive time (``within``), e.g. the share of replay
# spent in validate_normal.
ROOTS = ("reducer.reduce_complex", "reducer.replay", "generators.generate")

# Spans kept in memory per run.
SPAN_CAP = 100_000


class Stat:
    __slots__ = ("calls", "s", "self_s", "failed", "returned")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.returned = 0


def _returned(result) -> int:
    """Items a call returned: a list's or set's length, else 1 unless
    None."""
    if isinstance(result, (list, frozenset)):
        return len(result)
    return 0 if result is None else 1


class Tracer:
    def __init__(self, hooks=None):
        # span name -> function(result) -> {counter: increment}
        self.hooks = hooks or {}
        self.input_id = None
        self.recording = False
        self.keep_spans = False
        self.spans: list = []
        self.stats: dict = {}
        self.within: dict = {}
        self.edges: dict = {}
        self.counters: dict = {}
        self._stack: list = []
        self._active: dict = {}
        self._next_id = 0
        self._patches: list = []
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and method the package defines."""
        src_dir = os.path.dirname(os.path.abspath(package.__file__))
        modules = [package] + [getattr(package, m) for m in LAYERS]
        wrappers: dict = {}

        def ours(fn) -> bool:
            code = getattr(fn, "__code__", None)
            return code is not None and os.path.dirname(
                os.path.abspath(code.co_filename)) == src_dir

        def wrapper_for(fn, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name)
            return wrappers[fn]

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and ours(obj):
                    name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    self._patch(mod, attr, wrapper_for(obj, name))
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and _short(obj.__module__) in LAYERS):
                    for mattr, raw in list(vars(obj).items()):
                        if mattr.startswith("_") and mattr != "__init__":
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            fn, rewrap = raw.__func__, type(raw)
                        elif isinstance(raw, types.FunctionType):
                            fn, rewrap = raw, None
                        else:
                            continue
                        if not ours(fn):
                            continue
                        label = "init" if mattr == "__init__" else mattr
                        name = f"{_short(obj.__module__)}.{obj.__name__}.{label}"
                        w = wrapper_for(fn, name)
                        self._patch(obj, mattr, rewrap(w) if rewrap else w)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list:
        """Bindings that do not hold their original object (empty once
        ``uninstall`` has run)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner)[attr] is not original
        ]

    @property
    def wrapped_bindings(self) -> int:
        return len(self._patches)

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh set of aggregates (spans are kept)."""
        self.stats = {}
        self.within = {}
        self.edges = {}
        self.counters = {}

    def _wrap(self, fn, name):
        tracer = self
        # an init span "returns" the facets (triangles) of what it built
        is_init = name.endswith(".init")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, None, True)
                raise
            if is_init:
                built = args[0]
                tracer._exit(frame, getattr(built, "facets", None)
                             or getattr(built, "triangles", None), False)
            else:
                tracer._exit(frame, result, False)
            return result

        return traced

    def _enter(self, name):
        self._next_id += 1
        top = self._stack[-1] if self._stack else None
        self._active[name] = self._active.get(name, 0) + 1
        frame = [name, 0.0, 0.0, self._next_id,
                 top[3] if top else 0, top[0] if top else None]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame, result, failed: bool) -> None:
        end = time.perf_counter()
        name, start, child, span_id, parent, parent_name = frame
        self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.self_s += dur - child
        items = 0
        if failed:
            st.failed += 1
        else:
            items = _returned(result)
            st.returned += items
            hook = self.hooks.get(name)
            if hook is not None:
                for key, inc in hook(result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
        edge = (parent_name, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        active = self._active
        active[name] -= 1
        outermost = active[name] == 0
        if outermost:
            st.s += dur
        if self._stack:
            self._stack[-1][2] += dur
        for root in ROOTS:
            if root != name and active.get(root):
                key = (root, name)
                acc = self.within.get(key)
                if acc is None:
                    acc = self.within[key] = [0, 0.0, 0]
                acc[0] += 1
                acc[2] += items
                if outermost:
                    acc[1] += dur
        if self.keep_spans and len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start - self._t0,
                               end - self._t0, parent, self.input_id))


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name
