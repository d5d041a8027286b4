"""Span recording around the public functions of a package's modules.

The tracer replaces each public function of the chosen modules with a
wrapper at every module attribute that names it, which is where callers
look the function up (``from .penalized import solve_penalized`` binds
``cli.solve_penalized``; ``penalized.solve_penalized`` calls
``build_design`` through ``penalized``'s globals). The library's source is
not touched, and ``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, probe]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``probe`` holds the number a probe
function read from the call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time


class Tracer:
    """Wrap the public functions of ``layers`` (modules of ``package``) with spans.

    ``skip`` names functions (``"module.function"``) left unwrapped;
    ``probes`` maps a span name to ``fn(args, kwargs, result) -> number``.
    """

    def __init__(self, package: str, layers, skip=(), probes=None):
        self.package = package
        self.layers = tuple(layers)
        self.skip = frozenset(skip)
        self.probes = dict(probes or {})
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, self.probes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(self.package)
        modules = [pkg] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(pkg.__path__, self.package + ".")
        ]
        targets = {}  # id(original) -> wrapper
        for layer in self.layers:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in self.skip
                ):
                    targets[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
