"""Outside tracer: times the public entry points of the ``naryalg`` modules
by wrapping them, without any change to the program.

Every public function or method whose code lives in the package is replaced,
in every module namespace and class that binds it, by one wrapper that
records a span.  Calls made inside the package therefore go through the
wrapper too: ``forms.mixed_trace`` reaches ``tensor.contract`` through the
name ``forms.contract``, which is wrapped.  A span's self time is its
duration minus the durations of the spans it directly encloses, so the self
times of all spans add up to the durations of the outermost spans.

Run as a script it executes one CLI request under the tracer and writes the
trace as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- check a4.json --suite all
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

# Per-entry value codecs, called once per stored entry by load and save.
# They stay unwrapped, so their time is self time of their callers.
UNWRAPPED = frozenset({"tensor.parse_rational", "tensor.format_rational"})


def _nnz(t) -> int:
    return len(t.data)


def _contract_counts(args, kwargs, result) -> dict:
    return {"in_nnz": _nnz(args[0]) + _nnz(args[2]), "out_nnz": _nnz(result)}


def _perm_terms(args, kwargs, result) -> dict:
    return {"perm_terms": math.factorial(len(tuple(args[1]))) * _nnz(args[0])}


# Work counts read from a span's arguments and result, after its clock stops.
COUNTERS = {
    "tensor.contract": _contract_counts,
    "tensor.raise_lower": lambda a, k, r: {"out_nnz": _nnz(r)},
    "tensor.RationalTensor.init": lambda a, k, r: {"entries": _nnz(a[0])},
    "algebra.load": lambda a, k, r: {"entries": _nnz(r.f)},
    "forms.mixed_trace": lambda a, k, r: {"out_nnz": _nnz(r.tensor)},
    "young.isotypic_project": _perm_terms,
    "linalg.EchelonBasis.insert": lambda a, k, r: {"accepted": int(bool(r))},
}


def span_name(fn) -> str:
    qualname = fn.__qualname__.replace("__init__", "init")
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{qualname}"


class Tracer:
    """Collects self time, call counts, work counts and caller edges."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(Counter)
        self.edges = Counter()
        self.root_s = 0.0
        self.ready = None            # time.monotonic() once the CLI is imported
        self._stack = []             # [name, time covered by child spans]
        self._restore = []

    def wrap(self, fn):
        name = span_name(fn)
        counter = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                self.edges[stack[-1][0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
            if counter is not None:
                self.counts[name].update(counter(args, kwargs, result))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public entry point of `package` and its modules."""
        import pkgutil  # the one module here that the program does not import

        home = os.path.dirname(os.path.abspath(package.__file__))
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")
        ]

        def ours(obj) -> bool:
            return (
                inspect.isfunction(obj)
                and os.path.dirname(os.path.abspath(obj.__code__.co_filename)) == home
                and not inspect.isgeneratorfunction(obj)
                and span_name(obj) not in UNWRAPPED
            )

        wrappers = {}

        def replace(owner, attr, fn):
            if fn not in wrappers:
                wrappers[fn] = self.wrap(fn)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrappers[fn])

        classes = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if ours(obj):
                    replace(mod, attr, obj)
                elif (inspect.isclass(obj) and obj not in classes
                      and obj.__module__.startswith(package.__name__ + ".")):
                    classes.append(obj)
        for cls in classes:
            for attr, obj in list(vars(cls).items()):
                if (attr == "__init__" or not attr.startswith("_")) and ours(obj):
                    replace(cls, attr, obj)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def as_dict(self) -> dict:
        return {
            "root_s": self.root_s,
            "ready": self.ready,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": {name: dict(c) for name, c in self.counts.items()},
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
        }


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- NARYALG_ARGS...", file=sys.stderr)
        return 2
    out_path, args = argv[0], argv[2:]
    import naryalg
    import naryalg.cli

    # Start-up ends here, as it does for `python3 -m naryalg`: the tracer's
    # own work (install below) is not the program's.
    tracer = Tracer()
    tracer.ready = time.monotonic()
    tracer.install(naryalg)
    try:
        return naryalg.cli.run(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.as_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
