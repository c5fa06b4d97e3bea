"""Per-layer spans recorded from outside the package.

A layer is one module of ``sqzbudget``.  :func:`install` wraps every public
function of each layer module, every public method and ``__init__`` of its
public classes, and rebinds each alias of a wrapped function that other
``sqzbudget`` modules imported (``chain.apply_loss_cov``,
``cli.load_scenario``, the package ``__init__`` re-exports).  Each call
records a span ``(name, start, end, parent)`` in memory; self time and call
counts per layer are computed from the spans afterwards by :func:`summarize`,
and the spans are written out with :meth:`Tracer.save`.
"""

import functools
import importlib
import inspect
import re
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

LAYERS = ("import", "scenario_io", "source", "cavity", "quadcore", "chain", "interferometer", "cli")
MODULE_LAYERS = LAYERS[1:]


def _bytes_parsed(args, kwargs):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


def _points(args, kwargs):
    omega = args[1] if len(args) > 1 else kwargs["omega_hz"]
    return getattr(omega, "size", 1)


# counters recorded at a layer boundary: span name -> (counter, amount(args, kwargs))
COUNTERS = {
    "scenario_io.parse_scenario": ("scenario_io.bytes_parsed", _bytes_parsed),
    "source.generated_spectrum": ("source.points_evaluated", _points),
}


class Tracer:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = [-1]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, fn, name):
        nid = self.name_id(name)
        hook = COUNTERS.get(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                self.count(hook[0], hook[1](args, kwargs))
            i = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(i)

        return traced

    def record(self, name, start, end):
        """Add a finished top-level span, timed by the caller."""
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def arrays(self):
        import numpy as np

        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "counter_names": np.array(list(self.counters), dtype=str),
            "counter_values": np.array(list(self.counters.values()), dtype=float),
        }

    def save(self, path):
        import numpy as np

        np.savez_compressed(path, **self.arrays())


def summarize(spans):
    """Per-layer ``[calls, self_s]`` and the counters, from :meth:`Tracer.arrays` output.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.
    """
    import numpy as np

    name = spans["name"]
    dur = spans["end"] - spans["start"]
    # bin 0 collects the top-level spans (parent -1)
    dur -= np.bincount(spans["parent"] + 1, weights=dur, minlength=len(dur) + 1)[1:]
    names = [str(n) for n in spans["names"]]
    self_s = np.bincount(name, weights=dur, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for nid, span_name in enumerate(names):
        entry = totals[span_name.partition(".")[0]]
        entry[0] += int(calls[nid])
        entry[1] += float(self_s[nid])
    counters = {str(k): float(v) for k, v in zip(spans["counter_names"], spans["counter_values"])}
    return totals, counters


def _methods(cls):
    for attr, value in vars(cls).items():
        if attr.startswith("_") and attr != "__init__":
            continue
        if inspect.isfunction(value):
            yield attr, value, lambda f: f, value
        elif isinstance(value, (classmethod, staticmethod)):
            yield attr, value, type(value), value.__func__


def install(tracer):
    """Wrap the public callables of every layer module; returns an undo function."""
    modules = {layer: importlib.import_module(f"sqzbudget.{layer}") for layer in MODULE_LAYERS}
    package = [m for n, m in sys.modules.items() if n == "sqzbudget" or n.startswith("sqzbudget.")]
    undo = []
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                traced = tracer.wrap(obj, f"{layer}.{attr}")
                for m in package:
                    for alias, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, alias, traced)
                            undo.append((m, alias, obj))
            elif inspect.isclass(obj):
                for meth, original, rewrap, fn in list(_methods(obj)):
                    setattr(obj, meth, rewrap(tracer.wrap(fn, f"{layer}.{obj.__name__}.{meth}")))
                    undo.append((obj, meth, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


_IMPORTTIME = re.compile(r"^import time:\s*(\d+) \|\s*\d+ \|( *)(\S+)\s*$")


def import_breakdown(stderr):
    """Seconds of ``import sqzbudget.cli`` spent for numpy, scipy and sqzbudget.

    Takes ``python -X importtime`` output.  A module's self time is charged
    to the outermost package outside sqzbudget on its import path, so
    everything that ``import scipy.constants`` pulls in counts as scipy.
    Modules that sqzbudget imports directly from the standard library count
    as sqzbudget.
    """
    lines = []
    for raw in stderr.splitlines():
        m = _IMPORTTIME.match(raw)
        if m:
            lines.append((int(m.group(1)), len(m.group(2)) // 2, m.group(3)))
    totals = {"numpy": 0.0, "scipy": 0.0, "sqzbudget": 0.0}
    stack = []
    for self_us, depth, name in reversed(lines):  # pre-order: parents first
        del stack[depth:]
        stack.append(name)
        if stack[0] != "sqzbudget.cli":
            continue
        outer = next((n for n in stack if n.partition(".")[0] != "sqzbudget"), "sqzbudget")
        top = outer.partition(".")[0]
        totals[top if top in totals else "sqzbudget"] += self_us * 1e-6
    return totals


def measure_imports(python, env, cwd, repeats=3):
    """Median import breakdown over fresh ``-X importtime`` interpreters."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import sqzbudget.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import sqzbudget.cli failed:\n{proc.stderr[-2000:]}")
        runs.append(import_breakdown(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
