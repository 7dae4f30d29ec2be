"""Spans around netctl's public functions, recorded from outside the
program.

`install(tracer)` replaces every public module-level function of the
layer modules with a wrapper that records a span, and rebinds the same
wrapper under every name another netctl module imported it as (so
`structural.min_driver_set -> graphs.maximum_matching` nests).  It
returns a function that puts the originals back.  Spans stay in memory
until the benchmark writes them out.
"""
import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("graphs", "structural", "generators", "cavity", "exact", "energy",
          "observability", "steering", "collective")


@dataclass
class Span:
    span_id: int
    parent: int  # span_id of the enclosing span, -1 at the top
    request: str
    name: str  # "<layer>.<function>"
    start_ns: int
    end_ns: int
    error: str = None  # NetctlError subclass raised out of the span
    attrs: dict = field(default_factory=dict)

    def as_dict(self):
        return asdict(self)


def _matching_attrs(result):
    return {"matching_size": result.size}


def _eigen_attrs(result):
    return {"clusters": len(result.eigenvalues), "n": sum(result.algebraic)}


# counts read off a function's return value
ATTRS = {"graphs.maximum_matching": _matching_attrs,
         "exact.eigen_table": _eigen_attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = "-"
        self._stack = []
        self._next = 0

    def wrap(self, name, fn, netctl_error):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            error, attrs = None, {}
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result)
                return result
            except netctl_error as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.request, name,
                                       start, end, error, attrs))

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced


def install(tracer):
    import netctl.cli
    from netctl.errors import NetctlError

    wrapped = {netctl.cli.main: tracer.wrap("cli.main", netctl.cli.main,
                                            NetctlError)}
    for layer in LAYERS:
        mod = importlib.import_module(f"netctl.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj,
                                           NetctlError)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "netctl" and not modname.startswith("netctl."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patched.append((mod, name, obj))
                setattr(mod, name, wrapped[obj])

    def restore():
        for mod, name, obj in patched:
            setattr(mod, name, obj)

    return restore


def self_times(spans):
    """{span name: (summed self time in s, calls)}; a span's self time is
    its duration minus the durations of its direct children."""
    child_ns = {}
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
    out = {}
    for s in spans:
        own = s.end_ns - s.start_ns - child_ns.get(s.span_id, 0)
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + own * 1e-9, calls + 1)
    return out
