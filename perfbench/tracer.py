"""Spans and counters recorded around multivirt's public functions.

`Tracer.install()` replaces each traced function on every `multivirt` module
attribute (and class attribute) that is bound to it, so calls made through
names bound by `from .x import y` are seen too.  `Tracer.uninstall()` puts
the originals back.  Each call records one span (name, start, end, parent,
op id) in memory; size counters are computed after the span has closed, and
the time they take is charged to no layer, so they add nothing to self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: str | None
    covered: float = 0.0  # time taken by child spans, their counters included

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "self_ms": self.self_s * 1e3,
        }


# -- size counters: (args, kwargs, result, exception, counters) -> None --------


def _passages_in(args, kwargs, result, exc, c):
    c["passages"] += args[0].n_passages()


def _multiplex(args, kwargs, result, exc, c):
    c.setdefault("inputs", set()).add((args[0].components, args[1]))
    if exc is None:
        c["out_passages"] += result[0].n_passages()


def _darts(args, kwargs, result, exc, c):
    if exc is None:
        c["darts"] += sum(len(cycle) for cycle in result)


def _system_shape(args, kwargs, result, exc, c):
    if exc is None:
        c["rows"] += len(result.rows)
        c["unknowns"] += result.n_unknowns


def _snf_size(args, kwargs, result, exc, c):
    mat = args[0]
    c["entries"] += len(mat) * (len(mat[0]) if mat else 0)
    if exc is None:
        c["nontrivial_divisors"] += sum(1 for d in result.diagonal if d != 1)


def _enumeration(args, kwargs, result, exc, c):
    from multivirt.errors import TooLarge

    if isinstance(exc, TooLarge):
        c["refused"] += 1
    elif exc is None:
        system, n = args[0], args[1]
        c["assignments"] += n**system.n_unknowns
        c["solutions"] += len(result)


def _sites(args, kwargs, result, exc, c):
    if exc is None:
        c["sites"] += len(result)
        for site in result:
            c["sites." + site.kind] += 1


def _stale(args, kwargs, result, exc, c):
    from multivirt.errors import StaleSite

    if isinstance(exc, StaleSite):
        c["stale"] += 1


def _steps(args, kwargs, result, exc, c):
    if exc is None:
        c["steps"] += len(result[1])


def _checks(args, kwargs, result, exc, c):
    if exc is None:
        c["checks"] += len(result.results)
        c["failed"] += sum(1 for r in result.results if not r.ok)


# (module, attribute, span name, counter, counter stats); span names read
# `<module>.<function>`, and per-layer metrics `<span name>.<stat>`.
TARGETS = (
    ("model", "parse_vgc", "model.parse_vgc", None, ()),
    ("model", "canonical_form", "model.canonical_form", _passages_in, ("passages",)),
    ("model", "Diagram.validate", "model.validate", None, ()),
    ("model", "segments", "model.segments", None, ()),
    ("planar", "faces", "planar.faces", _darts, ("darts",)),
    ("planar", "genus", "planar.genus", None, ()),
    ("invariants", "invariant_report", "invariants.invariant_report", None, ()),
    ("invariants", "n_writhes", "invariants.n_writhes", None, ()),
    ("invariants", "ith_n_writhes", "invariants.ith_n_writhes", None, ()),
    ("invariants", "linking_and_lambda", "invariants.linking_and_lambda", None, ()),
    ("constructions", "multiplex", "constructions.multiplex", _multiplex, ("out_passages",)),
    ("constructions", "covering", "constructions.covering", None, ()),
    ("constructions", "extract_component", "constructions.extract_component", None, ()),
    ("colorings", "build_system", "colorings.build_system", _system_shape, ("rows", "unknowns")),
    (
        "colorings",
        "smith_normal_form",
        "colorings.smith_normal_form",
        _snf_size,
        ("entries", "nontrivial_divisors"),
    ),
    ("colorings", "count_colorings", "colorings.count_colorings", None, ()),
    (
        "colorings",
        "enumerate_colorings",
        "colorings.enumerate_colorings",
        _enumeration,
        ("assignments", "solutions", "refused"),
    ),
    ("colorings", "psi", "colorings.psi", None, ()),
    ("moves", "find_moves", "moves.find_moves", _sites, ("sites",)),
    ("moves", "apply_move", "moves.apply_move", _stale, ("stale",)),
    ("moves", "random_walk", "moves.random_walk", _steps, ("steps",)),
    ("verify", "verify_theorems", "verify.verify_theorems", _checks, ("checks", "failed")),
)

PACKAGE = "multivirt"
_MARK = "__perfbench_wrapped__"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans and counters while installed; passes calls through otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.op: str | None = None
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            clock = tracer.clock
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(name, clock(), 0.0, parent, tracer.op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = clock()
                stack.pop()
                counters = tracer.counters[name]
                counters["calls"] += 1
                if counter is not None:
                    counter(args, kwargs, result, exc, counters)
                if parent is not None:
                    tracer.spans[parent].covered += clock() - span.start

        setattr(traced, _MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run `fn` under a span of the benchmark's own (an op or a set-up step)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing wrappers ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE)
        modules = _package_modules()
        for modname, attr, name, counter, _ in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, self.wrap(name, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)
        self.enabled = True

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left}")

    # -- summaries ------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_s * 1e3
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        n = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            n += p is not None
        return n


def installed_wrappers() -> list[str]:
    """Module or class attributes of the package still bound to a wrapper."""
    found = []
    for m in _package_modules():
        for key, value in vars(m).items():
            if hasattr(value, _MARK):
                found.append(f"{m.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == m.__name__:
                found.extend(
                    f"{m.__name__}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, _MARK)
                )
    return found
