"""Span tracing of the oddsaudit layers, installed from outside the package.

:class:`Tracer` wraps every public function of each ``oddsaudit`` module, in
every ``oddsaudit`` module that holds a reference to it, and the public
methods plus ``__post_init__`` of ``Model`` and ``ConditionalSpec`` on the
class.  No file of the package changes.  Each call appends one span
``[name, start, end, parent, op, note]`` to a list in memory; the benchmark
writes the list out when it ends.

A generator function such as ``sign_vectors`` is timed only while it creates
the generator; the iteration is charged to its caller.  Private helpers
(``_numpy_scan``, ``_collect_violations``, ...) are charged to the public
function that calls them, so ``sweep.sweep``'s self time is the kernel.  The
per-atom and per-query leaf helpers in :data:`UNTRACED` and the literal parser
module ``rational`` cost about as much per call as a span does, so they stay
unwrapped and are charged to their caller: parsing counts as
``modelfile.loads``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: Module -> layer.
LAYERS = {
    "cli": "cli",
    "modelfile": "modelfile",
    "model": "model",
    "construct": "construct",
    "audit": "audit",
    "updating": "updating",
    "sweep": "sweep",
}
TRACED_CLASSES = {"model": ("Model",), "construct": ("ConditionalSpec",)}
UNTRACED = frozenset({
    "model.bits_to_signs",
    "model.signs_to_bits",
    "model.Model.check_hypothesis",
    "model.Model.validate_event",
})

NAME, START, END, PARENT, OP, NOTE = range(6)


def _independence_name(args, kwargs):
    side = args[2] if len(args) > 2 else kwargs["side"]
    return f"audit.check_independence[{side}]"


def _independence_note(args, kwargs, result):
    """What the subset count needs, evaluated after the run: (model, i, side,
    pairwise, violations found)."""
    model, i = args[0], args[1]
    side = args[2] if len(args) > 2 else kwargs["side"]
    return model, i, side, kwargs.get("pairwise", False), len(result)


#: Span name -> (namer, note) for spans that carry more than a duration.
_HOOKS = {
    "audit.check_independence": (_independence_name, _independence_note),
    "modelfile.loads": (None, lambda args, kwargs, result: len(args[0].encode("utf-8"))),
    "sweep.sweep": (None, lambda args, kwargs, result: (args[0], result)),
}


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


class Tracer:
    """Install with ``with Tracer() as tracer:``; set ``tracer.op`` to tag the
    spans of each operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, namer=None, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = {short: importlib.import_module(f"oddsaudit.{short}") for short in LAYERS}
        holders = [
            module for key, module in sorted(sys.modules.items())
            if key == "oddsaudit" or key.startswith("oddsaudit.")
        ]
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                wrapper = self.wrap(name, obj, *_HOOKS.get(name, (None, None)))
                for holder in holders:
                    for held, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, held, wrapper)
            for class_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(module, class_name)
                for attr, obj in list(vars(cls).items()):
                    name = f"{short}.{class_name}.{attr}"
                    if name in UNTRACED or not inspect.isfunction(obj):
                        continue
                    if attr == "__post_init__" or not attr.startswith("_"):
                        self._patch(cls, attr, self.wrap(name, obj))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls nest strictly in one thread, so children never overlap and the part
    of a span they cover is the sum of their durations.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def by_name(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self seconds)."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        seconds[span[NAME]] += own
    return {name: (calls[name], seconds[name]) for name in calls}


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name\tstart\tend\tparent\top\n")
        for span in spans:
            handle.write(f"{span[NAME]}\t{span[START]!r}\t{span[END]!r}\t{span[PARENT]}\t{span[OP]}\n")
