"""Spans around pushsim's layer functions, recorded from outside the package.

Wrapping goes through attributes, so it survives refactors that move code
between modules: a wrapper replaces the function on its defining module and
on every other ``pushsim`` module that holds the same object under any name
(the ``from ... import`` bindings, and the package's re-exports).  A method
is replaced on its class.  Spans stay in memory as
``[layer, start, end, parent span, op]`` and are written out once, after the
traced pass.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

from layers import Layer

MIB = 1 << 20


def resolve(layer: Layer):
    """(owner, attribute, function) for a layer, or a reason string if absent."""
    try:
        owner = importlib.import_module(f"pushsim.{layer.module}")
    except ImportError as exc:
        return f"cannot import pushsim.{layer.module}: {exc}"
    *path, attr = layer.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return f"pushsim.{layer.module} has no {part}"
    func = vars(owner).get(attr)
    if not callable(func) or not hasattr(func, "__code__"):
        return f"pushsim.{layer.prefix} is not a plain function"
    return owner, attr, func


def rebind(owner, attr: str, func, replacement) -> list[tuple]:
    """Replace func by replacement wherever pushsim holds it; returns an undo list."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return [(owner, attr, func)]
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "pushsim" or name.startswith("pushsim.")):
            continue
        for key, value in list(vars(module).items()):
            if value is func:
                setattr(module, key, replacement)
                undo.append((module, key, func))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, key, func in reversed(undo):
        setattr(owner, key, func)


class Tracer:
    """Records one span per call of each present layer function.

    ``op`` labels the spans of the current op ("setup" or an op number);
    while it is None, wrapped calls pass straight through.
    """

    def __init__(self, layers: tuple[Layer, ...]):
        self.layers = layers
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | str = "setup"
        self.nbytes: dict[int, int] = defaultdict(int)
        self.absent: dict[str, str] = {}
        self._undo: list[tuple] = []

    def install(self) -> None:
        for index, layer in enumerate(self.layers):
            found = resolve(layer)
            if isinstance(found, str):
                self.absent[layer.prefix] = found
                continue
            owner, attr, func = found
            self._undo += rebind(owner, attr, func, self._wrap(index, layer, func))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    @contextlib.contextmanager
    def recording(self, label):
        """Label the spans of the calls made inside the block."""
        self.op = label
        try:
            yield
        finally:
            self.op = None

    def _wrap(self, index: int, layer: Layer, func):
        spans, stack, nbytes = self.spans, self.stack, self.nbytes

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.op is None:  # between ops: the benchmark's own checks run here
                return func(*args, **kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if layer.path_arg is not None and len(args) > layer.path_arg:
                    nbytes[index] += os.path.getsize(args[layer.path_arg])

        return wrapper

    def layer_stats(self) -> tuple[dict[str, float], float]:
        """Per-layer metrics (without alloc_mb) and the summed root span time."""
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        root = 0.0
        for pos, (index, start, end, parent, _) in enumerate(self.spans):
            self_s[index] += end - start - child[pos]
            calls[index] += 1
            if parent < 0:
                root += end - start
        out = {}
        for index, layer in enumerate(self.layers):
            values = {"s": self_s[index], "calls": calls[index], "bytes": self.nbytes[index]}
            for stat in layer.stats:
                if stat != "alloc_mb":
                    out[f"{layer.prefix}.{stat}"] = values[stat]
        return out, root

    def silent_layers(self, workload: str) -> list[str]:
        """Present layers expected on this workload whose span never fired."""
        fired = {span[0] for span in self.spans}
        return [
            layer.prefix
            for index, layer in enumerate(self.layers)
            if workload in layer.fires_on
            and layer.prefix not in self.absent
            and index not in fired
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["layer", "start", "end", "parent", "op"],
                    "layers": [layer.prefix for layer in self.layers],
                    "absent": self.absent,
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")


class PeakAlloc:
    """tracemalloc peak, in MiB, of what runs inside the block."""

    mib = 0.0

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.mib = tracemalloc.get_traced_memory()[1] / MIB
        tracemalloc.stop()


def alloc_peaks(layers: tuple[Layer, ...], run) -> tuple[dict[str, float], dict[str, str]]:
    """tracemalloc peak (MiB) of each alloc_mb layer's calls while run() executes.

    Only the wrapped call is traced, so the rest of the op runs at full
    speed.  A layer not called during run() reports 0.  Returns the peaks
    and the absent layers with reasons.
    """
    peaks: dict[str, float] = {}
    absent: dict[str, str] = {}
    undo: list[tuple] = []
    for layer in layers:
        if "alloc_mb" not in layer.stats:
            continue
        name = f"{layer.prefix}.alloc_mb"
        peaks[name] = 0.0
        found = resolve(layer)
        if isinstance(found, str):
            absent[layer.prefix] = found
            continue
        owner, attr, func = found

        def measured(*args, _func=func, _name=name, **kwargs):
            peak = PeakAlloc()
            try:
                with peak:
                    return _func(*args, **kwargs)
            finally:
                peaks[_name] = max(peaks[_name], peak.mib)

        undo += rebind(owner, attr, func, functools.wraps(func)(measured))
    try:
        run()
    finally:
        restore(undo)
    return peaks, absent
