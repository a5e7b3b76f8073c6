"""Span tracing of the baitradar layers, installed from outside the package.

The tracer wraps the public functions of each traced module by rebinding
module attributes, so ``src/`` carries no tracing code. A function imported
by name into another module (``training.featurize_record``,
``model.load_ppm``) is rebound there too, because such a call never looks at
the defining module. Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested on one thread, so that is duration minus the sum of
the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "baitradar"
TRACED_MODULES = (
    "corpus", "textpipe", "encoders", "nncore", "fusion", "model", "training", "checkpoint",
)
# Public methods traced in addition to module-level functions. Small per-token
# helpers such as Vocabulary.id_of are left out on purpose: a span per token
# would cost more than the work it measures.
TRACED_METHODS = {
    "model": ("BaitRadarModel", ("forward_features", "backward", "predict", "effective_mask")),
}
# Utilities that are not layers; wrapping them would mostly measure the tracer.
UNTRACED = {"nncore.as_f64"}

# span name -> (direction, (args, kwargs) -> (modality, rows))
ENCODER_SPANS = {
    "encoders.encode_text_forward": ("forward", lambda a, k: (a[0], len(a[1]))),
    "encoders.encode_text_backward": ("backward", lambda a, k: (a[1][0], len(a[0]))),
    "encoders.encode_thumbnail_forward": ("forward", lambda a, k: ("thumbnail", len(a[0]))),
    "encoders.encode_thumbnail_backward": ("backward", lambda a, k: ("thumbnail", len(a[0]))),
    "encoders.encode_stats_forward": ("forward", lambda a, k: ("statistics", len(a[0]))),
    "encoders.encode_stats_backward": ("backward", lambda a, k: ("statistics", len(a[0]))),
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    request: str
    # (modality, rows) for encoder spans; (batch, steps, live rows) for lstm_forward
    tag: tuple | None = None


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wall_ns = 0
        self._section_start = 0
        self.wrapped_names: set[str] = set()

    # -- installation ---------------------------------------------------------

    def _targets(self):
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and f"{short}.{name}" not in UNTRACED):
                    yield module, name, obj, f"{short}.{name}"
            cls_name, methods = TRACED_METHODS.get(short, (None, ()))
            for name in methods:
                cls = getattr(module, cls_name)
                yield cls, name, vars(cls)[name], f"{short}.{name}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for owner, attr, fn, span_name in self._targets():
            wrapper = self._wrap(span_name, fn)
            self.wrapped_names.add(span_name)
            wrappers[id(fn)] = (fn, wrapper)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # rebind names imported with ``from .x import f`` in any package module
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        tagger = ENCODER_SPANS.get(span_name, (None, None))[1]
        if span_name == "nncore.lstm_forward":
            tagger = _lstm_census

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = None
            if tagger is not None:
                try:
                    tag = tagger(args, kwargs)
                except Exception:  # noqa: BLE001 - a changed signature loses the tag, not the call
                    tag = None
            idx = len(spans)
            span = Span(span_name, 0, 0, stack[-1] if stack else -1, self.request, tag)
            spans.append(span)
            stack.append(idx)
            span.start_ns = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()

        return wrapper

    # -- traced sections -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        self._section_start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_ns += time.perf_counter_ns() - self._section_start
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def summary(self, records: int) -> dict:
        """Per-function self time and calls, both per record processed, plus
        the encoder breakdown, the LSTM census and the trace coverage."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        root_ns = 0
        enc = defaultdict(lambda: {"forward": 0, "backward": 0, "calls": 0, "rows": 0})
        lstm = defaultdict(lambda: {"calls": 0, "rows": 0, "steps": 0, "max_steps": 0,
                                    "cells": 0, "live": 0})
        for i, s in enumerate(self.spans):
            dur = s.end_ns - s.start_ns
            self_ns[s.name] += dur - child_ns[i]
            calls[s.name] += 1
            if s.parent < 0:
                root_ns += dur
            if s.tag is None:
                continue
            if s.name in ENCODER_SPANS:
                direction = ENCODER_SPANS[s.name][0]
                modality, rows = s.tag
                enc[modality][direction] += dur
                if direction == "forward":
                    enc[modality]["calls"] += 1
                    enc[modality]["rows"] += rows
            elif s.name == "nncore.lstm_forward" and s.tag[0] > 1:
                # single-record calls are left out of the census: one row is
                # always fully live, and predict would swamp the batch shapes
                modality = self._text_modality(s)
                batch, steps, live = s.tag
                for key in (modality, "all"):
                    c = lstm[key]
                    c["calls"] += 1
                    c["rows"] += batch
                    c["steps"] += steps
                    c["max_steps"] = max(c["max_steps"], steps)
                    c["cells"] += batch * steps
                    c["live"] += live
        per = max(records, 1)
        out = {"functions": {
            name: {"self_us": self_ns[name] / 1e3 / per, "calls": calls[name] / per}
            for name in sorted(self_ns)
        }}
        out["encoders"] = {
            m: {"forward_us": v["forward"] / 1e3 / per, "backward_us": v["backward"] / 1e3 / per,
                "rows_per_call": v["rows"] / v["calls"] if v["calls"] else 0.0}
            for m, v in enc.items()
        }
        out["lstm"] = {
            m: {"rows_per_call": c["rows"] / c["calls"], "steps_per_call": c["steps"] / c["calls"],
                "max_steps": c["max_steps"], "live_row_ratio": c["live"] / max(c["cells"], 1)}
            for m, c in lstm.items()
        }
        out["coverage"] = root_ns / self.wall_ns if self.wall_ns else 0.0
        out["untraced_self_us"] = (self.wall_ns - root_ns) / 1e3 / per
        out["spans"] = len(self.spans)
        out["records"] = records
        return out

    def _text_modality(self, span: Span) -> str:
        p = span.parent
        while p >= 0:
            parent = self.spans[p]
            if parent.name == "encoders.encode_text_forward":
                return parent.tag[0]
            p = parent.parent
        return "other"

    def write(self, path) -> None:
        """Gzipped, one JSON line per span: name, start and end in ns, parent
        index, request id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent, s.request]) + "\n")


def _lstm_census(args, kwargs) -> tuple[int, int, int]:
    """(rows, steps run, live row-steps) from lstm_forward's own arguments:
    the step loop runs to the longest length in the batch."""
    lengths = np.asarray(kwargs["lengths"] if "lengths" in kwargs else args[4])
    batch = len(lengths)
    steps = int(lengths.max()) if batch else 0
    return batch, steps, int(lengths.sum())
