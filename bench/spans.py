"""Span tracer that instruments the package from outside it.

`Tracer.install()` replaces each target function with a timing wrapper and
rebinds it in every `magicbroadcast` module that holds the function by
name; a target written `Class.method` (used for `__post_init__`) is
replaced on the class.  `uninstall()` puts every original back.

Spans live in memory.  Each wrapper keeps a stack of open spans so that a
span's self time is its duration minus the time of the spans it opened.
Per-name totals are kept for every call; the first `MAX_SPANS` raw spans
(op id, name, start, end, parent index) are kept for export.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

MAX_SPANS = 20_000          # raw spans kept for export


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0          # work units reported by the target's `units` hook


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    `tag(args, kwargs)` splits the span's totals by a label (for example
    the suite name); `units(args, kwargs)` counts work done by the call
    (for example rows evaluated).
    """

    module: str                 # submodule of magicbroadcast
    attr: str                   # "function" or "Class.method"
    name: str                   # span name
    tag: object = None
    units: object = None


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None
        and (name == "magicbroadcast" or name.startswith("magicbroadcast."))
    ]


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.stats: dict[str, Stat] = {}
        self.tagged: dict[tuple, Stat] = {}
        self.top_level_s = 0.0
        self.spans: list = []
        self.missing: list[str] = []
        self.op = None
        self._stack: list = []
        self._saved: list = []

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        modules = _package_modules()
        for target in self.targets:
            module = sys.modules.get(f"magicbroadcast.{target.module}")
            if module is None:
                self.missing.append(target.name)
                continue
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is None:
                    self.missing.append(target.name)
                    continue
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(target, original))
                continue
            original = getattr(module, target.attr, None)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def set_op(self, op):
        self.op = op

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, target: Target, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(target.name, Stat())
        name, tag, units = target.name, target.tag, target.units

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame = [time covered by child spans, raw span index]
            frame = [0.0, len(spans) if len(spans) < MAX_SPANS else -1]
            parent = stack[-1][1] if stack else -1
            if frame[1] >= 0:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_level_s += dur
                if units is not None:
                    stat.units += units(args, kwargs)
                if tag is not None:
                    sub = self.tagged.setdefault((name, tag(args, kwargs)), Stat())
                    sub.calls += 1
                    sub.total_s += dur
                if frame[1] >= 0:
                    spans[frame[1]] = (self.op, name, start, end, parent)

        return wrapper

    # -- export -------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def tagged_stat(self, name: str, tag) -> Stat:
        return self.tagged.get((name, tag), Stat())

    def write_spans(self, path):
        """Write the kept raw spans as JSON lines."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                op, name, start, end, parent = span
                fh.write(json.dumps({
                    "id": index, "op": op, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
