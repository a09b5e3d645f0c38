"""Span recording for the traced benchmark run.

A span is a name, a start, an end and a parent.  Probes open a span when
a wrapped public function is entered and close it when it returns or
raises; the open-span stack supplies the parent.  Spans are aggregated
as they close (count and self time per name) instead of being kept, so
a traced fig9 pass with hundreds of thousands of DRAM enqueues stays in
constant memory.

Self time is a span's duration minus the time its direct children cover.
Summed over every name it accounts for each instant inside the outermost
span exactly once, including when a layer re-enters itself (the codec's
``keystream`` calling ``encrypt_block``, both in ``crypto.aes``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Count and self time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Open spans, innermost last: ``[name, start, child_time]``.
        self.stack: List[list] = []
        self.count: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}

    def open(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        self.count[name] = self.count.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name: str):
        """Context manager form, for the benchmark's own spans."""
        return _Span(self, name)

    def layer_self_s(self, prefix: str) -> float:
        """Self time summed over every span named ``prefix:...``."""
        head = prefix + ":"
        return sum(v for k, v in self.self_s.items() if k.startswith(head))

    def calls(self, *names: str) -> int:
        return sum(self.count.get(name, 0) for name in names)


class _Span:
    __slots__ = ("recorder", "name")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        self.recorder.open(self.name)

    def __exit__(self, *exc) -> None:
        self.recorder.close()


Hook = Callable[[tuple, dict, object], None]


def _probe(fn: Callable, name: str, recorder: SpanRecorder,
           hook: Optional[Hook]) -> Callable:
    stack = recorder.stack
    clock = recorder.clock
    close = recorder.close

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        stack.append([name, clock(), 0.0])
        try:
            result = fn(*args, **kwargs)
        finally:
            close()
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return probe


class Probes:
    """Installs span probes on public functions and methods; undoes them.

    ``target`` is ``"package.module:function"`` or
    ``"package.module:Class.method"``.  A module-level function is also
    replaced wherever another ``repro`` module imported it by name, so a
    caller holding ``from x import f`` is probed too.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def add(self, name: str, target: str,
            hook: Optional[Hook] = None) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, _probe(original, name, self.recorder,
                                          hook))
            return
        original = getattr(module, attr)
        wrapped = _probe(original, name, self.recorder, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def track(self, target: str, sink: list) -> None:
        """Append every instance of ``module:Class`` built from now on
        to ``sink`` (subclass instances included); no span is opened."""
        module_name, _, class_name = target.partition(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__["__init__"]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            sink.append(obj)

        self._set(cls, "__init__", init)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
