"""Span tracer for the traced run: wraps each layer's public entry
points from outside.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces,
on the classes themselves and before the server builds any site
object, the methods listed in :data:`ENTRY_POINTS` with a wrapper that
keeps a span stack per asyncio task.  For each entry point the tracer
aggregates calls, inclusive time and self time (inclusive minus the
part covered by wrapped calls made underneath, in the same task), and
keeps every 64th call as a full span: name, start, end, parent, task.
Spans stay in memory until :meth:`Tracer.write`.

An ``async`` entry point (``AdaptiveFlusher.flush``) is timed from
call to completion, so a flush that has to wait for the socket counts
the wait as its own time.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import json
import os
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Tracer", "install", "ENTRY_POINTS"]

#: layer metric prefix -> ((module, class, (method, ...)), ...)
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "core.stamp": (("repro.core.events", "UpdateEvent", ("stamped",)),),
    "core.rules": (
        ("repro.core.rules", "RuleEngine", ("on_receive", "on_send", "forward_many")),
    ),
    "core.checkpoint": (
        ("repro.core.checkpoint", "CheckpointCoordinator", ("initiate", "on_reply")),
        ("repro.core.checkpoint", "MainUnitCheckpointer", ("on_chkpt", "on_commit")),
        ("repro.core.queues", "BackupQueue", ("trim",)),
    ),
    "ois.apply": (
        ("repro.ois.ede", "EventDerivationEngine", ("process", "process_many")),
    ),
    "ois.snapshot": (
        ("repro.ois.state", "OperationalStateStore", ("snapshot", "delta_snapshot")),
    ),
    "wire.encode": (
        ("repro.wire.codec", "WireEncoder", ("encode_*",)),
        ("repro.wire.codec", "SharedFrameCache", ("encode",)),
    ),
    "wire.decode": (("repro.wire.codec", "WireDecoder", ("decode_body",)),),
    "wire.split": (("repro.wire.codec", "FrameSplitter", ("feed",)),),
    "sub.match": (
        ("repro.sub.registry", "SubscriptionRegistry", ("match_clients_batch",)),
    ),
    "sub.register": (
        ("repro.sub.registry", "SubscriptionRegistry", ("subscribe_nodes",)),
        ("repro.rt.net", "SubscriptionFanout", ("apply",)),
    ),
    "rt.fanout": (("repro.rt.net", "SubscriptionFanout", ("fanout",)),),
    "rt.flush": (("repro.rt.net", "AdaptiveFlusher", ("flush",)),),
}

_SAMPLE_EVERY = 64


class Tracer:
    """Per-task span stacks, per-entry aggregates, sampled spans."""

    def __init__(self) -> None:
        # span name ("Class.method") -> layer prefix, filled by install()
        self.layer_of: Dict[str, str] = {}
        # name -> [calls, inclusive_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        # sampled spans: (name, start_ns, end_ns, parent name, task id)
        self.spans: List[Tuple[str, int, int, str, int]] = []
        # task -> stack of [name, child_ns]; a task's stack is dropped
        # when it empties, so finished tasks leave nothing behind
        self._stacks: Dict[Any, List[List[Any]]] = {}

    def enter(self, name: str) -> Tuple[Any, List[Any], int]:
        try:
            task = asyncio.current_task()
        except RuntimeError:  # called outside an event loop
            task = None
        stack = self._stacks.get(task)
        if stack is None:
            stack = self._stacks[task] = []
        frame: List[Any] = [name, 0]
        stack.append(frame)
        return task, frame, time.perf_counter_ns()

    def leave(self, token: Tuple[Any, List[Any], int]) -> None:
        end = time.perf_counter_ns()
        task, frame, start = token
        name, child_ns = frame
        stack = self._stacks[task]
        stack.pop()
        parent = ""
        if stack:
            stack[-1][1] += end - start
            parent = stack[-1][0]
        else:
            del self._stacks[task]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += end - start
        total[2] += end - start - child_ns
        if total[0] % _SAMPLE_EVERY == 1:
            self.spans.append((name, start, end, parent, id(task)))

    def by_layer(self) -> Dict[str, Dict[str, int]]:
        """Calls and self nanoseconds so far, summed per layer; calls of
        single entry points ride along under their span names."""
        out: Dict[str, Dict[str, int]] = {}
        for name, (calls, _inclusive, own) in self.totals.items():
            row = out.setdefault(self.layer_of[name], {"calls": 0, "self_ns": 0})
            row["calls"] += calls
            row["self_ns"] += own
            out[name] = {"calls": calls, "self_ns": own}
        return out

    def write(self, path: str, spec: Dict[str, Any], counters: Dict[str, Any]) -> None:
        """One JSON object per line: run header, one ``total`` per entry
        point, the program's counters, then the sampled spans."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"record": "run", "spec": spec}) + "\n")
            for name, (calls, inclusive, own) in sorted(self.totals.items()):
                out.write(json.dumps({
                    "record": "total", "name": name, "layer": self.layer_of.get(name, ""),
                    "calls": calls, "inclusive_ns": inclusive, "self_ns": own,
                }) + "\n")
            out.write(json.dumps({"record": "counters", **counters}) + "\n")
            for name, start, end, parent, task in self.spans:
                out.write(json.dumps({
                    "record": "span", "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "task": task,
                }) + "\n")


def _wrap(tracer: Tracer, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
    enter, leave = tracer.enter, tracer.leave
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            token = enter(name)
            try:
                return await func(*args, **kwargs)
            finally:
                leave(token)

        return traced_async

    @functools.wraps(func)
    def traced(*args: Any, **kwargs: Any) -> Any:
        token = enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            leave(token)

    return traced


def install(tracer: Tracer) -> List[str]:
    """Wrap every entry point; returns the wrapped span names."""
    import importlib

    wrapped: List[str] = []
    for layer, targets in ENTRY_POINTS.items():
        for module_name, class_name, methods in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            names: List[str] = []
            for method in methods:
                if method.endswith("*"):
                    names += [
                        n for n, v in vars(cls).items()
                        if n.startswith(method[:-1]) and inspect.isfunction(v)
                    ]
                else:
                    names.append(method)
            for method in names:
                span = f"{class_name}.{method}"
                setattr(cls, method, _wrap(tracer, span, vars(cls)[method]))
                tracer.layer_of[span] = layer
                wrapped.append(span)
    return wrapped
