"""Outside-in tracing of gaplab: spans around calls into each module's public
functions, aggregated per call path in memory.

The program is not changed.  Each function is replaced, for the length of a
pass, where its caller looks the name up (`gaplab.mc_harness.sample_bit_matrix`,
not only `gaplab.distributions.sample_bit_matrix`), by a wrapper that opens a
span.  A span's busy time is its duration; its self time is the duration minus
the time its child spans cover.  Spans nest strictly because a traced pass
runs in one thread of one process.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable


class _Node:
    """Aggregate of every span with the same call path."""

    __slots__ = ("name", "children", "calls", "busy", "self_time")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, _Node] = {}
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Call-path tree of spans plus named counters, all kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.root = _Node("")
        # one frame per open span: [node, start time, time covered by children]
        self._stack: list[list] = [[self.root, 0.0, 0.0]]
        self.counters: dict[str, float] = defaultdict(int)

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = _Node(name)
        self._stack.append([node, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        node, start, covered = self._stack.pop()
        duration = self.clock() - start
        node.calls += 1
        node.busy += duration
        node.self_time += duration - covered
        self._stack[-1][2] += duration
        return duration

    def wrap(self, fn: Callable, name: str, count: Callable | None = None,
             on_result: Callable | None = None) -> Callable:
        """`fn` inside a span `name`; `count(*args)` is added to counter
        `name.bytes_computed`, and `on_result(result)` sees each return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                self.counters[f"{name}.bytes_computed"] += count(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s and self_s summed over call paths.

        Busy time counts only the outermost span of a name on a path, so a
        function that re-enters itself is not counted twice.
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

        def walk(node: _Node, open_names: frozenset) -> None:
            for child in node.children.values():
                agg = out[child.name]
                agg["calls"] += child.calls
                agg["self_s"] += child.self_time
                if child.name not in open_names:
                    agg["busy_s"] += child.busy
                walk(child, open_names | {child.name})

        walk(self.root, frozenset())
        return dict(out)

    def call_paths(self) -> list[dict]:
        """Every call path with its calls, busy and self time, parents first."""
        rows = []

        def walk(node: _Node, path: tuple[str, ...]) -> None:
            for child in node.children.values():
                p = path + (child.name,)
                rows.append({"path": " > ".join(p), "calls": child.calls,
                             "busy_s": child.busy, "self_s": child.self_time})
                walk(child, p)

        walk(self.root, ())
        return rows


class Patches:
    """Attribute replacements undone, in reverse order, when the block exits."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def resolve_owner(where: str) -> object:
    """'pkg.module' or 'pkg.module:Class' -> the module or class object."""
    module, _, cls = where.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def trace_attr(tracer: Tracer, patches: Patches, where: str, attr: str, name: str,
               **hooks) -> None:
    """Wrap `where.attr` in a span named `name` until `patches` is undone."""
    owner = resolve_owner(where)
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        wrapped = classmethod(tracer.wrap(raw.__func__, name, **hooks))
    else:
        wrapped = tracer.wrap(raw, name, **hooks)
    patches.replace(owner, attr, wrapped)


def timed_pool_class(tracer: Tracer, base: type, name: str) -> type:
    """A process pool that is one span `name` from construction to shutdown,
    and adds workers x that span's duration to counter `name.worker_s`."""

    class TimedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            tracer.enter(name)
            self._timed_workers = max_workers
            super().__init__(max_workers, *args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.counters[f"{name}.worker_s"] += self._timed_workers * tracer.exit()

    return TimedPool


def fanout_efficiency(serial_trial_busy_s: float, pool_worker_s: float) -> float:
    """Serial busy time of the trial path over workers x time inside pools.

    1.0 means the pools added no overhead; a workload that starts no pool
    reports 0.0.
    """
    if pool_worker_s <= 0.0:
        return 0.0
    return serial_trial_busy_s / pool_worker_s
