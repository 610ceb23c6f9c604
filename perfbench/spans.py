"""Span recorder for the traced run.

Spans are recorded from outside the program: ``installed`` replaces
fairpool's public functions and ``AllocationMachine`` methods with
wrappers for the duration of a ``with`` block and restores them after.
Each span keeps its name, start and end (``perf_counter_ns``), its parent
span and its root span; the root is the top-level call that caused it, so
every span of one request shares the root's id.  Spans stay in memory
(parallel arrays, about 40 bytes each) until ``write_spans``.

Functions that run hundreds of thousands of times inside other spans
(``ResourceVector.__init__``, ``dominant_share``) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array
from collections import Counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def timed(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[object], None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, root = self.name_of, self.parent, self.root
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            if stack:
                parent.append(stack[-1])
                root.append(stack[0])
            else:
                parent.append(-1)
                root.append(sid)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children; ``check_nesting`` shows the children lie inside it.
        """
        n = len(self.start)
        child_ns = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child_ns[i]
        return out

    def check_nesting(self) -> int:
        """Count spans that leave their parent's interval or overlap an
        earlier sibling.  Zero means self times never double-count."""
        bad = 0
        last_child_end: dict[int, int] = {}
        parent, start, end = self.parent, self.start, self.end
        for i in range(len(start)):
            if end[i] < start[i]:
                bad += 1
            p = parent[i]
            if p < 0:
                continue
            if start[i] < start[p] or end[i] > end[p]:
                bad += 1
            if start[i] < last_child_end.get(p, start[p]):
                bad += 1
            last_child_end[p] = end[i]
        return bad

    def children_of(self, sid: int) -> list[int]:
        return [i for i in range(sid + 1, len(self.start)) if self.parent[i] == sid]

    def ids_named(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i in range(len(self.start)) if self.name_of[i] == nid]

    def name(self, sid: int) -> str:
        return self.names[self.name_of[sid]]

    def write_spans(self, path: str, run_id: str) -> None:
        """Gzipped CSV, one span per line; times are perf_counter ns."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run_id,span,parent,root,name,start_ns,end_ns\n")
            fh.writelines(
                f"{run_id},{i},{p},{r},{names[k]},{s},{e}\n"
                for i, (k, p, r, s, e) in enumerate(
                    zip(self.name_of, self.parent, self.root, self.start, self.end)
                )
            )


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Replace fairpool's public entry points by tracing wrappers.

    ``chainsim`` imports ``accounting_gap``, ``pdrf_allocate`` and
    ``reference_task_counts`` by name, so those names are replaced there
    too.  ``AllocationMachine`` methods are replaced on the class.
    """
    from fairpool import alloc, chainsim, machine, reference, vectors

    counts = tracer.counts
    cls = machine.AllocationMachine

    def drf_tasks(result) -> None:
        counts["alloc.drf_allocate.tasks"] += sum(result.task_counts)

    def transitions(executed) -> None:
        counts["machine.transitions"] += executed

    def min_updates(record) -> None:
        counts["machine.min_updates"] += record.min_updates

    def clamps(receipt) -> None:
        counts["machine.clamped_claims"] += receipt.clamped

    pdrf = tracer.timed("alloc.pdrf_allocate", alloc.pdrf_allocate)
    gap = tracer.timed("machine.accounting_gap", machine.accounting_gap)
    ref = tracer.timed("reference.reference_task_counts", reference.reference_task_counts)
    patches: list[tuple[object, str, Callable]] = [
        (vectors.ResourceVector, "__init__",
         tracer.counted("vectors.ResourceVector.count", vectors.ResourceVector.__init__)),
        (alloc, "dominant_share", tracer.counted("alloc.dominant_share.count", alloc.dominant_share)),
        (alloc, "drf_allocate", tracer.timed("alloc.drf_allocate", alloc.drf_allocate, drf_tasks)),
        (alloc, "compare_pdrf_drf", tracer.timed("alloc.compare_pdrf_drf", alloc.compare_pdrf_drf)),
        (alloc, "pdrf_allocate", pdrf),
        (chainsim, "pdrf_allocate", pdrf),
        (cls, "register_user", tracer.timed("machine.register_user", cls.register_user)),
        (cls, "update_state", tracer.timed("machine.update_state", cls.update_state, transitions)),
        (cls, "demand", tracer.timed("machine.demand", cls.demand, min_updates)),
        (cls, "claim", tracer.timed("machine.claim", cls.claim, clamps)),
        (cls, "snapshot", tracer.timed("machine.snapshot", cls.snapshot)),
        (machine, "accounting_gap", gap),
        (chainsim, "accounting_gap", gap),
        (reference, "reference_task_counts", ref),
        (chainsim, "reference_task_counts", ref),
    ]
    for fn_name in (
        "run_simulation",
        "build_schedule",
        "write_trace_file",
        "write_cost_csv",
        "crosscheck_trace",
        "replay",
    ):
        original = getattr(chainsim, fn_name)
        patches.append((chainsim, fn_name, tracer.timed(f"chainsim.{fn_name}", original)))

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
