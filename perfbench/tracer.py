"""Outside-in span recorder for the traced benchmark run.

The tracer replaces a function at the module or class attribute its
caller looks it up by, records one span per call, and restores the
original on ``close``. Nothing under ``src/`` changes. Spans are kept in
memory; the runner writes them out when the run ends.

Each span carries a name, start and end (``perf_counter_ns``, one clock
for every thread), the id of the span that caused it, a request id shared
by every span of one request, the thread it ran on and the benchmark
phase it ran in. Spans that start on a thread with no open span are
roots; :func:`attribute_cross_thread` can later hang server-thread roots
under the client span whose interval contains them.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from collections import Counter, defaultdict

# Slack for interval comparisons, in ns: spans are closed by separate
# clock reads, so nested intervals can disagree by a few ns.
SLACK_NS = 2_000

# Span tuple fields.
SID, PARENT, REQ, NAME, START, END, THREAD, PHASE = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = ""
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._counter_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        """Add to the counter ``(current phase, key)``."""
        with self._counter_lock:
            self.counters[(self.phase, key)] += n

    def _wrap(self, fn, name, after):
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_name = name(*args) if callable(name) else name
            sid = next(ids)
            parent, req = (stack[-1][0], stack[-1][1]) if stack else (None, sid)
            stack.append((sid, req))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    [sid, parent, req, span_name, start, end, threading.get_ident(), tracer.phase]
                )
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, after=None) -> None:
        """Wrap ``owner.attr``. ``name`` is the span name, or a callable
        that derives it from the call's positional arguments; ``after``
        sees each return value."""
        self._replace(owner, attr, lambda original: self._wrap(original, name, after))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Wrap ``owner.attr`` with a call counter only, no span."""

        def wrap(original):
            def counted(*args, **kwargs):
                self.count(key)
                return original(*args, **kwargs)

            return counted

        self._replace(owner, attr, wrap)

    def _replace(self, owner, attr: str, wrap) -> None:
        """A missing attribute is noted, not fatal, so the benchmark still
        runs against a refactored program."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, wrap(original))
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- analysis ------------------------------------------------------------------


def attribute_cross_thread(spans: list[list], phase: str, client_thread: int) -> int:
    """Give each root span of ``phase`` that ran off the client thread the
    shortest span of the same phase, on another thread, whose interval
    contains it, then pass request ids down. Valid only when one client
    thread issued the phase's requests one at a time. Returns the number
    of spans attributed."""
    in_phase = [s for s in spans if s[PHASE] == phase]
    client_roots = sorted(
        (s for s in in_phase if s[PARENT] is None and s[THREAD] == client_thread),
        key=lambda s: s[START],
    )
    starts = [s[START] for s in client_roots]
    by_req: dict[int, list[list]] = defaultdict(list)
    for s in in_phase:
        if s[THREAD] == client_thread:
            by_req[s[REQ]].append(s)
    orphans = [s for s in in_phase if s[PARENT] is None and s[THREAD] != client_thread]
    groups: dict[int, list[list]] = defaultdict(list)
    for s in orphans:
        i = bisect.bisect_right(starts, s[START]) - 1
        if i >= 0 and client_roots[i][END] + SLACK_NS >= s[END]:
            groups[client_roots[i][REQ]].append(s)
    attributed = 0
    for req, server_roots in groups.items():
        # Server roots may nest inside each other (a CA probe contains the
        # DNS answer it caused), so candidates include the server spans of
        # this request and their same-thread descendants.
        candidates = by_req[req] + server_roots + _descendants(in_phase, server_roots)
        for s in server_roots:
            best = None
            for c in candidates:
                if c is s or c[THREAD] == s[THREAD]:
                    continue
                if c[START] <= s[START] + SLACK_NS and c[END] + SLACK_NS >= s[END]:
                    if best is None or c[END] - c[START] < best[END] - best[START]:
                        best = c
            if best is not None:
                s[PARENT] = best[SID]
                attributed += 1
    _propagate_requests(in_phase)
    return attributed


def _descendants(spans: list[list], roots: list[list]) -> list[list]:
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out, todo = [], [r[SID] for r in roots]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child[SID])
    return out


def _propagate_requests(spans: list[list]) -> None:
    by_id = {s[SID]: s for s in spans}
    for s in sorted(spans, key=lambda s: s[START]):
        parent = by_id.get(s[PARENT]) if s[PARENT] is not None else None
        if parent is not None:
            s[REQ] = parent[REQ]


def self_times(spans: list[list]) -> tuple[dict[int, int], int]:
    """Self time of every span (duration minus its direct children's
    durations) and the number of spans whose accounting fails: a child
    outside its parent's interval, or children that together outlast the
    parent (overlapping children)."""
    child_total: dict[int, int] = defaultdict(int)
    by_id = {s[SID]: s for s in spans}
    errors = 0
    bad_parents = set()
    for s in spans:
        parent = by_id.get(s[PARENT]) if s[PARENT] is not None else None
        if parent is None:
            continue
        child_total[parent[SID]] += s[END] - s[START]
        if s[START] + SLACK_NS < parent[START] or s[END] > parent[END] + SLACK_NS:
            bad_parents.add(parent[SID])
    selfs = {}
    for s in spans:
        duration = s[END] - s[START]
        own = duration - child_total.get(s[SID], 0)
        selfs[s[SID]] = own
        if own < -SLACK_NS or s[SID] in bad_parents:
            errors += 1
    return selfs, errors


def span_table(spans: list[list], selfs: dict[int, int]) -> dict[str, dict]:
    """Per span name and phase: count, total and self time in ms."""
    table: dict[str, dict] = {}
    for s in spans:
        key = f"{s[PHASE]}:{s[NAME]}"
        row = table.setdefault(key, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (s[END] - s[START]) / 1e6
        row["self_ms"] += selfs[s[SID]] / 1e6
    return dict(sorted(table.items()))


def durations_ms(spans: list[list], name: str, phases=None) -> list[float]:
    return [
        (s[END] - s[START]) / 1e6
        for s in spans
        if s[NAME] == name and (phases is None or s[PHASE] in phases)
    ]


def self_ms(spans: list[list], selfs: dict[int, int], name: str, phases=None) -> list[float]:
    return [
        selfs[s[SID]] / 1e6
        for s in spans
        if s[NAME] == name and (phases is None or s[PHASE] in phases)
    ]
