"""In-memory span tracer that wraps layer entry points from outside.

The benchmark measures the program without editing it: for a traced run
it replaces public functions and methods of each layer with a wrapper
that records one span per call, runs the workload, and puts the
originals back.  A span is ``(name, start, end, parent)``; spans stay in
four flat integer arrays while the run lasts and are written to disk
once, after the measurement.

A layer's self time is the time its spans cover minus the part covered
by their child spans.  Only the thread that created the tracer is
recorded, so work done on a helper thread (the gateway harness replays
its oracle on one) is not charged to any layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


def layer_of(span_name: str) -> str:
    """``core.scheduler.maybe_dispatch`` -> ``core.scheduler``."""
    return span_name.rpartition(".")[0]


class Tracer:
    """Records spans around wrapped callables; computes self times."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: List[int] = []
        #: Counts and maxima taken at span boundaries by ``post`` hooks.
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._tid = threading.get_ident()

    # -- recording -------------------------------------------------------
    def _intern(self, span: str) -> int:
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        return nid

    def wrap(self, owner: Any, attr: str, span: str,
             post: Optional[Callable[[tuple, Any], None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``post(args, result)`` runs inside the span after the call
        returns, to take counts at the same boundary.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        nid = self._intern(span)
        names, starts, ends = self.name, self.start, self.end
        parents, stack = self.parent, self._stack
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        tid = self._tid

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if get_ident() != tid:
                return original(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        Inclusive time sums every span of the name, so it counts nested
        calls twice; none of the spans it is read for re-enter.
        """
        n = len(self.name)
        child = [0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            own[nid] += dur - child[i]
            incl[nid] += dur
        return {span: {"calls": calls[k], "incl_s": incl[k] / 1e9,
                       "self_s": own[k] / 1e9}
                for k, span in enumerate(self.names)}

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer (module) name."""
        layers: Dict[str, float] = {}
        for span, row in self.summary().items():
            layer = layer_of(span)
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def write(self, path: Path) -> None:
        """Write every span once, as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[self.name[i], self.start[i], self.end[i],
                       self.parent[i]] for i in range(len(self.name))],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
