"""Spans and memory readings for the traced run.

A span records a name, a start, an end and the span that was open when it
began.  Spans stay in memory and are written out once, when the run ends.
With tracing off the tracer keeps nothing and adds no wrapper, so the
untraced run times bare calls.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time
from contextlib import contextmanager

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


def peak_rss_mb() -> float:
    """High-water resident set of this process (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans while `enabled`; otherwise every method is inert."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def wrap(self, module, attr: str, name: str):
        """Replace module.attr with a version that opens a span `name` on
        each call, so `count(name)` gives the calls; returns an undo
        callable."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        return lambda: setattr(module, attr, original)

    def total(self, name: str, within: str = None) -> float:
        """Summed duration of the spans called `name` (or, for a name
        ending in "*", starting with it), optionally only those under a
        span called `within`."""
        return sum(s["end"] - s["start"] for s in self._select(name, within))

    def count(self, name: str, within: str = None) -> int:
        return len(self._select(name, within))

    def _select(self, name, within):
        if name.endswith("*"):
            chosen = [s for s in self.spans if s["name"].startswith(name[:-1])]
        else:
            chosen = [s for s in self.spans if s["name"] == name]
        if within is None:
            return chosen
        return [s for s in chosen if within in self._ancestors(s)]

    def _ancestors(self, span):
        names = set()
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
            names.add(span["name"])
        return names

    def self_times(self) -> dict:
        """Per span name: summed duration minus the time its direct
        children cover."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path):
        doc = {"spans": self.spans, "self_time_s": self.self_times()}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


class RssSampler:
    """Largest rise of the resident set above its level at entry, read
    from /proc/self/statm every `interval` seconds by one helper thread
    while the block runs (numpy releases the interpreter lock in its
    loops, so the thread keeps sampling during large array work)."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.growth_mb = 0.0

    def _sample(self):
        while not self._stop.wait(self.interval):
            self._top = max(self._top, rss_mb())

    def __enter__(self):
        self._stop = threading.Event()
        self._base = self._top = rss_mb()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.growth_mb = max(self._top, rss_mb()) - self._base
        return False
