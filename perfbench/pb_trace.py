"""Outside-in tracing of hapticnet: wrap public functions, sum time and counts.

The tracer replaces module attributes, dict entries and per-instance layer
methods with timing wrappers; `restore` puts the originals back.  Spans nest:
each span's time is also charged to its parent as child time, so a layer's
self time is its total minus its children.  Recording goes to the current
ledger; with none set the wrappers only forward the call.
"""

from collections import defaultdict
from time import perf_counter


class Ledger:
    """Totals of a run: time, calls and extra counters per span."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.child_time = defaultdict(float)
        self.calls_under = defaultdict(int)   # (parent span, span) -> calls
        self.counts = defaultdict(int)        # free counters: bytes, instances

    def self_time(self, name):
        return self.time[name] - self.child_time[name]


class Tracer:
    def __init__(self):
        self.ledger = None
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, after=None):
        """Timing wrapper around fn; `after(ledger, args, result)` adds counters."""
        def traced(*args, **kwargs):
            ledger = self.ledger
            if ledger is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                ledger.time[name] += dt
                ledger.calls[name] += 1
                if parent is not None:
                    ledger.child_time[parent] += dt
                    ledger.calls_under[(parent, name)] += 1
            if after is not None:
                after(ledger, args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def swap(self, owner, attr, replacement):
        """Set owner.attr (module or object) until `restore`."""
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr, name, after=None):
        """Replace owner.attr with a traced wrapper of itself."""
        self.swap(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def patch_item(self, mapping, key, name):
        original = mapping[key]
        mapping[key] = self.wrap(original, name)
        self._undo.append((dict.__setitem__, mapping, key, original))

    def restore(self):
        while self._undo:
            put, owner, key, original = self._undo.pop()
            put(owner, key, original)
