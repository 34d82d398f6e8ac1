"""Spans around the calls into each galpha module, installed at run time.

``Tracer.installed()`` replaces every public function of the layer
modules, and every public method of the classes they define, with a
wrapper that records a span while an op is running.  Each module
namespace that imported the function by name is patched too, so calls
between modules are caught; the originals are restored on exit.  No file
under ``src/`` changes.

A span is (id, name, start, end, parent id, op id).  Every span is kept
in memory, as a row of six doubles, and written out by ``dump``: a
closing span goes on a flat list (a cheap append inside the timed
region), and ``flush``, called between ops, packs the list into a float
array.  The aggregates the metrics use (calls, inclusive and self time
per name, counters) are updated as each span closes.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("params", "stepper", "amplification", "spectral", "convergence", "modal", "cli")
OP_SPAN = "op"
FIELDS = ("id", "name", "start", "end", "parent", "op")


def _step_name(args, kwargs) -> str:
    return f"stepper.step.k{args[0].k}"


def _count_g_entries(counts: Counter, result) -> None:
    counts["amplification.G_entries"] += result.G.size


def _count_used_entries(counts: Counter, result) -> None:
    counts["amplification.G_entries_used"] += sum(b.size for b in result)


# Spans named by their arguments, and counters fed by return values.
NAMERS = {"stepper.step": _step_name}
METERS = {
    "amplification.amplification_matrix": _count_g_entries,
    "amplification.diagonal_blocks": _count_used_entries,
}


class Tracer:
    def __init__(self):
        self.op_id = None  # spans are recorded only while an op runs
        self.stack = []  # open spans: [id, start, child seconds]
        self.next_id = 0
        self.pending = []  # FIELDS of the spans closed since the last flush
        self.chunks = []  # flushed spans, one (n, FIELDS) array per flush
        self.names = {}  # span name -> its index in the dump's name table
        self.calls = Counter()
        self.total = defaultdict(float)  # inclusive seconds per name
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        sid, start, child = frame
        dur = end - start
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        name_id = self.names.setdefault(name, len(self.names))
        self.pending += (sid, name_id, start, end, parent, self.op_id)

    def _enter(self) -> list:
        frame = [self.next_id, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; its self time is the harness's own share."""
        self.op_id = op_id
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(OP_SPAN, frame)
            self.op_id = None

    def _wrap(self, name: str, fn):
        namer, meter = NAMERS.get(name), METERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(namer(args, kwargs) if namer else name, frame)
            if meter:
                meter(self.counts, result)
            return result

        return traced

    def _count_states(self, post_init):
        @functools.wraps(post_init)
        def counted(state):
            if self.op_id is not None:
                self.counts["stepper.ModalState"] += 1
            post_init(state)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch galpha for the duration of the block."""
        import galpha

        modules = [importlib.import_module(f"galpha.{m}") for m in LAYERS]
        namespaces = [galpha, *modules]
        patches = []

        def patch(owner, attr, value):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                patch(ns, name, wrapper)
                elif inspect.isclass(obj):
                    for mattr, method in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(method):
                            patch(obj, mattr, self._wrap(f"{layer}.{attr}.{mattr}", method))
        state_cls = galpha.stepper.ModalState
        patch(state_cls, "__post_init__", self._count_states(state_cls.__post_init__))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- aggregates -----------------------------------------------------

    def calls_of(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name == prefix or name.startswith(prefix + "."))

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)

    def flush(self) -> None:
        """Pack the spans closed since the last flush into an array."""
        if self.pending:
            self.chunks.append(np.array(self.pending, dtype=float).reshape(-1, len(FIELDS)))
            self.pending.clear()

    def dump(self, path, extra: dict) -> None:
        """Write every span to an uncompressed ``.npz``: ``spans`` has one
        row of FIELDS per span, in the order the spans closed, with times
        in ``perf_counter`` seconds, ``name`` an index into ``names`` and a
        parent of -1 for a root; ``meta`` is ``extra`` as JSON."""
        self.flush()
        spans = np.concatenate(self.chunks) if self.chunks else np.empty((0, len(FIELDS)))
        np.savez(path, spans=spans, fields=np.array(FIELDS), names=np.array(list(self.names)),
                 meta=np.array(json.dumps(extra)))
