"""Span tracing of avq's public functions, installed from outside avq.

``install`` replaces every public function, constructor and public method
of the numerical modules with a wrapper that records one span per call:
its name, start, end and the span open when it was called.  Spans are kept
in flat arrays and written out once, at the end of a run.  A layer's self
time is the time its spans cover minus the time their child spans cover.

Run as a script, it executes one ``avq`` command under the tracer:

    PYTHONPATH=src python avqbench/tracer.py OUT_PREFIX spin --r 1 --check

The command's stdout is untouched; the spans go to OUT_PREFIX.npz and the
per-layer totals to OUT_PREFIX.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("hilbert", "variables", "born", "groups", "spin", "measurement",
          "inference", "experiments")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_index(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self.name_index(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return traced

    def layer_totals(self) -> dict:
        """{layer: (self seconds, calls)} over every span recorded."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        self_time = np.bincount(nid, weights=dur - covered,
                                minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        totals = {}
        for k, name in enumerate(self.names):
            layer = name.split(".")[0]
            s, c = totals.get(layer, (0.0, 0))
            totals[layer] = (s + float(self_time[k]), c + int(calls[k]))
        return totals

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, dtype=np.int32))


def _wrap_class(tracer: Tracer, cls, qual: str):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in ("__init__", "__call__"):
            continue
        name = qual if attr == "__init__" else f"{qual}.{attr}"
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(member.__func__, name)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(member.__func__, name)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(member, name))


def install(tracer: Tracer):
    """Wrap the public callables of every layer, in every avq namespace."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"avq.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{name}")
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_class(tracer, obj, f"{layer}.{name}")
    # rebind module globals too, so calls inside a module and names taken
    # with "from .x import f" go through the wrappers
    for modname, mod in list(sys.modules.items()):
        if modname == "avq" or modname.startswith("avq."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])


def _main(argv) -> int:
    prefix, cli_argv = argv[0], argv[1:]
    import avq.cli
    tracer = Tracer()
    install(tracer)
    try:
        return avq.cli.main(cli_argv)
    finally:
        tracer.save(prefix + ".npz")
        with open(prefix + ".json", "w") as fh:
            json.dump(tracer.layer_totals(), fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
