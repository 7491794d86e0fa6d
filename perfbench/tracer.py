"""Timing and counting wrappers around the program's public functions.

``Tracer.install`` replaces every public function of the six layer modules
(and ``Graph.without`` and ``AncestorIndex.build``) at every module name a
caller looks it up by, including dispatch tables such as the CLI's handler
map. ``uninstall`` puts the originals back. Nothing under ``src/`` changes.

Each call becomes a span row: name, start, end, parent row, instance, and
the self time (duration minus the child spans inside it). Calls repeated
under one parent span beyond ``FOLD_AFTER`` fold into one row per
(parent, name) with a count, so a search that checks a million tuples keeps
a bounded span table. Rows are kept in memory and written out at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("cli", "formats", "graphs", "kernel", "solve", "trees")
FOLD_AFTER = 64


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("i")
        self.dur = array("d")
        self.self_time = array("d")
        self._stack: list[list] = []  # [row, start, child time]
        self._children: dict[tuple[int, int], int] = {}  # (parent row, name) -> spans seen
        self._folded: dict[tuple[int, int], int] = {}  # (parent row, name) -> folded row
        self.current = -1
        self.observations: list[tuple[int, str, object]] = []
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _new_row(self, nid: int, parent: int, start: float) -> int:
        self.name.append(nid)
        self.parent.append(parent)
        self.instance.append(self.current)
        self.start.append(start)
        self.end.append(start)
        self.count.append(0)
        self.dur.append(0.0)
        self.self_time.append(0.0)
        return len(self.name) - 1

    def _open(self, nid: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        now = time.perf_counter()
        key = (parent, nid)
        seen = self._children.get(key, 0)
        if parent < 0 or seen < FOLD_AFTER:
            self._children[key] = seen + 1
            row = self._new_row(nid, parent, now)
        else:
            row = self._folded.get(key)
            if row is None:
                row = self._folded[key] = self._new_row(nid, parent, now)
        frame = [row, now, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        now = time.perf_counter()
        self._stack.pop()
        row, start, child = frame
        duration = now - start
        self.end[row] = now
        self.count[row] += 1
        self.dur[row] += duration
        self.self_time[row] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def observe(self, key: str, value) -> None:
        self.observations.append((self.current, key, value))

    def wrap(self, name: str, fn, observe=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame)
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            self._close(frame)
            if observe is not None:
                observe(self, args, result, None)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package, observers: dict) -> None:
        """Wrap the layers' public functions everywhere `package`'s modules refer to them."""
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj, observers.get(name))
        for mod in [package, *layers.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):  # dispatch tables such as the CLI's handler map
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._restore.append((obj.__setitem__, key, value))
                            obj[key] = wrappers[id(value)]
        graph_cls = layers["graphs"].Graph
        index_cls = layers["trees"].AncestorIndex
        self._set(graph_cls, "without", self.wrap("graphs.Graph.without", vars(graph_cls)["without"]))
        build = vars(index_cls)["build"]
        self._set(index_cls, "build",
                  classmethod(self.wrap("trees.AncestorIndex.build", build.__func__)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((functools.partial(setattr, owner), attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def rows(self):
        """(name, parent row, instance, start, end, count, duration, self time) per row."""
        for i in range(len(self.name)):
            yield (self.names[self.name[i]], self.parent[i], self.instance[i], self.start[i],
                   self.end[i], self.count[i], self.dur[i], self.self_time[i])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("row\tname\tparent\tinstance\tstart\tend\tcount\tduration_s\tself_s\n")
            for i, (name, parent, inst, start, end, count, dur, self_t) in enumerate(self.rows()):
                fh.write(f"{i}\t{name}\t{parent}\t{inst}\t{start:.9f}\t{end:.9f}\t{count}\t"
                         f"{dur:.9f}\t{self_t:.9f}\n")
