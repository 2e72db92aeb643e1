"""Outside-in tracer for senselink, installed from the benchmark's side.

``Tracer.install`` wraps every public function of the six library modules and
rebinds each name that points at one, both in the defining module and in
every senselink module that took it with ``from ... import``. Module-global
lookups happen at call time, so calls made inside the library (gradient
ascent calling the surrogate gradient, quadrature calling the packet loss)
pass through the wrappers too. Nothing in the library is edited.

Each call records one span: name, start, end, parent span and cell id, kept
in flat in-memory arrays and written out once at the end. Start and end are
process CPU time. Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

MODULES = ("numerics", "gmm", "quant", "channel", "optimizer", "harness")


def policy_label(policy: str) -> str:
    """Metric-safe policy name: "bits:16" -> "bits16"."""
    return policy.replace(":", "")


def _model_key(model) -> tuple:
    return (model.mu1.tobytes(), model.mu2.tobytes(), model.sigma.tobytes())


class Tracer:
    """Span recorder plus the waste counters that need call arguments or results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.outer = array("b")   # 1 when no enclosing span has the same name
        self.failed = array("b")  # 1 when the call raised
        self.end = array("d")
        self.start = array("d")
        self.current_cell = -1
        self._stack = [-1]
        self._depth: dict[int, int] = {}
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self.distinct: dict[str, set] = {}
        self._model_keys: dict[int, tuple] = {}
        self.zero_received = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, qualname: str, fn):
        tracer = self
        clock = time.process_time
        fixed_id = self._name_id(qualname)
        name_of = key_of = on_result = None
        if qualname == "harness.decide":
            def name_of(args, kwargs):
                config = args[0] if args else kwargs["config"]
                return tracer._name_id(f"harness.decide.{policy_label(config.policy)}")
        elif qualname == "channel.avg_packet_loss_exact":
            def key_of(cfg, rate):
                return (cfg, float(rate))
        elif qualname == "gmm.effective_discriminant_gain":
            def key_of(model, sigma_q2):
                entry = tracer._model_keys.get(id(model))
                if entry is None or entry[0] is not model:
                    entry = tracer._model_keys[id(model)] = (model, _model_key(model))
                return (entry[1], float(sigma_q2))
        elif qualname == "harness.run_trial":
            def on_result(record):
                if record.received == 0:
                    tracer.zero_received += 1
        keys = self.distinct.setdefault(qualname, set()) if key_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = name_of(args, kwargs) if name_of else fixed_id
            if key_of is not None:
                keys.add(key_of(*args, **kwargs))
            idx = len(tracer.name)
            depth = tracer._depth.get(nid, 0)
            tracer._depth[nid] = depth + 1
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.cell.append(tracer.current_cell)
            tracer.outer.append(depth == 0)
            tracer.failed.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
                tracer._depth[nid] = depth
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self):
        """Replace every public library function, wherever senselink binds it."""
        import senselink

        wrappers = {}
        for modname in MODULES:
            mod = getattr(senselink, modname)
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(f"{modname}.{attr}", val)
        for modname, mod in list(sys.modules.items()):
            if modname != "senselink" and not modname.startswith("senselink."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def settle(self):
        """Close the books after a top-level call, including one cut by a signal.

        An exception raised asynchronously (the benchmark's CPU deadline) can
        land inside a wrapper's own bookkeeping. Truncate the span arrays to a
        common length and mark any span still open as failed and ended now.
        """
        now = time.process_time()
        cols = (self.name, self.parent, self.cell, self.outer, self.failed, self.end, self.start)
        n = min(len(c) for c in cols)
        for c in cols:
            del c[n:]
        for idx in self._stack[1:]:
            if idx < n and self.end[idx] == 0.0:
                self.end[idx] = now
                self.failed[idx] = 1
        self._stack[:] = [-1]
        self._depth.clear()

    def summary(self) -> "TraceSummary":
        self.settle()
        return TraceSummary(self)


def _column(arr, dtype):
    return np.frombuffer(arr, dtype=dtype).copy()


class TraceSummary:
    """Per-name aggregates computed from the recorded spans."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = _column(tracer.name, np.int32)
        self.parent = _column(tracer.parent, np.int32)
        self.cell = _column(tracer.cell, np.int32)
        self.failed = _column(tracer.failed, np.int8)
        self.start = _column(tracer.start, np.float64)
        self.end = _column(tracer.end, np.float64)
        n, k = self.name.size, len(self.names)
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=n)
        self.self_time = dur - child
        outer = _column(tracer.outer, np.int8).astype(bool)
        self._calls = np.bincount(self.name, minlength=k)
        self._busy = np.bincount(self.name, weights=np.where(outer, dur, 0.0), minlength=k)
        self._self = np.bincount(self.name, weights=self.self_time, minlength=k)
        self._failed = np.bincount(self.name, weights=self.failed, minlength=k)
        self._parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)
        self._dur = dur
        self._outer = outer
        self.distinct = {name: len(keys) for name, keys in tracer.distinct.items()}
        self.zero_received = tracer.zero_received

    def _id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls(self, name) -> int:
        i = self._id(name)
        return 0 if i is None else int(self._calls[i])

    def busy(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._busy[i])

    def self_s(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._self[i])

    def failures(self, name) -> int:
        i = self._id(name)
        return 0 if i is None else int(self._failed[i])

    def _under(self, name, parent):
        i, p = self._id(name), self._id(parent)
        if i is None or p is None:
            return np.zeros(self.name.size, dtype=bool)
        return (self.name == i) & (self._parent_name == p)

    def busy_under(self, name, parent) -> float:
        mask = self._under(name, parent) & self._outer
        return float(self._dur[mask].sum())

    def calls_under(self, name, parent) -> int:
        return int(self._under(name, parent).sum())

    def module_self(self, module) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == module]
        return float(self._self[ids].sum()) if ids else 0.0

    def root_time(self) -> float:
        """Total duration of top-level spans, which equals the sum of all self times."""
        return float(self._dur[self.parent < 0].sum())

    def distinct_frac(self, name) -> float:
        calls = self.calls(name)
        return self.distinct.get(name, 0) / calls if calls else 0.0

    def spans(self) -> int:
        return int(self.name.size)

    def save(self, path):
        """Write the spans out: name table plus one array per span field."""
        np.savez(path, names=np.array(self.names), name=self.name, start=self.start,
                 end=self.end, parent=self.parent, cell=self.cell, failed=self.failed)
