"""Spans around the calls between ``memchannel`` modules, recorded from outside.

``Tracer.install`` replaces every module-level binding of each target
function (and the two target methods on their classes) with a wrapper that
records a span.  Python resolves these names at call time, so both
cross-module calls (``cli`` -> ``experiments.coherent_sweep``) and
intra-module calls (``coherent_information`` -> ``von_neumann_entropy``) are
caught without editing the program.  ``Tracer.restore`` puts every original
back.  Spans stay in memory until ``write``.

A span is (id, parent id, name, start, end, request id).  Each thread keeps
its own span stack; a span opened on a thread with an empty stack (a point
running on the ``cli`` thread pool) takes the request's open root span as
its parent.  Only one request is in flight at a time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# span name -> (module, attribute path); the span name's first part is the layer
TARGETS = {
    "cli.parse_config": ("memchannel.cli", "parse_config"),
    "cli.run": ("memchannel.cli", "run"),
    "experiments.coherent_sweep": ("memchannel.experiments", "coherent_sweep"),
    "experiments.holevo_sweep": ("memchannel.experiments", "holevo_sweep"),
    "experiments.dephasing_comparison": ("memchannel.experiments", "dephasing_comparison"),
    "dynamics.run_schedule": ("memchannel.dynamics", "run_schedule"),
    "dynamics.run_ensemble": ("memchannel.dynamics", "run_ensemble"),
    "infomeasures.von_neumann_entropy": ("memchannel.infomeasures", "von_neumann_entropy"),
    "infomeasures.coherent_information": ("memchannel.infomeasures", "coherent_information"),
    "infomeasures.holevo_information": ("memchannel.infomeasures", "holevo_information"),
    "infomeasures.mutual_information": ("memchannel.infomeasures", "mutual_information"),
    "infomeasures.holevo_via_enlarged": ("memchannel.infomeasures", "holevo_via_enlarged"),
    # the per_use_* spans keep their time out of the experiments layer's self time
    "infomeasures.per_use_reduction": ("memchannel.infomeasures", "per_use_reduction"),
    "infomeasures.per_use_holevo": ("memchannel.infomeasures", "per_use_holevo"),
    "states.purified_qubit_train": ("memchannel.states", "purified_qubit_train"),
    "states.holevo_separable_ensemble": ("memchannel.states", "holevo_separable_ensemble"),
    "states.DensityMatrix.ptrace": ("memchannel.states", "DensityMatrix.ptrace"),
    "states.Ensemble.average_state": ("memchannel.states", "Ensemble.average_state"),
    "qlinalg.partial_trace": ("memchannel.qlinalg", "partial_trace"),
    "qlinalg.eigvals_hermitian": ("memchannel.qlinalg", "eigvals_hermitian"),
    "admap.eta_gamma": ("memchannel.admap", "eta_gamma"),
    "admap.memoryless_Q": ("memchannel.admap", "memoryless_Q"),
    "admap.memoryless_C1": ("memchannel.admap", "memoryless_C1"),
}

LAYERS = ("cli", "experiments", "dynamics", "infomeasures", "states", "qlinalg", "admap")


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "memchannel" or name.startswith("memchannel."))]


def bindings() -> dict:
    """Every module global and class attribute of the program, by identity."""
    out = {}
    for mod in _program_modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = id(obj)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    out[(mod.__name__, f"{name}.{attr}")] = id(val)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None  # set by the benchmark loop; one request in flight
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._saved: list[tuple] = []  # (namespace object, attribute, original)

    def _wrap(self, name: str, fn):
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else self._root
            is_root = parent is None
            if is_root:
                self._root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                spans.append((sid, parent, name, t0, t1, self.request))

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        for name, (mod_name, path) in TARGETS.items():
            owner = importlib.import_module(mod_name)
            if "." in path:  # method: replace it on its class only
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for gname, obj in list(vars(mod).items()):
                    if obj is original:
                        self._saved.append((mod, gname, original))
                        setattr(mod, gname, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, req in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0,
                                     "end": t1, "request": req}) + "\n")


def _covered(interval, children) -> float:
    """Length of the part of ``interval`` that the child intervals cover."""
    lo, hi = interval
    total, cur_lo, cur_hi = 0.0, None, None
    for c_lo, c_hi in sorted(children):
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_hi <= c_lo:
            continue
        if cur_hi is None or c_lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        else:
            cur_hi = max(cur_hi, c_hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> dict:
    """Per span name: calls, busy (summed duration) and self time.

    Self time is a span's duration minus the part of it its child spans
    cover; children on pool threads may overlap one another.
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, _, name, t0, t1, _ in spans:
        s = stats[name]
        s["calls"] += 1
        s["busy_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - _covered((t0, t1), children.get(sid, ()))
    return stats


def outermost_busy(spans, layer: str) -> float:
    """Summed duration of ``layer`` spans whose parent is not in that layer."""
    names = {sid: name for sid, _, name, _, _, _ in spans}
    prefix = layer + "."
    return sum(t1 - t0 for _, parent, name, t0, t1, _ in spans
               if name.startswith(prefix) and not names.get(parent, "").startswith(prefix))
