"""Call counts and self time per layer, recorded from outside the program.

``patch`` replaces a function at every name through which htmem modules look
it up (module globals, or the class that defines a method), and puts the
originals back on exit. ``Tracer`` uses it to record one span per call:
name, start, end and the enclosing span. Spans stay in memory until the run
ends; a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute). An attribute "Class.method" is patched on
# every class of the module that defines ``method`` itself, so a rename or a
# merge of classes keeps it traced.
TARGETS = (
    ("world.observe", "htmem.world", "BlockWorld.observe"),
    ("world.step", "htmem.world", "BlockWorld.step"),
    ("world.oracle_reachable", "htmem.world", "BlockWorld.oracle_reachable"),
    ("world.encode_context", "htmem.world", "BlockWorld.encode_context"),
    ("world.generate_context", "htmem.world", "BlockWorld.generate_context"),
    ("data.collect_dataset", "htmem.data", "collect_dataset"),
    ("autodiff.backward", "htmem.autodiff", "Tape.backward"),
    ("autodiff.adam_step", "htmem.autodiff", "adam_step"),
    ("autodiff.mlp_apply", "htmem.autodiff", "mlp_apply"),
    ("cvae.train_cvae", "htmem.cvae", "train_cvae"),
    ("cvae.hallucinate", "htmem.cvae", "hallucinate"),
    ("connectivity.sample_cpc_batch", "htmem.connectivity", "sample_cpc_batch"),
    ("connectivity.sample_sptm_batch", "htmem.connectivity", "sample_sptm_batch"),
    ("connectivity.cpc_loss", "htmem.connectivity", "cpc_loss"),
    ("connectivity.sptm_bce_loss", "htmem.connectivity", "sptm_bce_loss"),
    ("connectivity.pairwise_logits", "htmem.connectivity", "ConnectivityModel.pairwise_logits"),
    ("plangraph.scheme_weights", "htmem.plangraph", "scheme_weights"),
    ("plangraph.shortest_path", "htmem.plangraph", "shortest_path"),
    ("controller.train_inverse", "htmem.controller", "train_inverse"),
    ("controller.execute", "htmem.controller", "execute"),
    ("controller.infer_action", "htmem.controller", "infer_action"),
    ("metrics.feasibility", "htmem.metrics", "feasibility"),
    ("metrics.completeness", "htmem.metrics", "completeness"),
    ("metrics.fidelity", "htmem.metrics", "fidelity"),
    ("pipeline.build_hallucination_pools", "htmem.pipeline", "build_hallucination_pools"),
)


def _lookup_sites(module_name, attr):
    """(namespace, name, original) for every place callers find ``attr``."""
    module = sys.modules[module_name]
    if "." in attr:
        method = attr.split(".")[1]
        owners = {
            base
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module_name
            for base in obj.__mro__
            if method in vars(base) and base.__module__ == module_name
        }
        if not owners:
            raise LookupError(f"{module_name} defines no class with a method {method!r}")
        return [(cls, method, vars(cls)[method]) for cls in sorted(owners, key=lambda c: c.__name__)]
    original = getattr(module, attr)
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "htmem" or name.startswith("htmem.")):
            continue
        for key, value in vars(mod).items():
            if value is original:
                sites.append((mod, key, original))
    return sites


@contextlib.contextmanager
def patch(module_name, attr, make_wrapper):
    """Replace ``attr`` with ``make_wrapper(original)`` at every lookup site."""
    sites = _lookup_sites(module_name, attr)
    wrappers = {}
    try:
        for ns, key, original in sites:
            if id(original) not in wrappers:
                wrappers[id(original)] = make_wrapper(original)
            setattr(ns, key, wrappers[id(original)])
        yield
    finally:
        for ns, key, original in sites:
            setattr(ns, key, original)


class Tracer:
    """In-memory span recorder; ``active`` is cleared while the benchmark
    runs its own checks so that they do not count as program work."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.active = True

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _open(self, name_id):
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name):
        name_id = self._name_id(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                sid = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(sid)

            return traced

        return make

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for name, module_name, attr in TARGETS:
                stack.enter_context(patch(module_name, attr, self.wrap(name)))
            yield self

    def summary(self) -> dict:
        """name -> (calls, self seconds)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        secs = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
