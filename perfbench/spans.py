"""Spans recorded from outside the program, around calls into its modules.

Tracing replaces a public function of a glogtda module by a wrapper in every
glogtda module that refers to it, so calls between modules are timed too
(``vectorize.build_features`` -> ``fibered.compute_fibered_barcode`` ->
``cubical_persistence.compute_persistence`` ...). Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, observer): the observer turns the call's arguments and
# result into counts stored on the span.
TARGETS = (
    ("volume_io", "load_dataset", None),
    ("kernels", "convolve", None),
    ("bifiltration", "compute_glog", None),
    ("bifiltration", "slice_scalar_field", None),
    ("cubical_persistence", "build_complex", lambda a, k, r: {"cells": int(r.n_cells)}),
    ("cubical_persistence", "compute_persistence", lambda a, k, r: _bars_by_degree(r.bars)),
    ("fibered", "compute_fibered_barcode", None),
    ("fibered", "clip_bars", lambda a, k, r: {"given": len(a[0]), "kept": len(r)}),
    ("fibered", "make_line_grid", None),
    ("vectorize", "compute_global_box", None),
    ("vectorize", "build_features", None),
    ("vectorize", "render_mpi", lambda a, k, r: {"degree": int(a[1])}),
    ("vectorize", "render_segments", lambda a, k, r: {"segments": len(a[0])}),
    ("vectorize", "features_to_csv", None),
    ("vectorize", "write_feature_bin", None),
    ("vectorize", "read_feature_bin", None),
    ("learn", "init_model", None),
    ("learn", "train", lambda a, k, r: {"epochs": len(r[1].rows)}),
    ("learn", "loss_and_grads", None),
    ("learn", "forward", None),
    ("learn", "auc", None),
    ("learn", "save_checkpoint", None),
)


def _bars_by_degree(bars) -> dict:
    out: dict = defaultdict(int)
    for b in bars:
        out[f"bars_h{b.degree}"] += 1
    return dict(out)


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "attrs")

    def __init__(self, name, start, parent, step):
        self.name, self.start, self.end = name, start, start
        self.parent, self.step, self.attrs = parent, step, {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; ``enabled`` switches recording without unwrapping."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)
        self.enabled = False
        self.step = None  # position of the benchmark step the open spans belong to

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), parent, self.step)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if observe is not None:
                    # a child span of its own, so counting is not charged to the layer
                    with self.span("trace.observe"):
                        sp.attrs.update(observe(args, kwargs, result))
                return result

        return traced

    def install(self, package) -> None:
        """Wrap every target wherever a glogtda module refers to it."""
        modules = [m for n, m in sys.modules.items() if n.startswith(package.__name__)]
        for mod_name, fn_name, observe in TARGETS:
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(owner, fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        self_t = self.self_times()
        rows = [
            {
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "parent": sp.parent,
                "step": sp.step,
                "self": s,
                **sp.attrs,
            }
            for sp, s in zip(self.spans, self_t)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
