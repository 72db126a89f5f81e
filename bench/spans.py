"""Spans recorded from the benchmark's side of each call into handsmooth.

``Tracer.install`` replaces the public functions of each module with wrappers,
at the module attribute where their callers look them up, and ``uninstall``
puts the originals back. A span is ``[name, start_ns, end_ns, parent, run_id]``;
spans stay in memory and are written once, at the end of the run. Cyclic GC
passes become ``gc.collect`` spans through ``gc.callbacks``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from collections import defaultdict

TAPE = "[tape]"  # suffix of a span whose call received a tape Tensor

# (module, attribute, span name): one row per place a caller looks a function up.
PATCHES = (
    ("cli", "main", "cli.main"),
    ("formats", "load_sequence", "formats.load_sequence"),
    ("formats", "save_sequence", "formats.save_sequence"),
    ("smoother", "smooth", "smoother.smooth"),
    ("smoother", "adamw_step", "smoother.adamw_step"),
    ("smoother", "loss_components", "objective.loss_components"),
    ("smoother", "make_flat_objective", "objective.make_flat_objective"),
    ("objective", "make_flat_objective", "objective.make_flat_objective"),
    ("objective", "acceleration_loss", "objective.acceleration_loss"),
    ("objective", "reprojection_loss", "objective.reprojection_loss"),
    ("objective", "fk_joints", "hand_model.fk_joints"),
    ("hand_model", "rotation_matrices", "hand_model.rotation_matrices"),
    ("hand_model", "bone_scales", "hand_model.bone_scales"),
    ("camera", "project_points_masked", "camera.project_points_masked"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "reprojection_px", "metrics.reprojection_px"),
    ("autodiff", "record_and_backprop", "autodiff.record_and_backprop"),
    ("autodiff", "check_gradient", "autodiff.check_gradient"),
    ("synth", "random_problem", "synth.random_problem"),
)
LAYERS = ("autodiff", "hand_model", "camera", "objective", "smoother",
          "metrics", "formats", "synth", "cli", "gc", "bench")


class Tracer:
    def __init__(self, hs):
        self.hs = hs
        self.spans = []
        self.gc_collected = {}  # span index -> objects freed by that GC pass
        self.run_id = ""
        self._stack = []
        self._saved = []
        self._gc_span = None

    # ----- recording -----

    def _open(self, name: str) -> int:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id]
        self.spans.append(rec)
        i = len(self.spans) - 1
        self._stack.append(i)
        rec[1] = time.perf_counter_ns()
        return i

    def _close(self, i: int):
        self.spans[i][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_span = self._open("gc.collect")
        elif self._gc_span is not None:
            self._close(self._gc_span)
            self.gc_collected[self._gc_span] = info["collected"]
            self._gc_span = None

    def wrap(self, name: str, fn):
        tensor = self.hs.autodiff.Tensor
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name + TAPE if any(isinstance(a, tensor) for a in args) else name
            i = tracer._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def _wrap_factory(self, name: str, make):
        """Wrap make_flat_objective and the objective closures it returns."""
        wrapped = self.wrap(name, make)

        @functools.wraps(make)
        def traced(*args, **kwargs):
            return self.wrap("objective.objective", wrapped(*args, **kwargs))

        return traced

    # ----- switching on and off -----

    def install(self):
        for module_name, attr, name in PATCHES:
            module = getattr(self.hs, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if attr == "make_flat_objective":
                setattr(module, attr, self._wrap_factory(name, original))
            else:
                setattr(module, attr, self.wrap(name, original))
        report_cls = self.hs.smoother.LossReport
        self._saved.append((report_cls, "save", report_cls.save))
        report_cls.save = self.wrap("smoother.LossReport.save", report_cls.save)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                       "gc_collected": self.gc_collected, "spans": self.spans}, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Analysis:
    """Self time and counts derived from a span list."""

    def __init__(self, spans, gc_collected):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0] * n
        self.children = defaultdict(list)
        self.root = list(range(n))
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                child[p] += self.dur[i]
                self.children[p].append(i)
                self.root[i] = self.root[p]
        self.self_ns = [self.dur[i] - child[i] for i in range(n)]
        self.gc_collected = gc_collected

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == name]

    def self_by_layer(self, root_name: str) -> dict:
        """Mean self time per root span, in ms, for every layer."""
        roots = set(self.roots(root_name))
        totals = dict.fromkeys(LAYERS, 0)
        for i, s in enumerate(self.spans):
            if self.root[i] in roots:
                totals[layer_of(s[0])] += self.self_ns[i]
        count = max(len(roots), 1)
        return {layer: ns / count / 1e6 for layer, ns in totals.items()}

    def self_by_span(self, root_name: str) -> list:
        """[name, self ms per root, calls per root] for each span name under
        the roots, largest self time first."""
        roots = set(self.roots(root_name))
        out = defaultdict(lambda: [0, 0])
        for i, s in enumerate(self.spans):
            if self.root[i] in roots:
                out[s[0]][0] += self.self_ns[i]
                out[s[0]][1] += 1
        count = max(len(roots), 1)
        rows = [[name, ns / count / 1e6, calls / count] for name, (ns, calls) in out.items()]
        return sorted(rows, key=lambda row: -row[1])

    def within(self, name: str):
        """Indices of spans that are, or lie under, a span with this name."""
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s[3]
            inside[i] = s[0] == name or (p >= 0 and inside[p])
        return inside

    def gc_per_tape_pass(self, primary: str):
        """GC pause (ms) and objects freed per tape pass inside ``primary``."""
        inside = self.within(primary)
        passes = pause = freed = 0
        for i, s in enumerate(self.spans):
            if not inside[i]:
                continue
            if s[0].startswith("autodiff.record_and_backprop"):
                passes += 1
            elif s[0] == "gc.collect":
                pause += self.dur[i]
                freed += self.gc_collected.get(i, 0)
        passes = max(passes, 1)
        return pause / passes / 1e6, freed / passes
