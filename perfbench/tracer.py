"""Per-layer call tracing of ncharm, installed from outside the package.

`Tracer.install` replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent span, op id), and
rebinds every `from .x import f` copy of it inside the package, so calls
between layers are seen too.  `Tracer.uninstall` puts the originals back.
Nothing here is imported by ncharm itself: without `install` the package
runs exactly as shipped.

A layer's self time is the sum of its spans' durations minus the part
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "ncpoly",
    "calculus",
    "harmonicspace",
    "_exactla",
    "middlematrix",
    "positivity",
    "classify2",
    "cli",
)

# Per-word helpers run inside sort keys and renders, many thousands of times
# per op; a wrapper would cost more than the call and swamp the layer totals.
SKIP = {"ncpoly.word", "ncpoly.word_key", "ncpoly.transpose_word", "ncpoly.render_word"}

# Public methods traced in addition to module functions: (layer, class, method).
METHODS = (("ncpoly", "Poly", "render"),)

SAMPLER = "positivity.sample_matrix_positive"
VERDICT_KINDS = (
    "Harmonic",
    "PurelySubharmonicCertified",
    "SubharmonicBoundaryCertified",
    "NotSubharmonic",
    "Unknown",
)


def _count_system(counts, system):
    counts["harmonicspace.rows"] += len(system.row_words)
    counts["harmonicspace.cols"] += len(system.col_words)


def _count_basis(counts, basis):
    counts["harmonicspace.dim"] += basis.dimension


def _count_sample(counts, verdict):
    counts["positivity.samples_tested"] += verdict.samples_tested
    if verdict.witness is not None:
        counts["positivity.witnesses"] += 1
        counts["positivity.points_to_witness_total"] += verdict.samples_tested


def _count_verdict(counts, verdict):
    counts["classify2.branch." + verdict.kind] += 1
    if verdict.kind == "NotSubharmonic":
        counts["classify2.refutations"] += 1
        counts["classify2.witnesses"] += verdict.witness is not None


HOOKS = {
    "harmonicspace.laplacian_coefficient_matrix": _count_system,
    "harmonicspace.harmonic_basis": _count_basis,
    SAMPLER: _count_sample,
    "classify2.classify": _count_verdict,
}


class Tracer:
    """Records spans while `recording` is true; wrappers stay inert otherwise,
    so output checks made between ops never add spans."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counts: defaultdict = defaultdict(int)
        self.recording = False
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module("ncharm." + layer) for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if (
                    name in SKIP
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        package = [m for n, m in sys.modules.items() if n == "ncharm" or n.startswith("ncharm.")]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        for layer, cls_name, method in METHODS:
            owner = getattr(modules[layer], cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
            self._patches.append((owner, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_stats(self) -> dict:
        """name -> [calls, self seconds] over every recorded span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += (end - start) - covered[i]
        return stats

    def calls_inside(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def write(self, path) -> None:
        """Spans as JSON lines: op id, name, start and end in µs, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([op, name, round(start * 1e6), round(end * 1e6), parent]))
                fh.write("\n")
