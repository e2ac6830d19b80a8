"""Per-layer spans for the traced benchmark run, installed from outside the library.

``Tracer.install`` rebinds the module-level names that quadgrad's own code
looks up at call time (``quadgrad.optimizers.spectral_learning_rate``,
``quadgrad.gradients.solve``, ``quadgrad.bench.run``, ``CsvTable.emit``, ...)
to timing wrappers, and ``Tracer.objective`` wraps an objective's callables
with ``dataclasses.replace``. ``Tracer.uninstall`` puts every original back.
Nothing under ``src/`` is edited.

Spans are kept in memory as (name, start, end, parent, op, method) tuples:
``parent`` indexes the enclosing span, ``op`` is shared by every span of one
benchmark operation (one ``run()`` call or one CLI call) and ``method`` tags
``run()`` spans with the method label of their config. ``drain`` reduces the
spans of one pass to per-layer calls and self times, outside the timed
region, and clears them.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

from quadgrad import SingularMatrix, bench, gradients, optimizers

# Span names, in report order: <module>.<function> for the public functions
# of each layer under src/quadgrad/.
SPAN_NAMES = (
    "functions.value",
    "functions.gradient",
    "functions.hessian",
    "linalg.spectral_bounds",
    "linalg.solve",
    "linalg.pseudoinverse",
    "gradients.spectral_learning_rate",
    "gradients.bound_diagonal",
    "gradients.newton_ratios",
    "gradients.new_quadratic_gradient",
    "optimizers.step",
    "optimizers.run",
    "bench.run_experiment",
    "bench.emit",
    "bench.main",
)

STEP_FUNCTIONS = ("step_gd_spectral", "step_nag", "step_enhanced_adagrad", "step_adam")


class Tracer:
    def __init__(self, method_label):
        """``method_label(config)`` tags the spans of a ``run()`` call."""
        self.spans: list = []
        self.op = 0
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._method_label = method_label

    def _wrap(self, name, fn, observe=None, tag=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op,
                                tag(*args, **kwargs) if tag else None)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def objective(self, f):
        """A copy of ``f`` whose value, gradient and Hessian are traced."""
        return dataclasses.replace(
            f,
            value=self._wrap("functions.value", f.value),
            gradient=self._wrap("functions.gradient", f.gradient),
            hessian=self._wrap("functions.hessian", f.hessian),
        )

    def install(self):
        counts = self.counts
        original_solve = gradients.solve

        def counted_solve(*args, **kwargs):
            try:
                return original_solve(*args, **kwargs)
            except SingularMatrix:
                counts["singular"] += 1
                raise

        def count_exact(ratios):
            counts["exact"] += not ratios.used_pseudoinverse

        def count_bytes(text):
            counts["csv_bytes"] += len(text.encode("utf-8"))

        wrap = self._wrap
        for attr in ("spectral_learning_rate", "bound_diagonal", "new_quadratic_gradient"):
            self._patch(optimizers, attr, wrap(f"gradients.{attr}", getattr(optimizers, attr)))
        for attr in STEP_FUNCTIONS:
            self._patch(optimizers, attr, wrap("optimizers.step", getattr(optimizers, attr)))
        self._patch(gradients, "newton_ratios",
                    wrap("gradients.newton_ratios", gradients.newton_ratios, observe=count_exact))
        self._patch(gradients, "spectral_bounds",
                    wrap("linalg.spectral_bounds", gradients.spectral_bounds))
        self._patch(gradients, "solve", wrap("linalg.solve", counted_solve))
        self._patch(gradients, "pseudoinverse",
                    wrap("linalg.pseudoinverse", gradients.pseudoinverse))

        method_label = self._method_label
        traced_run = wrap("optimizers.run", optimizers.run,
                          tag=lambda f, config, x0: method_label(config))
        self._patch(optimizers, "run", traced_run)
        self._patch(bench, "run", traced_run)
        self._patch(bench, "run_experiment", wrap("bench.run_experiment", bench.run_experiment))
        self._patch(bench, "main", wrap("bench.main", bench.main))
        self._patch(bench.CsvTable, "emit",
                    wrap("bench.emit", bench.CsvTable.emit, observe=count_bytes))
        for attr in ("get_function", "rosenbrock"):
            factory = getattr(bench, attr)
            self._patch(bench, attr,
                        lambda *args, _factory=factory: self.objective(_factory(*args)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def drain(self) -> dict:
        """Per-layer totals of the spans recorded since the last drain.

        Self time is a span's duration minus the durations of its direct
        children; children nest inside their parent, so they never overlap.
        ``by_method`` splits calls and self time by the tag of the ``run()``
        span enclosing them.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        by_method: dict = defaultdict(lambda: {"runs": 0, "run_s": 0.0,
                                               "calls": Counter(), "self_s": Counter()})
        methods: list = [None] * len(spans)
        for index, (name, start, end, parent, _, tag) in enumerate(spans):
            method = tag or (methods[parent] if parent >= 0 else None)
            methods[index] = method
            own = end - start - covered[index]
            calls[name] += 1
            self_s[name] += own
            if method is not None:
                entry = by_method[method]
                entry["calls"][name] += 1
                entry["self_s"][name] += own
                if tag:
                    entry["runs"] += 1
                    entry["run_s"] += end - start
        totals = {
            "calls": {name: calls[name] for name in SPAN_NAMES},
            "self_s": {name: self_s[name] for name in SPAN_NAMES},
            "by_method": dict(by_method),
            "counts": {key: self.counts[key] for key in ("singular", "exact", "csv_bytes")},
        }
        spans.clear()
        self.counts.clear()
        return totals
