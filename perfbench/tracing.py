"""Per-layer tracing of cmvpencil from outside the package.

The tracer rebinds the public functions of each package module, and every
other module-level name bound to them (the package's own re-exports, the
other modules' imports and the loaded scripts), to wrappers that record
spans: name, start, end, parent span and pass id.  Spans stay in memory and
are written out when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

Functions that run about 1e5 times per pass (``ReflectionSequence.__call__``,
which ``ReflectionSequence.r`` goes through, and the ``eval_*`` and
``szego_eval`` helpers) are counted only, so their time is charged to the
calling span and the wrapper cost does not swamp what it measures.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import statistics
import time
from collections import defaultdict

import numpy as np

import cmvpencil
from cmvpencil import cli, cmv, dunkl, maps, measures, recurrences, verify

LAYER_MODULES = (recurrences, maps, cmv, measures, dunkl, verify, cli)
COUNT_ONLY = {"eval_monic", "eval_symmetric", "szego_eval"}
# category of a spanned function; a function not listed takes its layer's name
CATEGORY = {
    "build_L": "cmv.build",
    "build_M": "cmv.build",
    "build_J": "cmv.build",
    "build_K": "cmv.build",
    "build_H": "cmv.build",
    "banded_product": "cmv.product",
    "verify_identities": "cmv.identities",
    "tridiagonal_eigenvalues": "cmv.eigen",
    "BandedSymmetricMatrix.eigenvalues": "cmv.eigen",
    "stieltjes_recurrence": "measures.stieltjes",
    "integrate": "measures.integrate",
    "m_per": "measures.weyl",
    "m_full": "measures.weyl",
    "weyl_point": "measures.weyl",
    "roots_jacobi": "measures.rule",
}
SUBDIVIDED_LAYERS = ("cmv", "measures")  # their other functions: "<layer>.other"
QUADRATURE = ("measures.stieltjes", "measures.integrate")
STATIC_METHODS = (
    (recurrences.ReflectionSequence, "from_list"),
    (recurrences.ReflectionSequence, "constant"),
    (recurrences.MonicThreeTerm, "from_arrays"),
)
DUNKL_CHECKS = {
    "verify_eigenfunction",
    "third_kind_identity_residual",
    "fourth_kind_identity_residual",
}
# per-pass medians reported as they are recorded
PER_PASS = (
    "recurrences.reflection_reads",
    "recurrences.eval_calls",
    "recurrences.szego_steps",
    "recurrences.self_s",
    "maps.calls",
    "maps.self_s",
    "cmv.build_self_s",
    "cmv.product_self_s",
    "cmv.identities_self_s",
    "cmv.eigen_self_s",
    "cmv.dense_bytes",
    "measures.rule_calls",
    "measures.rule_self_s",
    "measures.nodes",
    "measures.stieltjes_self_s",
    "measures.integrate_self_s",
    "measures.weyl_calls",
    "measures.weyl_self_s",
    "dunkl.checks",
    "dunkl.self_s",
    "verify.checks",
    "verify.checks_failed",
    "verify.self_s",
    "cli.self_s",
    "cli.bytes_out",
    *(f"verify.suite_s.{suite}" for suite in verify.SUITES),
)
# metric -> function whose per-call time is fitted against its size
EXPONENTS = {
    "cmv.identities_exponent": "verify_identities",
    "cmv.eigen_exponent": "tridiagonal_eigenvalues",
    "cmv.build_exponent": "build_K",
    "measures.stieltjes_exponent": "stieltjes_recurrence",
    "dunkl.exponent": "verify_eigenfunction",
}


def _dim_arg(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (cmv.TruncationSpec, cmv.BandedSymmetricMatrix)):
            return value.dim
    return 0


# size recorded with a span, for the scaling exponents and the suite times
SIZE_OF = {
    "verify_identities": _dim_arg,
    "build_K": _dim_arg,
    "tridiagonal_eigenvalues": _dim_arg,
    "stieltjes_recurrence": lambda args, kwargs: kwargs.get("n_max", args[1] if len(args) > 1 else 0),
    "verify_eigenfunction": lambda args, kwargs: kwargs.get("n", args[3] if len(args) > 3 else 0),
    "run_suite": lambda args, kwargs: kwargs.get("name", args[0] if args else ""),
    "roots_jacobi": lambda args, kwargs: args[0],
}


def _key(category: str, what: str) -> str:
    """Per-pass key: "cmv.build" -> "cmv.build_self_s", "maps" -> "maps.self_s"."""
    return f"{category}_{what}" if "." in category else f"{category}.{what}"


class Tracer:
    """Span recorder; begin_pass() installs the wrappers, end_pass() removes them."""

    def __init__(self, extra_modules=()):
        self.active = False
        self.pass_id = -1
        self.spans = []  # (name index, start, end, parent index, pass id, size)
        self.names = []  # "<category>:<function>"
        self._name_index = {}
        self.stack = []
        self.counts = defaultdict(int)
        self.pass_counts = {}  # traced pass id -> its counts
        self.rule_keys = []  # (pass id, (n, gr, gl)) per Gauss-Jacobi rule generation
        self._namespaces = (cmvpencil, *LAYER_MODULES, *extra_modules)
        self._patches = []
        self._function_wrappers = {}  # original function -> wrapper
        self._class_patches = []  # (class, attribute, wrapper)
        self._build_wrappers()

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, fn, category, fname, on_result=None):
        name = f"{category}:{fname}"
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = self._name_index[name]
        size_of = SIZE_OF.get(fname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                size = size_of(args, kwargs) if size_of else 0
                spans[sid] = (idx, t0, t1, stack[-1] if stack else -1, self.pass_id, size)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, kind: str, call):
        """Run one op of the benchmark inside a span of its own."""
        return self._span_wrapper(call, "op", kind)()

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording, e.g. while a correctness gate runs."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, key: str, amount: int = 1) -> None:
        if self.active:
            self.counts[key] += amount

    # -- wrappers ----------------------------------------------------------

    def _build_wrappers(self) -> None:
        counts = self.counts

        def counted(fn, steps=False):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active:
                    counts["recurrences.eval_calls"] += 1
                    if steps:
                        counts["recurrences.szego_steps"] += args[1]
                return fn(*args, **kwargs)

            return wrapper

        def suite_checks(args, kwargs, results):
            self.count("verify.checks", len(results))
            self.count("verify.checks_failed", sum(1 for r in results if not r.passed))

        def dense_product(args, kwargs, result):
            # verify_identities forms one dense matrix product, Jd @ Jd
            self.count("cmv.dense_bytes", 8 * _dim_arg(args, kwargs) ** 2)

        def dunkl_check(args, kwargs, result):
            self.count("dunkl.checks")

        hooks = {"run_suite": suite_checks, "verify_identities": dense_product}
        hooks.update(dict.fromkeys(DUNKL_CHECKS, dunkl_check))
        for module in LAYER_MODULES:
            layer = module.__name__.rsplit(".", 1)[-1]
            default = f"{layer}.other" if layer in SUBDIVIDED_LAYERS else layer
            for name in module.__all__:
                fn = getattr(module, name)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if name in COUNT_ONLY:
                    wrapper = counted(fn, steps=(name == "szego_eval"))
                else:
                    wrapper = self._span_wrapper(
                        fn, CATEGORY.get(name, default), name, hooks.get(name)
                    )
                self._function_wrappers[fn] = wrapper

        rule = self._span_wrapper(measures.roots_jacobi, "measures.rule", "roots_jacobi")

        @functools.wraps(measures.roots_jacobi)
        def rule_generation(n, *params):
            if self.active:
                counts["measures.rule_calls"] += 1
                counts["measures.nodes"] += int(n)
                self.rule_keys.append((self.pass_id, (int(n), *map(float, params))))
            return rule(n, *params)

        self._class_patches.append((measures, "roots_jacobi", rule_generation))

        read = recurrences.ReflectionSequence.__call__

        def reflection_read(obj, n):
            if self.active:
                counts["recurrences.reflection_reads"] += 1
            return read(obj, n)

        def dense(method):
            # bytes of the dense matrix materialized, computed from its shape
            @functools.wraps(method)
            def wrapper(obj):
                if self.active:
                    counts["cmv.dense_bytes"] += 8 * obj.dim * obj.dim
                return method(obj)

            return wrapper

        self._class_patches += [
            (recurrences.ReflectionSequence, "__call__", reflection_read),
            (cmv.BandedSymmetricMatrix, "to_dense", dense(cmv.BandedSymmetricMatrix.to_dense)),
            (cmv.BandedMatrix, "to_dense", dense(cmv.BandedMatrix.to_dense)),
            (
                cmv.BandedSymmetricMatrix,
                "eigenvalues",
                self._span_wrapper(
                    cmv.BandedSymmetricMatrix.eigenvalues, "cmv.eigen", "BandedSymmetricMatrix.eigenvalues"
                ),
            ),
        ]
        for cls, name in STATIC_METHODS:
            fn = cls.__dict__[name].__func__
            wrapper = self._span_wrapper(fn, "recurrences", f"{cls.__name__}.{name}")
            self._class_patches.append((cls, name, staticmethod(wrapper)))

    def _install(self) -> None:
        for namespace in self._namespaces:
            for attr, value in list(vars(namespace).items()):
                if callable(value) and value in self._function_wrappers:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, self._function_wrappers[value])
        for target, attr, wrapper in self._class_patches:
            self._patches.append((target, attr, vars(target)[attr]))
            setattr(target, attr, wrapper)

    def _uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- passes ------------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts.clear()
        self._install()
        self.active = True

    def end_pass(self) -> None:
        self.active = False
        self._uninstall()
        self.pass_counts[self.pass_id] = dict(self.counts)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV: pass, span, parent, name, start, end, size."""
        with gzip.open(path, "wt", newline="\n") as handle:
            handle.write("pass,span,parent,name,start,end,size\n")
            for sid, (idx, t0, t1, parent, pass_id, size) in enumerate(self.spans):
                handle.write(f"{pass_id},{sid},{parent},{self.names[idx]},{t0!r},{t1!r},{size}\n")

    def _per_pass(self):
        """Self time, calls and counts of each traced pass, plus (size, time)
        samples of the functions in EXPONENTS."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        category = [name.split(":", 1)[0] for name in self.names]
        function = [name.split(":", 1)[1] for name in self.names]
        per_pass = defaultdict(lambda: defaultdict(float))
        levels = defaultdict(set)  # quadrature span -> node counts it consumed
        sized = defaultdict(list)
        for sid, (idx, t0, t1, parent, pass_id, size) in enumerate(spans):
            cat, fname, bucket = category[idx], function[idx], per_pass[pass_id]
            bucket[_key(cat, "self_s")] += t1 - t0 - child[sid]
            bucket[_key(cat, "calls")] += 1
            if cat == "measures.rule" and parent >= 0 and category[spans[parent][0]] in QUADRATURE:
                levels[parent].add(size)
            if fname == "run_suite":
                bucket[f"verify.suite_s.{size}"] += t1 - t0
            elif fname in EXPONENTS.values():
                sized[fname].append((size, t1 - t0))
        for sid, consumed in levels.items():
            per_pass[spans[sid][4]]["measures.levels"] += len(consumed)
        for pass_id, counts in self.pass_counts.items():
            bucket = per_pass[pass_id]
            bucket.update(counts)
            bucket["measures.quad_calls"] = sum(bucket[_key(c, "calls")] for c in QUADRATURE)
            bucket["measures.rule_keys"] = len({k for p, k in self.rule_keys if p == pass_id})
            for layer in SUBDIVIDED_LAYERS:
                bucket[f"{layer}.self_s"] = sum(
                    v for k, v in bucket.items() if k.startswith(layer + ".") and k.endswith("_self_s")
                )
        return [per_pass[p] for p in self.pass_counts], sized

    def layer_metrics(self) -> dict:
        """Every per-layer metric: medians over traced passes, and exponents
        fitted over the whole run."""
        passes, sized = self._per_pass()

        def median(key):
            return statistics.median(p.get(key, 0) for p in passes)

        def median_ratio(num, den):
            return statistics.median(p[num] / p[den] if p.get(den) else 0.0 for p in passes)

        out = {name: median(name) for name in PER_PASS}
        out["cmv.self_s"] = median("cmv.self_s")
        out["measures.self_s"] = median("measures.self_s")
        out["measures.rule_keys"] = median("measures.rule_keys")
        out["measures.levels_per_call"] = median_ratio("measures.levels", "measures.quad_calls")
        out["measures.rule_reuse_ratio"] = statistics.median(
            1.0 - p["measures.rule_keys"] / p["measures.rule_calls"] if p.get("measures.rule_calls") else 0.0
            for p in passes
        )
        run_keys = {key for _, key in self.rule_keys}
        out["measures.rule_reuse_ratio_run"] = (
            1.0 - len(run_keys) / len(self.rule_keys) if self.rule_keys else 0.0
        )
        for metric, fname in EXPONENTS.items():
            slope, sizes = loglog_slope(sized.get(fname, []))
            if slope is not None:
                out[metric] = slope
                out[metric + "_sizes"] = sizes
        return out


def loglog_slope(samples):
    """Least-squares slope of log(median time) against log(size).

    Returns (slope, sizes), with slope None when fewer than two sizes >= 1
    were seen.
    """
    by_size = defaultdict(list)
    for size, duration in samples:
        if size >= 1 and duration > 0:
            by_size[size].append(duration)
    sizes = sorted(by_size)
    if len(sizes) < 2:
        return None, sizes
    x = np.log(np.array(sizes, dtype=float))
    y = np.log(np.array([statistics.median(by_size[s]) for s in sizes]))
    slope = float(np.polyfit(x, y, 1)[0])
    return (slope if math.isfinite(slope) else None), sizes
