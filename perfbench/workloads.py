"""The three closed-loop workloads.

One client issues each op and waits for its result before issuing the next.
An op is one call into the public API; a pass is a workload's fixed list of
ops.  Inputs come from the run's seed only.  Every result goes through a gate
from ``gates`` outside the timed interval; an exception or a failed gate
counts as a failed op and the run goes on.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import time
import traceback
from collections import defaultdict
from fractions import Fraction

import numpy as np

import gates
import hostref
from cmvpencil import cli, cmv, dunkl, maps, measures, recurrences

# parameter ranges of the shipped suites and scripts
SDG_XI, SDG_ETA = (-0.25, 1.0), (0.0, 0.75)
BIG_M1_XI, BIG_M1_ETA, BIG_M1_LAM = (0.0, 0.5), (0.0, 1.0), (2.0, 3.0)
# lam = 1 closes the gap between the two bands of the periodic weight; near it
# the quadrature raises NonConvergenceError (seen at |lam - 1| = 1.2e-4), so
# lam is drawn from each side with the gap open, as the shipped suite's 0.5, 2
PERIODIC_LAM = ((0.5, 0.9), (1.1, 2.0))
PENCIL_XI_ETA, PENCIL_LAM = (-0.5, 1.0), (0.25, 3.0)
WEYL_LAM = (0.5, 3.0)


class Tally:
    """Op accounting of one run: per-pass time of each op kind, failures.

    Within a pass, the host reference kernel runs before the first op,
    after the last, and between ops whenever SEGMENT_S of op time has gone
    by since it last ran.  ``times`` holds each kind's wall time in the
    pass; ``scaled`` holds it scaled segment by segment to the reference
    host speed (``hostref``).
    """

    SEGMENT_S = 0.25

    def __init__(self, tracer=None, host_kernel: str = "interpreted"):
        self.tracer = tracer
        self.host_kernel = host_kernel
        self.attempted = 0
        self.failed = 0
        self.times = defaultdict(float)
        self.scaled = defaultdict(float)
        self.ref_samples = []
        self.errors = []
        self._segment = defaultdict(float)
        self._segment_ref = None

    def _paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _sample_host(self) -> float:
        with self._paused():
            ref = hostref.sample(self.host_kernel)
        self.ref_samples.append(ref)
        return ref

    def begin_pass(self) -> None:
        self.times = defaultdict(float)
        self.scaled = defaultdict(float)
        self._segment = defaultdict(float)
        self._segment_ref = self._sample_host()

    def end_pass(self) -> None:
        self._close_segment()
        self._segment_ref = None

    def _close_segment(self) -> None:
        ref = self._sample_host()
        factor = hostref.REFERENCE_S / (0.5 * (self._segment_ref + ref))
        for kind, seconds in self._segment.items():
            self.scaled[kind] += seconds * factor
        self._segment = defaultdict(float)
        self._segment_ref = ref

    def _record(self, kind: str, seconds: float) -> None:
        self.times[kind] += seconds
        self._segment[kind] += seconds

    def _fail(self, kind: str, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {why}")

    def op(self, kind: str, call, gate, count: int = 1):
        """Time ``call`` as ``count`` ops of ``kind``, then gate its result.

        ``gate`` returns a truth value for a single op, or the number of
        failed ops when ``count`` > 1.
        """
        self.attempted += count
        t0 = time.perf_counter()
        try:
            result = self.tracer.run_op(kind, call) if self.tracer else call()
        except Exception:  # an op that raises is a failed op; the run goes on
            self._record(kind, time.perf_counter() - t0)
            self._fail(kind, count, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None
        self._record(kind, time.perf_counter() - t0)
        with self._paused():
            try:
                verdict = gate(result)
            except Exception:
                verdict = False
        bad = int(verdict) if count > 1 else (0 if verdict else 1)
        if bad:
            self._fail(kind, bad, "correctness gate failed")
        if self._segment_ref is not None and sum(self._segment.values()) >= self.SEGMENT_S:
            self._close_segment()
        return result


def cli_call(argv, tally: Tally | None = None):
    """Run ``cmvpencil <argv>`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    if tally is not None and tally.tracer is not None:
        tally.tracer.count("cli.bytes_out", len(text.encode()))
    return code, text


def script_call(module, argv):
    """Run a script's main(argv) in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = module.main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
    return code, buf.getvalue()


def load_script(root: str, name: str):
    path = os.path.join(root, "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _draw(rng, bounds):
    return float(rng.uniform(*bounds))


class Battery:
    """Every user's and CI's job at the shipped sizes: the full nine-suite
    ``cmvpencil verify`` plus the two scripts.  Inputs repeat in every pass;
    the seed picks only the script arguments."""

    name = "battery"
    kinds = ("verify_s", "scripts_s")
    busy_layers = ("verify", "maps", "recurrences", "dunkl", "measures", "cmv at dim 64 only")
    idle_layers = ()
    inputs_repeat = True
    host_kernel = "interpreted"

    def __init__(self, root: str, seed: int):
        self.sweep = load_script(root, "spectrum_sweep")
        self.tables = load_script(root, "weight_tables")
        self.script_modules = (self.sweep, self.tables)
        rng = np.random.default_rng([seed, 0])
        fmt = lambda v: "%.4f" % v
        self.sweep_argv = [
            "--xi", fmt(_draw(rng, PENCIL_XI_ETA)), "--eta", fmt(_draw(rng, PENCIL_XI_ETA)),
        ]
        self.table_argvs = [
            ["--family", "sdg", "--xi", fmt(_draw(rng, SDG_XI)), "--eta", fmt(_draw(rng, SDG_ETA))],
            [
                "--family", "big_m1", "--xi", fmt(_draw(rng, BIG_M1_XI)),
                "--eta", fmt(_draw(rng, BIG_M1_ETA)), "--lam", fmt(_draw(rng, BIG_M1_LAM)),
            ],
            ["--family", "periodic", "--lam", fmt(_draw(rng, PERIODIC_LAM[int(rng.integers(2))]))],
        ]
        self.reference = None

    def inputs(self, pass_id: int):
        return None

    def run_pass(self, tally: Tally, _inputs) -> None:
        out = tally.op(
            "verify_s",
            lambda: cli_call(["verify"], tally),
            lambda res: gates.verify_ok(res, self.reference),
        )
        if self.reference is None and out is not None and gates.verify_ok(out, None):
            self.reference = out[1]
        tally.op("scripts_s", lambda: script_call(self.sweep, self.sweep_argv), gates.script_ok)
        for argv in self.table_argvs:
            tally.op("scripts_s", lambda: script_call(self.tables, argv), gates.script_ok)


class PencilScale:
    """Pencil matrices at scale: full spectra against counts only, banded
    identities, and banded builds.  Fresh reflections and lam every pass."""

    name = "pencil-scale"
    kinds = ("spectrum_full_s", "spectrum_count_s", "identities_s", "build_s")
    busy_layers = ("cmv", "recurrences (reflection reads)", "cli", "verify (spectrum suite)")
    idle_layers = ("measures", "dunkl", "maps")
    inputs_repeat = False
    host_kernel = "array"
    SPECTRUM_DIMS = (2000, 6000)
    COUNT_DIM = 4000
    IDENTITY_DIMS = (1024, 2048)
    BUILD_DIM = 100_000
    SPOTS = 64

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.script_modules = ()
        self.reference = None

    def inputs(self, pass_id: int):
        rng = np.random.default_rng([self.seed, 1, pass_id])
        xi, eta = _draw(rng, PENCIL_XI_ETA), _draw(rng, PENCIL_XI_ETA)
        lam = _draw(rng, PENCIL_LAM)
        # random reflections drawn as the matrix-identities suite draws them
        raw = rng.uniform(-0.95, 0.95, size=self.BUILD_DIM + 2)
        spots = np.sort(rng.choice(self.BUILD_DIM, size=self.SPOTS, replace=False))
        seqs = {
            dim: recurrences.ReflectionSequence.from_list(raw[: dim + 2].tolist())
            for dim in (*self.IDENTITY_DIMS, self.BUILD_DIM)
        }
        return dict(
            xi=xi, eta=eta, lam=lam, raw=raw, spots=spots, seqs=seqs,
            jacobi=recurrences.jacobi_opuc_reflections(xi, eta),
        )

    def run_pass(self, tally: Tally, inp) -> None:
        xi, eta, lam = inp["xi"], inp["eta"], inp["lam"]
        for dim in self.SPECTRUM_DIMS:
            argv = [
                "spectrum", "--dim", str(dim),
                "--xi", repr(xi), "--eta", repr(eta), "--lambda", repr(lam),
            ]
            tally.op(
                "spectrum_full_s",
                lambda: cli_call(argv, tally),
                lambda res: gates.spectrum_ok(res, dim, xi, eta, lam),
            )
        out = tally.op(
            "spectrum_count_s",
            lambda: cli_call(["verify", "--suite", "spectrum", "--dim", str(self.COUNT_DIM)], tally),
            lambda res: gates.verify_ok(res, self.reference),
        )
        if self.reference is None and out is not None and gates.verify_ok(out, None):
            self.reference = out[1]
        for dim in self.IDENTITY_DIMS:
            a = inp["seqs"][dim]
            tally.op(
                "identities_s",
                lambda: cmv.verify_identities(a, lam, cmv.TruncationSpec(n_blocks=dim // 2)),
                gates.identities_ok,
            )
        trunc = cmv.TruncationSpec(n_blocks=self.BUILD_DIM // 2)
        tally.op(
            "build_s",
            lambda: cmv.build_K(inp["jacobi"], lam, trunc),
            lambda K: gates.build_K_ok(K, xi, eta, lam, inp["spots"]),
        )
        tally.op(
            "build_s",
            lambda: cmv.build_H(inp["seqs"][self.BUILD_DIM], trunc),
            lambda H: gates.build_H_ok(H, inp["raw"], inp["spots"]),
        )


class WeightsExact:
    """Weights to recurrences by quadrature, exact operator eigenfunctions,
    and Weyl-function batches.  Fresh parameters every pass; within a pass
    the degree ladder reuses the same Gauss-Jacobi rules."""

    name = "weights-exact"
    kinds = ("recover_s", "eigencheck_s", "weyl_s")
    busy_layers = ("measures", "dunkl")
    idle_layers = ("cmv", "verify", "cli")
    inputs_repeat = False
    host_kernel = "interpreted"
    RECOVERY_DEGREES = (6, 12, 18, 24, 30)
    DRAWS_PER_FAMILY = 2
    EIGEN_DEGREES = range(0, 31)
    WEYL_POINTS = 2000
    WEYL_LAMS = 3

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.script_modules = ()

    def inputs(self, pass_id: int):
        rng = np.random.default_rng([self.seed, 2, pass_id])
        weights = []
        for draw in range(self.DRAWS_PER_FAMILY):
            xi, eta = _draw(rng, SDG_XI), _draw(rng, SDG_ETA)
            weights.append((
                measures.named_weight("sdg", xi=xi, eta=eta),
                recurrences.sdg_recurrence(recurrences.jacobi_opuc_reflections(xi, eta)),
            ))
            params = maps.big_m1_parameters(
                _draw(rng, BIG_M1_XI), _draw(rng, BIG_M1_ETA), _draw(rng, BIG_M1_LAM)
            )
            weights.append((
                measures.named_weight("big_m1", alpha=params.alpha, beta=params.beta, c=params.c),
                params.resolved,
            ))
            lam = _draw(rng, PERIODIC_LAM[draw % 2])
            weights.append((
                measures.named_weight("periodic", lam=lam),
                recurrences.pencil_recurrence(recurrences.ReflectionSequence.constant(0.0), lam),
            ))
        gram_pairs = [tuple(int(v) for v in rng.choice(13, size=2, replace=False)) for _ in weights]
        q = [int(v) for v in rng.integers(1, 5, size=3)]
        alpha = Fraction(int(rng.integers(0, 2 * q[0] + 1)), q[0])
        beta = Fraction(int(rng.integers(0, q[1] + 1)), q[1])
        c = Fraction(int(rng.integers(0, q[2] + 1)), 2 * q[2])
        n = self.WEYL_POINTS
        z = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.1, 2.0, n)
        z[1::2] = z[1::2].conjugate()
        lams = [_draw(rng, WEYL_LAM) for _ in range(self.WEYL_LAMS)]
        return dict(weights=weights, gram_pairs=gram_pairs, dunkl=(alpha, beta, c), z=z, lams=lams)

    def run_pass(self, tally: Tally, inp) -> None:
        for (measure, closed), (n, k) in zip(inp["weights"], inp["gram_pairs"]):
            for n_max in self.RECOVERY_DEGREES:
                tally.op(
                    "recover_s",
                    lambda: measures.stieltjes_recurrence(measure, n_max, tol=1e-9),
                    lambda rec: gates.recovery_ok(rec, closed, n_max),
                )
            tally.op(
                "recover_s",
                lambda: measures.gram(measure, closed, closed, n, k),
                gates.gram_ok,
            )
        alpha, beta, c = inp["dunkl"]
        for n in self.EIGEN_DEGREES:
            tally.op(
                "eigencheck_s",
                lambda: dunkl.verify_eigenfunction(alpha, beta, c, n),
                lambda report: gates.eigenfunction_ok(report, n, alpha, beta),
            )
        z = inp["z"]
        points = z.tolist()
        for lam in inp["lams"]:
            for fn, composed in ((measures.m_per, False), (measures.m_full, True)):
                tally.op(
                    "weyl_s",
                    lambda: [fn(p, lam) for p in points],
                    lambda values: gates.weyl_failures(z, values, lam, composed),
                    count=len(points),
                )


WORKLOADS = {cls.name: cls for cls in (Battery, PencilScale, WeightsExact)}
