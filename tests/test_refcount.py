"""What a public call creates is freed by reference counting alone.

A reference cycle waits for CPython's cyclic collector, whose full passes
are rare, so a loop of calls on fresh inputs would hold every dropped
object until then.
"""

import collections
import contextlib
import gc
import importlib.util
import io
import os
from fractions import Fraction

from cmvpencil import cli
from cmvpencil.cmv import (
    TruncationSpec,
    band_census,
    build_H,
    build_J,
    build_K,
    build_L,
    build_M,
    verify_identities,
)
from cmvpencil.dunkl import verify_eigenfunction
from cmvpencil.measures import (
    essential_spectrum_periodic,
    m_full,
    m_per,
    named_weight,
    stieltjes_recurrence,
)
from cmvpencil.recurrences import CirclePoint, jacobi_opuc_reflections, szego_eval

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(f"refcount_{name}", os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP, TABLES = _load_script("spectrum_sweep"), _load_script("weight_tables")


def _public_calls(k: int) -> None:
    """One round of the public entry points; k varies the inputs between rounds."""
    xi, eta, lam = 0.3 + 0.1 * k, 0.7 - 0.1 * k, 2.0 + 0.25 * k
    a = jacobi_opuc_reflections(xi, eta)
    trunc = TruncationSpec.from_dim(64)
    for build in (build_L, build_M, build_J, build_H):
        build(a, trunc)
    K = build_K(a, lam, trunc)
    verify_identities(a, lam, trunc)
    band_census(K, essential_spectrum_periodic(lam), 0.05)
    szego_eval(a, 20, CirclePoint(0.3 + k))
    stieltjes_recurrence(named_weight("sdg", xi=xi, eta=eta), 6)
    m_per(0.5j + k, lam)
    m_full(0.5j + k, lam)
    verify_eigenfunction(1 + k, 1, Fraction(1, 2 + k), 6)
    for argv in (
        ["spectrum", "--dim", "16", "--lambda", str(lam)],
        ["verify", "--suite", "spectrum"],
        ["recurrence", "--xi", str(xi)],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    for main, argv in (
        (SWEEP.main, ["--xi", str(xi), "--eta", str(eta), "--lams", "0.5", str(lam)]),
        (TABLES.main, ["--family", "periodic", "--lam", str(lam), "--n", "4"]),
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


def test_public_calls_leave_no_cyclic_garbage():
    _public_calls(0)  # warm up: lazy imports, the parsers, module caches
    gc.collect()
    gc.disable()
    try:
        _public_calls(1)
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        leftover = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert unreachable == 0, f"cyclic garbage by type: {leftover.most_common()}"
