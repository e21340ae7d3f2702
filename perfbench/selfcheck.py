"""Self-check of the correctness gates.

Feeds each gate a correct result and deliberately corrupted copies of it
(a perturbed eigenvalue, coefficient, matrix entry, residual or output byte)
through the same op accounting the benchmark uses, and checks that every
corrupted result counts as a failed op while the correct one does not.

    python3 perfbench/selfcheck.py

Exits with code 0 when every gate behaves, 1 otherwise.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (fixes the thread count before numpy loads)

run.bootstrap()

import csv  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402
from cmvpencil import cmv, dunkl, measures, recurrences  # noqa: E402


def rewrite_csv(text, edit):
    rows = list(csv.reader(io.StringIO(text)))
    edit(rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def with_band(matrix, k, index, delta):
    bands = [np.array(b, dtype=float) for b in matrix.bands]
    bands[k][index] += delta
    return dataclasses.replace(matrix, bands=tuple(bands))


def cases():
    """(gate name, gate, correct result, {corruption: result}, failures each)."""
    code, text = workloads.cli_call(["verify", "--suite", "weyl"])

    def flip(rows):
        rows[1][2] = "0"

    def nudge(rows):
        rows[1][3] = rows[1][3][:-1] + ("1" if rows[1][3][-1] != "1" else "2")

    yield "verify", lambda r: gates.verify_ok(r, text), (code, text), {
        "exit code 1": (1, text),
        "passed flag 0": (code, rewrite_csv(text, flip)),
        "one byte differs from the first pass": (code, rewrite_csv(text, nudge)),
    }

    tables = workloads.load_script(run.ROOT, "weight_tables")
    good = workloads.script_call(tables, ["--family", "sdg", "--xi", "0.3", "--eta", "0.5"])
    worse = "\n".join(
        "# worst coefficient deviation: 1.000e-06" if line.startswith("# worst") else line
        for line in good[1].splitlines()
    )
    yield "script", gates.script_ok, good, {"exit code 1": (1, good[1]), "deviation 1e-6": (0, worse)}

    dim, xi, eta, lam = 200, 0.3, 0.7, 1.7
    argv = ["spectrum", "--dim", str(dim), "--xi", str(xi), "--eta", str(eta), "--lambda", str(lam)]
    code, text = workloads.cli_call(argv)
    header, rows = gates.csv_rows(text)
    eigs = [float(row[1]) for row in rows]
    edge = abs(lam - 1.0)
    j = next(i for i, e in enumerate(eigs) if e >= edge)

    def perturb(rows):
        rows[5][1] = repr(float(rows[5][1]) + 1e-6)

    def across_edge(rows):
        # move the first eigenvalue above the inner edge below it, keeping
        # the order and (to rounding) the sum, so only the Sturm count differs
        moved = 0.5 * (eigs[j - 1] + edge)
        rows[j + 1][1] = repr(moved)
        rows[-1][1] = repr(eigs[-1] + (eigs[j] - moved))

    yield "spectrum", lambda r: gates.spectrum_ok(r, dim, xi, eta, lam), (code, text), {
        "one eigenvalue + 1e-6": (code, rewrite_csv(text, perturb)),
        "eigenvalue moved across a band edge": (code, rewrite_csv(text, across_edge)),
        "one eigenvalue dropped": (code, rewrite_csv(text, lambda rows: rows.pop(7))),
    }

    rng = np.random.default_rng(7)
    raw = rng.uniform(-0.95, 0.95, 2002)
    a = recurrences.ReflectionSequence.from_list(raw.tolist())
    residuals = cmv.verify_identities(a, 1.3, cmv.TruncationSpec(n_blocks=32))
    yield "identities", gates.identities_ok, residuals, {
        "residual 1e-12": {**residuals, "K_squared_identity": 1e-12},
    }

    trunc = cmv.TruncationSpec(n_blocks=1000)
    spots = np.arange(0, 2000, 37)
    K = cmv.build_K(recurrences.jacobi_opuc_reflections(xi, eta), lam, trunc)
    yield "build_K", lambda m: gates.build_K_ok(m, xi, eta, lam, spots), K, {
        "diagonal entry + 1e-9": with_band(K, 0, spots[3], 1e-9),
        "off-diagonal entry + 1e-9": with_band(K, 1, spots[4], 1e-9),
    }
    H = cmv.build_H(a, trunc)
    yield "build_H", lambda m: gates.build_H_ok(m, raw, spots), H, {
        "second superdiagonal entry + 1e-9": with_band(H, 2, spots[5], 1e-9),
    }

    measure = measures.named_weight("sdg", xi=0.3, eta=0.5)
    closed = recurrences.sdg_recurrence(recurrences.jacobi_opuc_reflections(0.3, 0.5))
    recovered = measures.stieltjes_recurrence(measure, 12, tol=1e-9)
    bent = recurrences.MonicThreeTerm(
        b=lambda n: recovered.b(n) + (1e-6 if n == 9 else 0.0), u=recovered.u
    )
    yield "recovery", lambda rec: gates.recovery_ok(rec, closed, 12), recovered, {
        "b_9 + 1e-6": bent,
    }
    value = measures.gram(measure, closed, closed, 3, 5)
    yield "gram", gates.gram_ok, value, {"off-diagonal 1e-5": 1e-5}

    alpha, beta, c = Fraction(3, 2), Fraction(1, 3), Fraction(1, 4)
    report = dunkl.verify_eigenfunction(alpha, beta, c, 7)
    yield "eigenfunction", lambda r: gates.eigenfunction_ok(r, 7, alpha, beta), report, {
        "nonzero residual": dataclasses.replace(
            report, residual=dunkl.PolynomialCoeffs((0, Fraction(1, 10**12)))
        ),
        "inexact": dataclasses.replace(report, exact=False),
        "wrong eigenvalue": dataclasses.replace(report, eigenvalue=report.eigenvalue + 1),
    }

    z = rng.uniform(-3, 3, 40) + 1j * rng.uniform(0.1, 2.0, 40)
    z[1::2] = z[1::2].conjugate()
    for name, fn, composed in (("m_per", measures.m_per, False), ("m_full", measures.m_full, True)):
        values = [fn(p, 1.3) for p in z.tolist()]
        scaled = list(values)
        scaled[3] *= 1 + 1e-9
        flipped = list(values)
        flipped[6] = flipped[6].conjugate()
        yield name, lambda v, composed=composed: gates.weyl_failures(z, v, 1.3, composed), values, {
            "one value * (1 + 1e-9)": scaled,
            "one value conjugated": flipped,
        }


def main() -> int:
    ok = True
    for name, gate, good, corrupted in cases():
        count = len(good) if name.startswith("m_") else 1
        tally = workloads.Tally()
        tally.op(name, lambda: good, gate, count=count)
        good_failed = tally.failed
        ok = ok and good_failed == 0
        print(f"{name:<14} correct result: {good_failed} failed")
        for label, bad in corrupted.items():
            before = tally.failed
            tally.op(name, lambda: bad, gate, count=count)
            counted = tally.failed - before
            ok = ok and counted >= 1
            print(f"{name:<14} {label}: {counted} failed")
    tally = workloads.Tally()

    def raises():
        raise RuntimeError("deliberate")

    tally.op("exception", raises, lambda r: True)
    ok = ok and tally.failed == 1
    print(f"{'exception':<14} op that raises: {tally.failed} failed")
    print("gates self-check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
