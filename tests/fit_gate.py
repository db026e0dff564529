"""Gate for fit_4pl: the same fits as the sequential reference, and their cost.

    PYTHONPATH=src python tests/fit_gate.py

Fits the 30 published series and seeded_corpus(300, 2024) with fit_4pl's
budget of 500 iterations per start (regress._MAX_ITERATIONS). Each set is
timed best of REPEAT and printed as ms per fit. One SHA-256 is printed
over every result, in order: the float.hex of a, b, c, d and rss, then
converged and iterations. Two versions of the solver that print the same
digest give the same fits, bit for bit; the digest is compared with
DIGEST, the current solver's, and reported as unchanged or CHANGED. A
changed digest alone does not fail the gate.

Every fit is then checked against test_regress.reference_fit_4pl, which
descends each grid start alone, trying the step halvings one at a time,
with the tolerances the tier-1 tests use: the RSS may exceed the
reference's by a relative 1e-12 on the published series and 1e-9 on the
corpus, and converged must agree. The script exits 1 when a fit fails
that check.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import time

from barstress import regress
from test_regress import PUBLISHED_SERIES, published_points, reference_fit_4pl, seeded_corpus

SETS = (
    ("published", [published_points(s) for s in PUBLISHED_SERIES], 1e-12),
    ("seeded_corpus(300, 2024)", seeded_corpus(300, 2024), 1e-9),
)
REPEAT = 3
DIGEST = "416204ade83746ea4979d1bbbe66520cb53b92699709a581ce02bf4e6f6a7eb9"


def digest_line(fit: regress.FitResult) -> str:
    m = fit.model
    floats = " ".join(float(v).hex() for v in (m.a, m.b, m.c, m.d, fit.rss))
    return f"{floats} {fit.converged} {fit.iterations}\n"


def main() -> int:
    digest = hashlib.sha256()
    failures = 0
    for name, series, tolerance in SETS:
        best = float("inf")
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            fits = [regress.fit_4pl(points) for points in series]
            best = min(best, time.perf_counter() - t0)
        for fit in fits:
            digest.update(digest_line(fit).encode())
        print(f"{name}: {len(series)} fits, {1e3 * best / len(series):.2f} ms per fit "
              f"(best of {REPEAT})")
        for i, (points, fit) in enumerate(zip(series, fits)):
            want_rss, want_converged = reference_fit_4pl(points, regress._MAX_ITERATIONS)
            if not (fit.rss <= want_rss * (1.0 + tolerance) and fit.converged == want_converged):
                failures += 1
                print(f"  {name}[{i}]: rss {fit.rss!r} converged {fit.converged}, "
                      f"reference rss {want_rss!r} converged {want_converged}")
    sha = digest.hexdigest()
    print(f"sha256 {sha} " + ("digest unchanged" if sha == DIGEST else f"digest CHANGED (was {DIGEST})"))
    print("PASS" if not failures else f"FAIL ({failures} fits worse than the reference)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
