"""Gate for floattext: byte identity with repr at scale, and its speed.

    PYTHONPATH=src python tests/float_text_gate.py [--patterns 10000000] [--seed 2020]

Compares floattext.reprs with repr on random float64 bit patterns (1e7 by
default, 1e6 at a time) and on an edge set: signed zeros, nan, infinities,
every subnormal with a significand below 2^22, every power of two, every
power of ten with both neighbours, the 1e16 and 1e-4 switches to exponent
form and the largest float. Then it times floattext.join_rows against the
CSV built with a "%r" template per row (as write_csv built it before) on a
table of 1e6 normal values (31250 rows of 32 columns), and on one 256 x 256
scalp grid with the cells outside the disc blank. It exits 1 on any
mismatch or when the 1e6-value table is less than 2.5 times faster.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from barstress import floattext


def mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    got = floattext.reprs(values)
    return [(w, g) for w, g in zip(map(repr, values.tolist()), got) if w != g]


def edge_set() -> np.ndarray:
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([
        [0.0, math.nan, -math.nan, math.inf, 5e-324, 1e-323, 5e-323,
         1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 1e-05, 1e22, 1e23],
        np.arange(1, 2**22, dtype=np.uint64).view(np.float64),
        [math.ldexp(1.0, k) for k in range(-1074, 1024)],
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf),
    ])
    return np.concatenate([values, -values])


def best_of(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def template_csv(values: np.ndarray, blank: np.ndarray | None = None) -> bytes:
    fields = np.full(values.shape, "%r") if blank is None else np.where(blank, "", "%r")
    template = "\n".join(map(",".join, fields.tolist())) + "\n"
    kept = values if blank is None else values[~blank]
    return (template % tuple(kept.ravel().tolist())).encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--patterns", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    bad = 0
    t0 = time.perf_counter()
    for start in range(0, args.patterns, 1_000_000):
        size = min(1_000_000, args.patterns - start)
        found = mismatches(rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64))
        bad += len(found)
        for want, got in found[:3]:
            print(f"  mismatch: repr {want}, floattext {got}")
    seconds = time.perf_counter() - t0
    print(f"random bit patterns: {args.patterns}, mismatches {bad} ({seconds:.1f} s)")
    edges = edge_set()
    found = mismatches(edges)
    print(f"edge set: {len(edges)} values, mismatches {len(found)}")
    bad += len(found)

    table = rng.normal(scale=40.0, size=(31_250, 32))
    assert floattext.join_rows(table) == template_csv(table)
    old = best_of(lambda: template_csv(table), 5)
    new = best_of(lambda: floattext.join_rows(table), 5)
    print(f"1e6-value table: %r template {old:.3f} s, floattext {new:.3f} s, {old / new:.2f}x")

    y, x = np.mgrid[-1:1:256j, -1:1:256j]
    grid = np.where(x**2 + y**2 <= 1.0, rng.uniform(0.5, 3.0, size=x.shape), math.nan)
    blank = np.isnan(grid)
    assert floattext.join_rows(grid, blank=blank) == template_csv(grid, blank)
    grid_old = best_of(lambda: template_csv(grid, blank), 10)
    grid_new = best_of(lambda: floattext.join_rows(grid, blank=blank), 10)
    print(f"256x256 grid: %r template {grid_old:.3f} s, floattext {grid_new:.3f} s, "
          f"{grid_old / grid_new:.2f}x")

    ok = bad == 0 and old / new >= 2.5
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
