"""Gate for the CSV writer: one period formatted, every byte as repr writes it.

    PYTHONPATH=src python tests/csv_write_gate.py [--seconds 600] [--noisy-seconds 120] [--seed 31]

Synthesizes two 30-channel, 500 Hz recordings of the benchmark's baseline
spec (alpha 8-13 Hz at 4.329 uV^2, beta 13-30 Hz at 3.034 uV^2): a
noise-free one, --seconds long, which repeats every 4 s, and one with a
noise floor of 0.5 uV^2/Hz, --noisy-seconds long, in which no row
repeats. Each is written as synth writes it: write_csv gets
synth_eeg(spec, one_period=True) and the full length, and runs three
times; the best time is printed with the rows it formatted (the lines of
the distinct text buffers its chunks slice).

The bytes are checked against texts built without write_csv from the
full-length synth_eeg(spec), through SHA-256 digests of the chunks,
never joined, so no file's text is held twice. The periodic file must be its header, then
floattext.join_rows over the first 4 s of rows repeated, then the first
rows of that text that the length leaves over. The noisy file must be
its header, then join_rows over every row. The script exits 1 when
either file's bytes differ, or when the periodic recording formats more
than one period of rows.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from barstress import core, floattext, ingest, synth

FS = 500.0
PERIOD_ROWS = 2000  # synth_eeg's oscillators repeat every 4 s
NOISE_FLOOR = 0.5


def spec(seconds: float, noise_floor: float, seed: int) -> synth.SynthSpec:
    bands = ((core.DEFAULT_BANDS["alpha"], 4.329), (core.DEFAULT_BANDS["beta"], 3.034))
    return synth.SynthSpec(duration=seconds, sampling_rate=FS, montage=core.standard_montage(),
                           band_targets=bands, noise_floor=noise_floor, seed=seed)


def digest(pieces) -> str:
    h = hashlib.sha256()
    for piece in pieces:
        h.update(piece)
    return h.hexdigest()


def timed_chunks(one: core.Recording, n: int) -> tuple[list, float]:
    """write_csv(one, n_samples=n) and its best time of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        chunks = ingest.write_csv(one, ingest.CsvLayout(), n)
        best = min(best, time.perf_counter() - t0)
    return chunks, best


def rows_formatted(chunks: list) -> int:
    """The lines in the distinct buffers the chunks after the header slice."""
    sources = {id(c.obj): c.obj for c in chunks[1:]}
    return sum(bytes(text).count(b"\n") for text in sources.values())


def expected_periodic(rec: core.Recording, head: bytes) -> list:
    body = floattext.join_rows(rec.samples[:, :PERIOD_ROWS].T)
    reps, tail = divmod(rec.n_samples, PERIOD_ROWS)
    cut = 0
    for _ in range(tail):
        cut = body.index(b"\n", cut) + 1
    return [head, *[body] * reps, body[:cut]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=600.0)
    parser.add_argument("--noisy-seconds", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args()

    ok = True
    for name, seconds, noise_floor in (("periodic", args.seconds, 0.0),
                                       ("noisy", args.noisy_seconds, NOISE_FLOOR)):
        recipe = spec(seconds, noise_floor, args.seed)
        chunks, best = timed_chunks(synth.synth_eeg(recipe, one_period=True), recipe.n_samples)
        rec = synth.synth_eeg(recipe)
        head = (",".join(rec.labels) + "\n").encode()
        periodic = name == "periodic"
        want = expected_periodic(rec, head) if periodic else [head, floattext.join_rows(rec.samples.T)]
        same = digest(chunks) == digest(want)
        rows = rows_formatted(chunks)
        print(f"{name:>8} {seconds:g} s, {rec.n_samples} rows: write_csv {best * 1e3:.1f} ms "
              f"(best of 3), {rows} rows formatted, bytes identical: {same}")
        ok &= same and not (periodic and rows > PERIOD_ROWS)
        del rec, chunks, want
    print("PASS" if ok else f"FAIL (the periodic recording may format at most {PERIOD_ROWS} rows)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
