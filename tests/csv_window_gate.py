"""Gate for the windowed CSV read: the whole read's epochs, in one pass and
bounded memory.

    PYTHONPATH=src python tests/csv_window_gate.py [--seconds 730] [--seed 31]

Writes a 30-channel, 500 Hz CSV of normal noise, --seconds long, to a
temporary directory, ten seconds of rows at a time. Nothing in it repeats,
so every line is parsed. Five 10 s epochs spread from 0 s to the end (0,
180, 360, 540 and 720 s at 730 s) are then read twice, each time in a
fresh process: once as the CLI reads them, one read_csv_windows call for
all five over a memory map of the file, and once by reading the file
whole and slicing it. The script prints each read's time, its process's
peak resident memory (ru_maxrss) and the bytes the windowed read scanned
for line ends (the bytes passed to ingest._plain_lines) over the file's
size. It exits 1 when an epoch differs from the whole read's in any bit,
when the windowed read's ru_maxrss exceeds 150 MB, or when it scanned
more than 1.05 times the file.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import mmap
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from barstress import core, ingest

FS = 500.0
EPOCH_S = 10.0
LIMIT_MB = 150.0
LIMIT_SCAN = 1.05


def write_noise_csv(path: Path, seconds: int, seed: int) -> None:
    montage = core.standard_montage()
    rng = np.random.default_rng(seed)
    n, block = int(seconds * FS), int(EPOCH_S * FS)
    with path.open("wb") as f:
        for start in range(0, n, block):
            samples = rng.normal(scale=30.0, size=(len(montage.electrodes), min(block, n - start)))
            rec = core.Recording(channels=montage.electrodes, samples=samples, sampling_rate=FS)
            f.writelines(ingest.write_csv(rec, ingest.CsvLayout(has_header=start == 0)))


def read_epochs(how: str, path: Path, times: tuple[float, ...]) -> list[core.Epoch]:
    montage, layout = core.standard_montage(), ingest.CsvLayout()
    protocol = core.SessionProtocol(phase="baseline", epoch_times=times)
    if how == "whole":
        return core.slice_epochs(ingest.read_csv(path.read_bytes(), layout, FS, montage), protocol, EPOCH_S)
    with path.open("rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data:
        recordings = ingest.read_csv_windows(data, layout, FS, montage, [(t, t + EPOCH_S) for t in times])
    return [
        core.slice_epochs(rec, core.SessionProtocol(phase="baseline", epoch_times=(t,)), EPOCH_S)[0]
        for t, rec in zip(times, recordings)
    ]


def child(how: str, path: Path, times: tuple[float, ...], out: Path) -> None:
    scanned = [0]
    plain_lines = ingest._plain_lines

    def counting(text, ends):
        scanned[0] += len(text)
        return plain_lines(text, ends)

    ingest._plain_lines = counting
    t0 = time.perf_counter()
    epochs = read_epochs(how, path, times)
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    np.savez(
        out,
        samples=np.stack([e.samples for e in epochs]),
        spans=np.array([(e.t_start, e.t_end) for e in epochs]),
        seconds=seconds,
        rss_mb=rss_mb,
        scanned=scanned[0],
    )


def run_child(how: str, path: Path, times: tuple[float, ...]) -> dict:
    out = path.with_name(f"{how}.npz")
    argv = [sys.executable, __file__, "--child", how, str(path), str(out), *map(repr, times)]
    subprocess.run(argv, check=True)
    with np.load(out) as saved:
        return {key: saved[key] for key in saved.files}


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        how, path, out, *times = sys.argv[2:]
        child(how, Path(path), tuple(map(float, times)), Path(out))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=730)
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args()
    if args.seconds < EPOCH_S:
        parser.error(f"--seconds must be at least {EPOCH_S:g}")

    times = tuple(float(k * (args.seconds - EPOCH_S) / 4) for k in range(5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "noise.csv"
        t0 = time.perf_counter()
        write_noise_csv(path, args.seconds, args.seed)
        size = path.stat().st_size
        size_mb = size / 1e6
        print(f"{args.seconds} s noise CSV: {size_mb:.1f} MB, written in {time.perf_counter() - t0:.1f} s")
        print(f"epochs at {', '.join(f'{t:g}' for t in times)} s, {EPOCH_S:g} s each")
        got = run_child("windowed", path, times)
        want = run_child("whole", path, times)

    for name, res in (("windowed", got), ("whole", want)):
        print(f"{name:>8} read: {float(res['seconds']):.2f} s, ru_maxrss {float(res['rss_mb']):.1f} MB")
    same = (
        got["samples"].tobytes() == want["samples"].tobytes()
        and got["spans"].tobytes() == want["spans"].tobytes()
    )
    scan = float(got["scanned"]) / size
    print(f"windowed scan: {float(got['scanned']) / 1e6:.1f} MB, {scan:.2f} times the file")
    print(f"epochs bit-identical: {same}")
    ok = same and float(got["rss_mb"]) <= LIMIT_MB and scan <= LIMIT_SCAN
    print("PASS" if ok else f"FAIL (limits {LIMIT_MB:g} MB, scan {LIMIT_SCAN:g} times the file)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
