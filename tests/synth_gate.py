"""Gate for synth_eeg's shared oscillator table: agreement and speed.

    PYTHONPATH=src python tests/synth_gate.py [--seed 31] [--repeat 7]

Synthesizes the benchmark's 120 s spec (30 channels at 500 Hz, alpha
8-13 Hz at 4.329 uV^2, beta 13-30 Hz at 3.034 uV^2, no noise) with
synth_eeg and with per_channel below, the evaluation synth_eeg made
before the shared table: a fresh sine bank over one 4 s period for each
channel, tiled. The two are timed in --repeat pairs, alternating which
runs first, and the largest deviation between their samples is printed.
It exits 1 when that deviation exceeds 1e-9 uV or when the median over
the pairs of per-channel time / shared table time is below 3: a pair's
two calls run under the same load, so a burst of contention on a shared
host moves one pair's ratio, not the median. It then prints the best of
two timings of each on a 3600 s spec, ungated: there tiling and the
432 MB samples array carry the time. Last it prints the peak RSS of one
`barstress synth` command writing CSV and EDF, each run in a fresh
process before the timings, for the 120 s and the 3600 s spec. The
command renders one 4 s period and its writers repeat it, so its memory
does not grow with the length: the script also exits 1 when the 3600 s
command peaks more than 10 MB above the 120 s one.

Before the peak RSS lines, two aperiodic 120 s specs are checked against
direct below, every oscillator of every channel evaluated over the whole
length: one with a band too narrow for the grid (8.0-8.9 Hz, one
oscillator at 8.45 Hz, beside alpha and beta at 500 Hz), and one at
250.1 Hz, where 4 s is not a whole number of samples. The script prints
each one's time from synth_eeg and from direct, and exits 1 when their
samples differ by more than 1e-9 uV.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from barstress import core, synth

TOLERANCE = 1e-9
MIN_SPEEDUP = 3.0
MAX_RSS_GROWTH_MB = 10.0


def per_channel(spec: synth.SynthSpec) -> core.Recording:
    """synth_eeg's periodic path as it was: every channel's oscillators
    evaluated over one period on their own, then tiled."""
    n = int(round(spec.duration * spec.sampling_rate))
    bands = [(synth.oscillator_frequencies(band), power) for band, power in spec.band_targets]
    span = min(n, int(spec.sampling_rate / 0.25))
    t = np.arange(span) / spec.sampling_rate
    electrodes = spec.montage.electrodes
    samples = np.empty((len(electrodes), n))
    for ch in range(len(electrodes)):
        rng = np.random.default_rng([spec.seed, ch])
        sig = np.zeros(span)
        for freqs, power in bands:
            phases = rng.uniform(0.0, 2.0 * np.pi, len(freqs))
            if power > 0:
                amp = math.sqrt(2.0 * power / len(freqs))
                sig += amp * np.sum(
                    np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]),
                    axis=0,
                )
        samples[ch] = np.resize(sig, n)
    samples.flags.writeable = False
    return core.Recording(channels=electrodes, samples=samples, sampling_rate=spec.sampling_rate)


def direct(spec: synth.SynthSpec) -> np.ndarray:
    """Every channel's oscillators evaluated over all n samples, summed band
    by band: the samples synth_eeg renders for a noise-free spec."""
    n = int(round(spec.duration * spec.sampling_rate))
    t = np.arange(n) / spec.sampling_rate
    samples = np.zeros((len(spec.montage.electrodes), n))
    for ch, sig in enumerate(samples):
        rng = np.random.default_rng([spec.seed, ch])
        for band, power in spec.band_targets:
            freqs = synth.oscillator_frequencies(band)
            phases = rng.uniform(0.0, 2.0 * np.pi, len(freqs))
            if power > 0:
                amp = math.sqrt(2.0 * power / len(freqs))
                sig += amp * np.sum(
                    np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]), axis=0
                )
    return samples


def baseline_spec(seconds: float, seed: int) -> synth.SynthSpec:
    return synth.SynthSpec(
        duration=seconds,
        sampling_rate=500.0,
        montage=core.standard_montage(),
        band_targets=((core.DEFAULT_BANDS["alpha"], 4.329), (core.DEFAULT_BANDS["beta"], 3.034)),
        seed=seed,
    )


def timed(fn, spec) -> tuple[float, np.ndarray]:
    t0 = time.perf_counter()
    samples = fn(spec).samples
    return time.perf_counter() - t0, samples


def synth_peak_rss_mb(seconds: float, seed: int) -> float:
    """ru_maxrss of one synth command for the baseline spec, in a fresh process."""
    doc = {
        "duration_s": seconds, "sampling_rate": 500.0, "seed": seed, "outputs": ["csv", "edf"],
        "bands": [{"name": "alpha", "f_low": 8.0, "f_high": 13.0, "power": 4.329},
                  {"name": "beta", "f_low": 13.0, "f_high": 30.0, "power": 3.034}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        argv = ["synth", "--spec", spec, "--out", os.path.join(tmp, "out"), "--quiet"]
        code = "import sys; from barstress.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.Popen([sys.executable, "-c", code, *argv])
        _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"synth of {seconds:g} s failed with status {status}")
    return usage.ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()

    # First, while this process is small: a child's ru_maxrss counts the
    # resident size of the process it was forked from.
    rss = {seconds: synth_peak_rss_mb(seconds, args.seed) for seconds in (120.0, 3600.0)}

    orders = ((per_channel, synth.synth_eeg), (synth.synth_eeg, per_channel))
    spec = baseline_spec(120.0, args.seed)
    times = {per_channel: [], synth.synth_eeg: []}
    samples = {}
    for i in range(args.repeat):
        for fn in orders[i % 2]:
            seconds, samples[fn] = timed(fn, spec)
            times[fn].append(seconds)
    old = samples[per_channel]
    deviation = float(np.max(np.abs(samples[synth.synth_eeg] - old)))
    old_s, new_s = times[per_channel], times[synth.synth_eeg]
    ratios = [o / n for o, n in zip(old_s, new_s)]
    speedup = statistics.median(ratios)
    print(f"120 s spec, seed {args.seed}: per-channel {statistics.median(old_s):.3f} s, "
          f"shared table {statistics.median(new_s):.3f} s (medians); "
          f"median of {len(ratios)} pair ratios {speedup:.2f}x "
          f"(lowest {min(ratios):.2f}x, highest {max(ratios):.2f}x)")
    print(f"largest deviation {deviation:.3g} uV (largest value {float(np.max(np.abs(old))):.3g} uV)")
    del samples, old

    # One 432 MB recording alive at a time.
    long_spec = baseline_spec(3600.0, args.seed)
    times = {per_channel: [], synth.synth_eeg: []}
    for order in orders:
        for fn in order:
            times[fn].append(timed(fn, long_spec)[0])
    print(f"3600 s spec (ungated, best of 2): per-channel {min(times[per_channel]):.2f} s, "
          f"shared table {min(times[synth.synth_eeg]):.2f} s")

    sliver = core.BandDefinition("sliver", 8.0, 8.9)
    aperiodic = {
        "off-grid": replace(spec, band_targets=((sliver, 1.0), *spec.band_targets)),
        "250.1 Hz": replace(spec, sampling_rate=250.1),
    }
    aperiodic_deviation = 0.0
    for name, case in aperiodic.items():
        new_s, new = timed(synth.synth_eeg, case)
        t0 = time.perf_counter()
        old = direct(case)
        old_s = time.perf_counter() - t0
        dev = float(np.max(np.abs(new - old)))
        aperiodic_deviation = max(aperiodic_deviation, dev)
        print(f"120 s {name} spec: synth_eeg {new_s:.3f} s, direct {old_s:.3f} s, "
              f"largest deviation {dev:.3g} uV")
    del new, old

    for seconds, mb in rss.items():
        print(f"synth command, {seconds:g} s spec to CSV and EDF: peak RSS {mb:.1f} MB")
    growth = rss[3600.0] - rss[120.0]

    ok = (max(deviation, aperiodic_deviation) <= TOLERANCE and speedup >= MIN_SPEEDUP
          and growth <= MAX_RSS_GROWTH_MB)
    print("PASS" if ok else f"FAIL (deviation limit {TOLERANCE:g}, speed-up limit {MIN_SPEEDUP:g}x, "
          f"3600 s peak RSS at most {MAX_RSS_GROWTH_MB:g} MB above 120 s, read {growth:+.1f} MB)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
