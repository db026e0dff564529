"""Gate for `barstress session`: a paper session in one process against
five fresh command processes.

    PYTHONPATH=src python tests/session_gate.py [--seconds 730] [--seed 31] [--runs 5]

Writes a 30-channel, 500 Hz EDF with 1 s data records, --seconds long,
to a temporary directory, ten seconds at a time: alpha power stays at
the paper's baseline while beta power falls along a logistic curve, so
the five relaxation epochs (0, 180, 360, 540 and 720 s at 730 s) give a
falling beta/alpha ratio. The session is psd, bar, fit, topo (256 x 256
maps) and report from one config, run --runs times each way, in
alternating order, pinned to one CPU with BLAS threads capped at one:

- as five fresh `barstress` processes, one per command, the way a
  user runs them one by one;
- as one fresh `barstress session` process.

The script prints the median wall time of each way and their ratio. It
exits 1 when any run's files (run_meta.json aside) or per-command exit
codes (a session's from its run_meta.json) differ from the first run's,
or when the ratio exceeds 0.6.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from barstress import core, ingest, synth

FS = 500
BLOCK_S = 10
COMMANDS = ("psd", "bar", "fit", "topo", "report")
LIMIT_RATIO = 0.6
# Physical range of every signal: the frame header is written for a
# recording that peaks there, so each block is quantized on one scale.
PEAK_UV = 200.0
ALPHA = core.DEFAULT_BANDS["alpha"]
BETA = core.DEFAULT_BANDS["beta"]
# The barstress console script, as pyproject.toml declares it.
ENTRY = "import sys; from barstress.cli import main; sys.exit(main())"


def beta_power(t: float, seconds: int) -> float:
    """Beta power at t s: 2.0 falling to 0.8 times the baseline's 3.034."""
    return 3.034 * (0.8 + 1.2 / (1.0 + np.exp((t - 0.4 * seconds) / (0.1 * seconds))))


def write_edf(path: Path, seconds: int, seed: int) -> None:
    montage = core.standard_montage()
    n_ch = len(montage.electrodes)
    frame = core.Recording(montage.electrodes, np.full((n_ch, FS), PEAK_UV), float(FS))
    header = bytearray(ingest.write_edf(frame)[0])
    header[236:244] = str(seconds).encode("ascii").ljust(8)  # record count
    hdr = ingest.parse_edf_header(bytes(header))
    lo, hi = np.array(hdr.physical_min)[:, None], np.array(hdr.physical_max)[:, None]
    scale = (hdr.digital_max[0] - hdr.digital_min[0]) / (hi - lo)
    with path.open("wb") as f:
        f.write(header)
        for k, start in enumerate(range(0, seconds, BLOCK_S)):
            spec = synth.SynthSpec(
                duration=float(min(BLOCK_S, seconds - start)), sampling_rate=float(FS), montage=montage,
                band_targets=((ALPHA, 4.329), (BETA, beta_power(start, seconds))), seed=seed + k,
            )
            x = synth.synth_eeg(spec).samples
            if np.abs(x).max() >= PEAK_UV:
                raise ValueError("synthetic block exceeds the EDF physical range")
            q = np.rint((x - lo) * scale + hdr.digital_min[0]).astype("<i2")
            f.write(q.reshape(n_ch, -1, FS).transpose(1, 0, 2).tobytes())


def timed(argvs: list[list[str]], env: dict) -> tuple[float, list[int]]:
    """Wall time of the argvs run one after another, each a fresh process; exit codes."""
    t0 = time.perf_counter()
    codes = [subprocess.run([sys.executable, "-c", ENTRY, *argv], env=env).returncode for argv in argvs]
    return time.perf_counter() - t0, codes


def outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run_meta.json"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=730)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if args.seconds < 4 * BLOCK_S or args.seconds % BLOCK_S:
        parser.error(f"--seconds must be a multiple of {BLOCK_S} and at least {4 * BLOCK_S}")
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # every child inherits the one CPU
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    times = [float(k * (args.seconds - BLOCK_S) / 4) for k in range(5)]

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        recording = d / "relaxation.edf"
        write_edf(recording, args.seconds, args.seed)
        (d / "config.json").write_text(json.dumps({
            "input": {"recording": str(recording)},
            "protocol": {"phase": "after_gameplay", "game_type": "combinational",
                         "music_type": "low_pitch", "epoch_times": times},
            "topo": {"resolution": 256},
        }))
        print(f"{args.seconds} s EDF: {recording.stat().st_size / 1e6:.1f} MB; "
              f"epochs at {', '.join(f'{t:g}' for t in times)} s")

        def ways(out: Path) -> dict[str, list[list[str]]]:
            tail = ["--config", str(d / "config.json"), "--out", str(out), "--quiet"]
            return {"commands": [[c, *tail] for c in COMMANDS], "session": [["session", *tail]]}

        timed(ways(d / "warm")["commands"], env)  # page cache and a file past the racy window
        samples: dict[str, list[float]] = {"commands": [], "session": []}
        want, same = None, True
        for run in range(args.runs):
            for way in ("commands", "session") if run % 2 == 0 else ("session", "commands"):
                out = d / f"{way}{run}"
                seconds, codes = timed(ways(out)[way], env)
                samples[way].append(seconds)
                if way == "session":
                    meta = json.loads((out / "run_meta.json").read_text())
                    codes = [step["exit_code"] for step in meta["commands"]]
                got = (outputs(out), codes)
                if want is None:
                    want = got
                same = same and got == want

    med = {way: statistics.median(s) for way, s in samples.items()}
    for way, s in samples.items():
        print(f"{way:>8}: median {med[way]:.3f} s over {len(s)} runs ({', '.join(f'{v:.3f}' for v in s)})")
    ratio = med["session"] / med["commands"]
    print(f"session / five processes: {ratio:.2f}")
    print(f"per-command exit codes {want[1]}; files and exit codes identical: {same}")
    ok = same and ratio <= LIMIT_RATIO
    print("PASS" if ok else f"FAIL (limit {LIMIT_RATIO:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
