"""Gate for write_edf's 1 s data records: an hour-long paper session from
a `synth` EDF against the same samples in one data record.

    PYTHONPATH=src python tests/edf_write_gate.py [--seconds 3600] [--seed 7] [--noise-floor 0]

Runs `barstress synth` for a 30-channel, 500 Hz recording, --seconds
long (alpha 4.329 and beta 3.034 uV^2, EDF output only), re-lays its
EDF as one data record with edf_records.relay_records, and runs
`barstress session` once on each file. The protocol is during_gameplay
with epochs at 900, 1800, 2700 and 3590 s (scaled to --seconds), the
recording is its own baseline, and the maps are 64 x 64. Every command
runs in a fresh process, pinned to one CPU with BLAS threads capped at
one. The script prints each session's wall time and peak RSS (the
child's ru_maxrss). It exits 1 unless the session on the 1 s records
peaks under 100 MB, both sessions exit 0, and every output file
(run_meta.json aside) is byte-identical to the one-record run's.

This process imports no numpy and holds no samples: a child's ru_maxrss
counts the resident size of the process it was forked from.

The one-record session decodes the whole recording for every epoch:
at 3600 s it peaks near 1.8 GB.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LIMIT_MB = 100.0
EPOCH_FRACTIONS = (0.25, 0.5, 0.75)
TESTS = Path(__file__).resolve().parent
RELAY = (
    "import sys; from edf_records import relay_records; from barstress import ingest; "
    "blob = open(sys.argv[1], 'rb').read(); h = ingest.parse_edf_header(blob); "
    "open(sys.argv[2], 'wb').write(relay_records(blob, h.record_count * h.samples_per_record[0]))"
)
ENTRY = "import sys; from barstress.cli import main; sys.exit(main())"


def child(argv: list[str], env: dict) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage.ru_maxrss / 1024


def outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run_meta.json"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=3600)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--noise-floor", type=float, default=0.0)
    args = parser.parse_args()
    if args.seconds < 40:
        parser.error("--seconds must be at least 40")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # every child inherits the one CPU
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(TESTS), env.get("PYTHONPATH")]))
    times = [args.seconds * f for f in EPOCH_FRACTIONS] + [args.seconds - 10.0]

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "spec.json").write_text(json.dumps({
            "duration_s": args.seconds, "sampling_rate": 500.0, "seed": args.seed,
            "noise_floor": args.noise_floor, "outputs": ["edf"],
            "bands": [{"name": "alpha", "f_low": 8.0, "f_high": 13.0, "power": 4.329},
                      {"name": "beta", "f_low": 13.0, "f_high": 30.0, "power": 3.034}],
        }))
        code, seconds, mb = child(["-c", ENTRY, "synth", "--spec", str(d / "spec.json"),
                                   "--out", str(d / "synth"), "--quiet"], env)
        if code != 0:
            print(f"FAIL (synth exited {code})")
            return 1
        print(f"synth: {seconds:.2f} s, peak RSS {mb:.1f} MB")
        files = {"1 s records": d / "synth" / "synthetic.edf", "one record": d / "one" / "synthetic.edf"}
        files["one record"].parent.mkdir()
        code, seconds, _ = child(["-c", RELAY, *map(str, files.values())], env)
        if code != 0:
            print(f"FAIL (re-laying the EDF exited {code})")
            return 1

        results = {}
        for name, path in files.items():
            config = path.parent / "config.json"
            config.write_text(json.dumps({
                "input": {"recording": str(path), "baseline_recording": str(path)},
                "protocol": {"phase": "during_gameplay", "epoch_times": times},
                "topo": {"resolution": 64},
            }))
            out = path.parent / "session"
            code, seconds, mb = child(["-c", ENTRY, "session", "--config", str(config),
                                       "--out", str(out), "--quiet"], env)
            results[name] = code, mb, outputs(out) if out.is_dir() else {}
            print(f"session on {name} ({path.stat().st_size / 1e6:.1f} MB EDF): exit {code}, "
                  f"{seconds:.2f} s, peak RSS {mb:.1f} MB")

    (code, mb, files_1s), (code_one, _, files_one) = results["1 s records"], results["one record"]
    same = files_1s == files_one and bool(files_1s)
    print(f"{len(files_1s)} output files, identical (run_meta.json aside): {same}")
    ok = same and code == code_one == 0 and mb < LIMIT_MB
    print("PASS" if ok else f"FAIL (limit {LIMIT_MB:g} MB)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
