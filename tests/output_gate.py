"""Gate for the program's output bytes: one digest over every workload's files.

    PYTHONPATH=src python tests/output_gate.py

Builds the inputs of session 0 of each of the benchmark's four workloads
(perfbench/inputs.prepare at seed 47) and runs that session's commands
(perfbench/workloads.commands) through barstress.cli.main, in a new
temporary directory that is the working directory for the run, so every
path a config or command names is relative and no output depends on where
the checkout or the temporary directory is. A command may exit non-zero
only on an operation workloads.KNOWN_FAILURES lists; any other failure
exits 1. Then it runs the hour-long paper session of edf_write_gate.py
the same way: `synth` of 3600 s, 30 channels at 500 Hz (seed 7, alpha
4.329 and beta 3.034 uV^2, no noise) to an EDF in 1 s data records, and
`session` on that file, which is its own baseline, with epochs at 900,
1800, 2700 and 3590 s and 64 x 64 maps; both must exit 0.

One SHA-256 is printed over every output file except run_meta.json (the
only file with wall-clock data), in order of its path under the output
directory: the path, its byte length, then its bytes. Two versions of the
program that print the same digest wrote the same files, byte for byte;
the digest is compared with DIGEST, the current program's, and reported as
unchanged or CHANGED. A change that alters output bytes on purpose updates
DIGEST. A changed digest alone does not fail the gate. Before it, one
SHA-256 per top-level output directory (each workload, and hour_edf) is
printed with the same framing over that directory's files, and compared
with its entry in DIR_DIGESTS, so a CHANGED total names the sessions
whose bytes moved.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402

from barstress import cli  # noqa: E402

WORKLOADS = ("gameplay_edf", "relaxation_maps", "synth_roundtrip", "published_fits")
SEED = 47
DIGEST = "7d89f8b327ebcd1afb33241dee70983540331b31733c8eea2ef44a3fc0063d86"
DIR_DIGESTS = {
    "gameplay_edf": "942d30b2c889ac03a93959794a0b3c06dd3f6dfcc8c0c5d8e87aa20483567ffc",
    "hour_edf": "b04beb1ad15ea553ef8de4cc7a90fc51fa749f80c139bcf571c883733040f6f1",
    "published_fits": "31988030c78283cbee8a2c8bcc9d64ebafc20565de4994316692da45b67a9fb5",
    "relaxation_maps": "34a5601c72ac5521a6387ba49929d89bb8231e340f7fc6707615a7a677eede58",
    "synth_roundtrip": "0f5767d70c408b1b9e59b7eb09c6e95ea3c898c6f48f2942b775f320d4c73c62",
}
HOUR_SPEC = {
    "duration_s": 3600, "sampling_rate": 500.0, "seed": 7, "noise_floor": 0.0, "outputs": ["edf"],
    "bands": [{"name": "alpha", "f_low": 8.0, "f_high": 13.0, "power": 4.329},
              {"name": "beta", "f_low": 13.0, "f_high": 30.0, "power": 3.034}],
}
HOUR_EPOCHS = [900.0, 1800.0, 2700.0, 3590.0]


def run_sessions() -> tuple[list[Path], int]:
    """Run session 0 of every workload in the working directory; return the
    output files, sorted by path, and the count of unexpected failures."""
    failures = 0
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        plan = inputs.prepare(workload, SEED, ROOT, Path("work"))
        out = Path("out") / workload
        ops = workloads.commands(plan["sessions"][0], out)
        for op, argv in ops:
            rc = cli.main(argv)
            if rc != 0 and op not in workloads.KNOWN_FAILURES:
                failures += 1
                print(f"  {op}: exit {rc}")
        print(f"{workload}: {len(ops)} commands, {time.perf_counter() - t0:.1f} s")
    failures += run_hour_session(Path("work") / "hour_edf", Path("out") / "hour_edf")
    files = sorted(p for p in Path("out").rglob("*") if p.is_file() and p.name != "run_meta.json")
    return files, failures


def run_hour_session(work: Path, out: Path) -> int:
    """synth the hour-long EDF into out/synth and run session on it into
    out/session; return the count of commands that exited non-zero."""
    t0 = time.perf_counter()
    work.mkdir(parents=True)
    edf = out / "synth" / "synthetic.edf"
    (work / "spec.json").write_text(json.dumps(HOUR_SPEC), encoding="utf-8")
    (work / "config.json").write_text(json.dumps({
        "input": {"recording": edf.as_posix(), "baseline_recording": edf.as_posix()},
        "protocol": {"phase": "during_gameplay", "epoch_times": HOUR_EPOCHS},
        "topo": {"resolution": 64},
    }), encoding="utf-8")
    failures = 0
    for argv in (["synth", "--spec", str(work / "spec.json"), "--out", str(out / "synth")],
                 ["session", "--config", str(work / "config.json"), "--out", str(out / "session")]):
        rc = cli.main([*argv, "--quiet"])
        if rc != 0:
            failures += 1
            print(f"  hour_edf:{argv[0]}: exit {rc}")
    print(f"hour_edf: 2 commands, {time.perf_counter() - t0:.1f} s")
    return failures


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output_gate_") as tmp:
        os.chdir(tmp)
        try:
            files, failures = run_sessions()
            digest = hashlib.sha256()
            per_dir: dict = {}
            for path in files:
                blob = path.read_bytes()
                framed = b"%s\0%d\0" % (path.as_posix().encode(), len(blob))
                for h in (digest, per_dir.setdefault(path.parts[1], hashlib.sha256())):
                    h.update(framed)
                    h.update(blob)
        finally:
            os.chdir(cwd)
    for name, h in per_dir.items():
        sha = h.hexdigest()
        print(f"  {name}: sha256 {sha} " + ("unchanged" if sha == DIR_DIGESTS.get(name) else "CHANGED"))
    sha = digest.hexdigest()
    print(f"{len(files)} files, sha256 {sha} "
          + ("digest unchanged" if sha == DIGEST else f"digest CHANGED (was {DIGEST})"))
    print("PASS" if not failures else f"FAIL ({failures} commands failed)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
