"""Gate for the program's output bytes: one digest over every workload's files.

    PYTHONPATH=src python tests/output_gate.py

Builds the inputs of session 0 of each of the benchmark's four workloads
(perfbench/inputs.prepare at seed 47) and runs that session's commands
(perfbench/workloads.commands) through barstress.cli.main, in a new
temporary directory that is the working directory for the run, so every
path a config or command names is relative and no output depends on where
the checkout or the temporary directory is. A command may exit non-zero
only on an operation workloads.KNOWN_FAILURES lists; any other failure
exits 1.

One SHA-256 is printed over every output file except run_meta.json (the
only file with wall-clock data), in order of its path under the output
directory: the path, its byte length, then its bytes. Two versions of the
program that print the same digest wrote the same files, byte for byte;
the digest is compared with DIGEST, the current program's, and reported as
unchanged or CHANGED. A change that alters output bytes on purpose updates
DIGEST. A changed digest alone does not fail the gate.

The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
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
DIGEST = "320d309443b656865f5840f8c6536be0689d2503ecbd1379f7c02e20cb45ea5d"


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
    files = sorted(p for p in Path("out").rglob("*") if p.is_file() and p.name != "run_meta.json")
    return files, failures


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output_gate_") as tmp:
        os.chdir(tmp)
        try:
            files, failures = run_sessions()
            digest = hashlib.sha256()
            for path in files:
                blob = path.read_bytes()
                digest.update(b"%s\0%d\0" % (path.as_posix().encode(), len(blob)))
                digest.update(blob)
        finally:
            os.chdir(cwd)
    sha = digest.hexdigest()
    print(f"{len(files)} files, sha256 {sha} "
          + ("digest unchanged" if sha == DIGEST else f"digest CHANGED (was {DIGEST})"))
    print("PASS" if not failures else f"FAIL ({failures} commands failed)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
