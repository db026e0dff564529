"""Session benchmark for barstress: four paper workloads through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload gameplay_edf --seed 1 --seconds 20 --trace 0

--workload all runs the four workloads one after another. Each run builds
(or reuses) the seed's inputs, warms the page cache with them, times
several fresh worker starts for setup_s, then starts one worker process
that runs the workload's sessions for --seconds and checks every output.
The load is a closed loop with one client: commands run one after another
in that single worker, with BLAS/OpenMP threads capped at one.

--trace 0 reports the end-to-end metrics, with session_s and setup_s
adjusted to a reference host speed (speed.py); --trace 1 the per-layer
metrics of a run whose sessions run once untraced and once traced. A table goes to
standard output, the full record (inputs with their SHA-256 and size,
environment, every sample) to .perfbench_work/results/, and the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import speed
import tracing
import workloads

WORKLOADS = ("gameplay_edf", "relaxation_maps", "synth_roundtrip", "published_fits")
COMMANDS = ("synth", "psd", "bar", "fit", "topo", "report")
SETUP_STARTS = 7
RUN_DEADLINE_S = 170.0
WORKER = Path(__file__).resolve().parent / "worker.py"


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def warm_page_cache(plan: dict):
    """Read every input once, untimed, so the runs find them in memory."""
    d = Path(plan["input_dir"])
    for session in plan["sessions"]:
        for name in session["files"]:
            with open(d / name, "rb") as fh:
                while fh.read(1 << 24):
                    pass


def time_setup(root: Path, env: dict) -> list[tuple[float, float]]:
    """(wall, adjusted) seconds from spawning a fresh worker until
    barstress.cli is imported, for each of SETUP_STARTS starts."""
    times = []
    for _ in range(SETUP_STARTS):
        before = speed.kernel_s()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), "--probe"], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("worker probe did not import barstress.cli")
        times.append((wall, speed.adjusted_s(wall, before, speed.kernel_s())))
    return times


def run_worker(root: Path, env: dict, argv: list[str], timeout: float) -> float:
    """Run the worker to completion; return its peak RSS in MB from wait4."""
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=root, env=env,
                            stdout=sys.stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return usage.ru_maxrss / 1024.0


def tail_percentile(samples: list[float]):
    """(p, value) for the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Median over traced sessions of every per-layer metric."""
    rows = []
    for s in traced:
        row = dict(s["layers"])
        for cmd in COMMANDS:
            row[f"cli.{cmd}_s"] = sum(o["wall_s"] for o in s["ops"] if o["command"] == cmd)
        row["cli.bytes_written"] = s["bytes_written"]
        row["cli.files_written"] = s["files_written"]
        row["trace.accounted_s"] = sum(s["layers"][f"{layer}.self_s"] for layer in tracing.LAYERS)
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced_s = statistics.median(s["wall_s"] for s in traced)
    out["trace.session_s"] = traced_s
    out["trace.overhead_s"] = traced_s - statistics.median(s["wall_s"] for s in untraced)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_parsed") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    started = time.perf_counter()
    # One core for this process and every child, so the speed kernel reads
    # the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = Path(".perfbench_work")
    t0 = time.perf_counter()
    plan = inputs.prepare(workload, seed, root, work)
    prepare_s = time.perf_counter() - t0
    warm_page_cache(plan)
    env = worker_env(root)
    setup = time_setup(root, env) if not trace else []

    tag = f"{workload}-seed{seed}-trace{trace}"
    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    worker_out = results_dir / f"{tag}.worker.json"
    argv = ["--plan", str(Path(plan["input_dir"]) / "plan.json"),
            "--out", str(work / "out" / workload), "--result", str(worker_out),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        argv += ["--trace-file", str(results_dir / f"{tag}.spans.json")]
    remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
    peak_rss_mb = run_worker(root, env, argv, remaining)
    worker = json.loads(worker_out.read_text(encoding="utf-8"))
    worker_out.unlink()

    sessions = worker["sessions"]
    untraced = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    ops = [o for s in sessions for o in s["ops"]]
    failures = [o for o in ops if o["error"] is not None]
    unexpected = [o for o in failures if o["op"] not in workloads.KNOWN_FAILURES]
    adjusted = [s["adjusted_s"] for s in untraced]

    if trace:
        values = per_layer(traced, untraced)
    else:
        values = {
            "session_s": statistics.median(adjusted),
            "setup_s": statistics.median(a for _, a in setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1.0 - len(failures) / len(ops),
        }
    units = {"session_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}
    metrics = {k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in values.items()}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            **worker["env"],
            "nproc": os.cpu_count(),
            "pinned_cpu": min(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "blas_threads": 1,
        },
        "inputs": {
            "prepare_s": prepare_s,
            "files": {name: meta for s in plan["sessions"] for name, meta in s["files"].items()},
        },
        "session_s_samples": adjusted,
        "session_s_tail": tail_percentile(adjusted),
        "session_wall_s_samples": [s["wall_s"] for s in untraced],
        "setup_s_samples": [a for _, a in setup],
        "setup_wall_s_samples": [w for w, _ in setup],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failed_share": len(failures) / len(ops),
        "failures": [{"op": o["op"], "error": o["error"], "known": o["op"] in workloads.KNOWN_FAILURES}
                     for o in failures],
        "unexpected_failures": len(unexpected),
        "metrics": metrics,
        "sessions": sessions,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print_table(record)
    return record


def print_table(rec: dict):
    print(f"== {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}  trace {rec['trace']}")
    med = statistics.median
    for name in ("session_s", "setup_s"):
        samples = rec[f"{name}_samples"]
        if samples:
            wall = med(rec[name.replace("_s", "_wall_s") + "_samples"])
            print(f"  {name:<13} median {med(samples):.4f} s (wall {wall:.4f} s)  n={len(samples)}")
    tail = rec["session_s_tail"]
    print("  session_s     " + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                                else "no tail percentile: needs at least 11 samples"))
    print(f"  peak_rss_mb   {rec['peak_rss_mb']:.1f} MB  n=1")
    print(f"  failed_share  {rec['failed']}/{rec['attempted']} = {rec['failed_share']:.4f}  "
          f"(unexpected {rec['unexpected_failures']})")
    seen = {}
    for f in rec["failures"]:
        seen.setdefault((f["op"], f["error"], f["known"]), []).append(f)
    for (op, error, known), group in seen.items():
        print(f"    {'known' if known else 'NEW  '} x{len(group)} {op}: {error}")
    if rec["trace"]:
        for k, m in rec["metrics"].items():
            print(f"  {k:<28} {m['value']:.6g} {m['unit']}")
        m = {k: v["value"] for k, v in rec["metrics"].items()}
        untraced = med(rec["session_wall_s_samples"])
        gap = m["trace.accounted_s"] - untraced
        verdict = "within" if abs(gap) <= abs(m["trace.overhead_s"]) + 1e-3 else "outside"
        print(f"  layer self times sum to {m['trace.accounted_s']:.4f} s against untraced "
              f"session_s {untraced:.4f} s: {verdict} the tracing overhead {m['trace.overhead_s']:.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/barstress/cli.py", "tests/published_series.py"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(w, args.seed, args.seconds, args.trace, root) for w in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["unexpected_failures"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
