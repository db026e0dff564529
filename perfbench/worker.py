"""One benchmark worker: runs a workload's sessions through barstress.cli.main.

Started fresh for every run, with barstress's source on PYTHONPATH. With
--probe it only imports barstress.cli and reports readiness, which is what
setup_s times. Otherwise it runs one untimed warm-up session, then whole
passes over the plan's sessions, one command after another, until the
next pass would end further past --seconds than it starts before it.
With --trace 1 every session runs twice in a row, untraced and traced,
so the run also gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import numpy
from barstress import cli

import speed
import tracing
import workloads


def run_session(session: dict, out: Path) -> dict:
    """Run every command of the session, timed; then check the outputs.

    Each command's wall time is also adjusted to the reference speed by
    the speed kernel read before and after it.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    ops = []
    cmds = workloads.commands(session, out)
    kernel = [speed.kernel_s()]
    for op, argv in cmds:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a raising command is a failed operation
            rc = f"raised {type(exc).__name__}: {exc}"
        except SystemExit as exc:
            rc = f"SystemExit {exc.code}"
        wall = time.perf_counter() - t0
        kernel.append(speed.kernel_s())
        ops.append({"op": op, "command": argv[0], "rc": rc, "wall_s": wall,
                    "adjusted_s": speed.adjusted_s(wall, kernel[-2], kernel[-1])})
    wall = sum(o["wall_s"] for o in ops)
    for o, (_, argv) in zip(ops, cmds):
        o["error"] = workloads.check(session, out, o["op"], argv, o["rc"])
    files = [p for p in out.rglob("*") if p.is_file()]
    return {
        "name": session["name"],
        "wall_s": wall,
        "adjusted_s": sum(o["adjusted_s"] for o in ops),
        "ops": ops,
        "files_written": len(files),
        "bytes_written": sum(p.stat().st_size for p in files),
    }


def run_traced(tracer: tracing.Tracer, session: dict, out: Path, session_id: int) -> dict:
    mark = tracer.begin(session_id)
    tracer.install()
    try:
        res = run_session(session, out)
    finally:
        tracer.uninstall()
    return {**res, "layers": tracer.metrics(mark), "traced": True}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--out")
    ap.add_argument("--result")
    ap.add_argument("--trace-file")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    if args.probe:
        print("ready", flush=True)
        return 0

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    sessions = plan["sessions"]
    out_root = Path(args.out)
    tracer = tracing.Tracer()
    run_session(sessions[0], out_root / "warmup")

    results = []
    start = time.perf_counter()
    passes = 0
    while True:
        for i, session in enumerate(sessions):
            out = out_root / str(i)
            # In traced runs each session runs twice; which copy goes first
            # alternates, so warm caches favour neither side of the overhead.
            modes = (False, True)[: 1 + args.trace]
            for traced in modes if (passes + i) % 2 == 0 else modes[::-1]:
                results.append(run_traced(tracer, session, out, len(results)) if traced
                               else {**run_session(session, out), "traced": False})
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= args.seconds:
            break

    if args.trace_file:
        Path(args.trace_file).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "session"], "spans": tracer.spans}),
            encoding="utf-8",
        )
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    Path(args.result).write_text(json.dumps({"env": env, "sessions": results}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
