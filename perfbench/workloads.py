"""Command lines and output checks for the benchmark's sessions.

A session is the chain of CLI commands one input goes through. Each
command is one operation; it fails when it exits non-zero, raises, or its
output check fails. Checks read only the files the commands wrote.
"""

from __future__ import annotations

import json
from pathlib import Path

BAR_REL_TOL = 0.01  # measured BAR against the planted ratio, relative
# synth puts its oscillators one 0.25 Hz bin apart, so Hamming leakage
# between neighbours makes its ratio depend on the random phases: over
# seeds 0-59 the error has median 0.7% and maximum 2.6%.
SYNTH_BAR_REL_TOL = 0.05
R2_SLACK = 0.005  # the paper's reproduction criterion: R^2 >= published - slack
SYNTH_EDF_BYTES = 256 * 31 + 2 * 30 * 120 * 500

# Operations that fail at the parent commit and stay in the workload. They
# count as failed; only a failure outside this set makes a run incorrect.
KNOWN_FAILURES = {
    "gameplay/combinational/non_gamer:fit": "4PL optimum on the power-law ridge; fit exits 4",
    "relaxation/puzzle/medium_pitch/non_gamer:fit": "4PL optimum on the power-law ridge; fit exits 4",
    "relaxation/puzzle/high_pitch/gamer:fit": "attainable R^2 0.9914 below published 0.9989 - 0.005",
}


def commands(session: dict, out: Path) -> list[tuple[str, list[str]]]:
    """(operation id, argv) for every command of the session, in order."""
    tail = ["--out", str(out), "--quiet"]
    if "fits" in session:
        return [
            (f"{f['name']}:fit",
             ["fit", "--points", f["points"], "--model", "both", "--out", str(out / str(i)), "--quiet"])
            for i, f in enumerate(session["fits"])
        ]
    if "spec" in session:
        return [
            (f"{session['name']}:synth", ["synth", "--spec", session["spec"], *tail]),
            (f"{session['name']}:bar", ["bar", "--input", str(out / "synthetic.csv"), *tail]),
        ]
    return [
        (f"{session['name']}:{cmd}", [cmd, "--config", session["config"], *tail])
        for cmd in session["commands"]
    ]


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _r2_4pl(params: dict, curve) -> float:
    """R^2 of the fitted sigmoid against the planted curve."""
    a, b, c, d = (params[k] for k in "abcd")
    ys = [y for _, y in curve]
    mean = sum(ys) / len(ys)
    res = sum((y - (d + (a - d) / (1.0 + (x / c) ** b))) ** 2 for x, y in curve)
    tot = sum((y - mean) ** 2 for y in ys)
    return 1.0 - res / tot


def _check_bar(session: dict, out: Path, tol: float) -> str | None:
    doc = _load(out / "bar_series.json")
    times = [p["time_s"] for p in doc["points"]]
    if times != [float(t) for t in session["planted_times"]]:
        return f"epoch times {times} != {session['planted_times']}"
    for p, want in zip(doc["points"], session["planted_bar"]):
        if not abs(p["bar"] / want - 1.0) <= tol:
            return f"BAR {p['bar']:.5f} at {p['time_s']:g}s, planted {want}"
    return None


def _check_fit(session: dict, out: Path) -> str | None:
    fit = _load(out / "fit_4pl.json")
    if not fit["converged"]:
        return "fit_4pl.json reports converged=false"
    r2 = _r2_4pl(fit["params"], session["curve"])
    want = session["published_r2"] - R2_SLACK
    if not r2 >= want:
        return f"4PL R^2 {r2:.5f} against the planted curve, needs >= {want:.4f}"
    if not (out / "fit_quartic.json").is_file():
        return "fit_quartic.json missing"
    return None


def _check_topo(session: dict, out: Path) -> str | None:
    n = session["resolution"]
    header = b"P6\n%d %d\n255\n" % (n, n)
    for i, t in enumerate(session["planted_times"]):
        ppm = (out / f"topo_{i:02d}_{float(t):g}s.ppm").read_bytes()
        if not ppm.startswith(header) or len(ppm) != len(header) + 3 * n * n:
            return f"map {i} has a bad PPM header or length {len(ppm)}"
    sim = _load(out / "similarity.json")["similarity"]
    if len(sim) != len(session["planted_times"]) or any(row[i] != 1.0 for i, row in enumerate(sim)):
        return "similarity diagonal is not exactly 1"
    return None


def _check_psd(session: dict, out: Path) -> str | None:
    if not (out / "psd.json").is_file() or len(list(out.glob("psd_*.csv"))) != 30:
        return "psd.json or a per-channel PSD CSV is missing"
    return None


def _check_report(session: dict, out: Path) -> str | None:
    _load(out / "report.json")
    return None


def _check_synth(session: dict, out: Path) -> str | None:
    if not (out / "synth_meta.json").is_file() or (out / "synthetic.csv").stat().st_size == 0:
        return "synthetic.csv or synth_meta.json missing"
    size = (out / "synthetic.edf").stat().st_size
    if size != SYNTH_EDF_BYTES:
        return f"synthetic.edf has {size} bytes, expected {SYNTH_EDF_BYTES}"
    return None


_CHECKS = {
    "psd": _check_psd,
    "bar": lambda s, o: _check_bar(s, o, SYNTH_BAR_REL_TOL if "spec" in s else BAR_REL_TOL),
    "fit": _check_fit,
    "topo": _check_topo,
    "report": _check_report,
    "synth": _check_synth,
}


def check(session: dict, out: Path, op: str, argv: list[str], rc) -> str | None:
    """None when the operation succeeded, else the reason it failed."""
    if rc != 0:
        return f"exit {rc}"
    try:
        if "fits" in session:
            fit = next(f for f in session["fits"] if op == f"{f['name']}:fit")
            r2 = _load(Path(argv[argv.index("--out") + 1]) / "fit_4pl.json")["r_squared"]
            want = fit["published_r2"]
            if want is not None and not r2 >= want - R2_SLACK:
                return f"4PL R^2 {r2:.6f} below published {want} - {R2_SLACK}"
            return None
        return _CHECKS[argv[0]](session, out)
    except (OSError, KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"output check raised {type(exc).__name__}: {exc}"
