"""Seeded benchmark inputs, built without importing barstress.

Recordings are sums of sinusoids on the 0.25 Hz grid, so one 4 s period
holds every oscillator a whole number of times. Oscillators sit 0.75 Hz
apart: under the program's default Welch plan (4 s Hamming segments, 0.25
Hz bins) each one leaks into its two neighbouring bins only, so no two
share a bin and the band powers, hence the ratio, come out as planted up
to the small noise term. The generator computes
that period once per protocol block, tiles it across the block and adds
seeded white noise. Each block plants one beta/alpha ratio; the epoch
window at the block start therefore measures the planted value. Files are
written by this module's own EDF and CSV writers, so every commit of the
program under test receives byte-identical inputs for a seed.

Inputs are cached per workload and seed under the work directory, with a
manifest holding each file's SHA-256 and size.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1

FS = 500
PERIOD = 4 * FS  # samples in one period of the 0.25 Hz oscillator grid
RECORD_S = 1  # EDF data record length in seconds
OSC_SPACING = 0.75  # Hz, three 0.25 Hz bins
CHUNK_S = 60  # whole periods, so every chunk starts at period phase 0

# The program's standard-30 montage, front to back.
LABELS = (
    "Fp1", "Fp2",
    "F7", "F3", "Fz", "F4", "F8",
    "FT7", "FC3", "FCz", "FC4", "FT8",
    "T7", "C3", "Cz", "C4", "T8",
    "TP7", "CP3", "CPz", "CP4", "TP8",
    "P7", "P3", "Pz", "P4", "P8",
    "O1", "Oz", "O2",
)
ALPHA_HZ = (8.0, 13.0)
BETA_HZ = (13.0, 30.0)
ALPHA_POWER = 4.329  # uV^2, the paper's baseline alpha power
BASELINE_BETA_POWER = 3.034
BASELINE_BAR = 0.701
NOISE_SD = 0.2  # uV per sample; white density 1.6e-4 uV^2/Hz at 500 Hz
GRADIENT_MAX = 0.3  # spread of the per-channel ratio across the scalp
PHYS_RANGE = 200.0  # uV, symmetric EDF physical range
DIG_MIN, DIG_MAX = -32768, 32767

GAMEPLAY_S = 3610
GAMEPLAY_EPOCHS = (900, 1800, 2700, 3600)
GAMEPLAY_GAMES = ("puzzle", "combinational", "strategic")
RELAX_S = 730
RELAX_EPOCHS = (0, 180, 360, 540, 720)
RELAX_GAME = "combinational"
RELAX_MUSIC = ("low_pitch", "medium_pitch", "high_pitch", "no_music")
TOPO_RES = {"gameplay_edf": 64, "relaxation_maps": 256}
SYNTH_S = 120


def load_published(root: Path):
    """The paper's published series, read from the repository's test data."""
    path = root / "tests" / "published_series.py"
    spec = importlib.util.spec_from_file_location("perfbench_published", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oscillators(band: tuple[float, float]) -> np.ndarray:
    """Every third point of the 0.25 Hz grid, inset half a hertz from the band edges."""
    return np.arange(band[0] + 0.5, band[1] - 0.5 + 1e-9, OSC_SPACING)


def _period(rng: np.random.Generator, ratio: float, gradient: float) -> np.ndarray:
    """One 4 s period, (channels, PERIOD), planting ratio as the montage mean.

    Every channel carries ALPHA_POWER in alpha; beta power is
    ratio * ALPHA_POWER * m where m runs linearly from 1 - gradient/2 at
    the front to 1 + gradient/2 at the back, so m averages to exactly 1.
    """
    n_ch = len(LABELS)
    t = np.arange(PERIOD) / FS
    m = 1.0 + gradient * (np.arange(n_ch) / (n_ch - 1) - 0.5)
    out = np.zeros((n_ch, PERIOD))
    for band, power in ((ALPHA_HZ, np.full(n_ch, ALPHA_POWER)), (BETA_HZ, ratio * ALPHA_POWER * m)):
        freqs = _oscillators(band)
        phases = rng.uniform(0.0, 2.0 * np.pi, (n_ch, len(freqs)))
        amp = np.sqrt(2.0 * power / len(freqs))
        waves = np.sin(2.0 * np.pi * freqs[None, :, None] * t + phases[:, :, None])
        out += amp[:, None] * waves.sum(axis=1)
    return out


def _edf_header(n_records: int) -> bytes:
    ns = len(LABELS)

    def field(value, size: int) -> bytes:
        raw = str(value).encode("ascii")
        if len(raw) > size:
            raise ValueError(f"EDF field {value!r} exceeds {size} bytes")
        return raw.ljust(size)

    def column(value, size: int) -> bytes:
        return b"".join(field(value, size) for _ in range(ns))

    head = [
        field("0", 8), field("X", 80), field("perfbench", 80),
        field("01.01.00", 8), field("00.00.00", 8), field(256 * (ns + 1), 8),
        field("", 44), field(n_records, 8), field(RECORD_S, 8), field(ns, 4),
        b"".join(field(lab, 16) for lab in LABELS),
        column("", 80), column("uV", 8),
        column(f"{-PHYS_RANGE:g}", 8), column(f"{PHYS_RANGE:g}", 8),
        column(DIG_MIN, 8), column(DIG_MAX, 8),
        column("", 80), column(FS * RECORD_S, 8), column("", 32),
    ]
    return b"".join(head)


def write_session_edf(
    path: Path, rng: np.random.Generator, duration: int, blocks: list[tuple[int, int, float]]
) -> dict:
    """Write a 16-bit EDF of duration seconds; returns its digest and size.

    blocks are (start_s, end_s, planted_ratio) covering [0, duration).
    """
    spr = FS * RECORD_S
    scale = (DIG_MAX - DIG_MIN) / (2.0 * PHYS_RANGE)
    digest = hashlib.sha256()
    size = 0
    with open(path, "wb") as fh:
        header = _edf_header(duration // RECORD_S)
        fh.write(header)
        digest.update(header)
        size += len(header)
        for start, end, ratio in blocks:
            gradient = rng.uniform(-GRADIENT_MAX, GRADIENT_MAX)
            tile = np.tile(_period(rng, ratio, gradient), CHUNK_S * FS // PERIOD)
            for c0 in range(start, end, CHUNK_S):
                n = (min(c0 + CHUNK_S, end) - c0) * FS
                x = tile[:, :n] + NOISE_SD * rng.standard_normal((len(LABELS), n))
                if np.abs(x).max() >= PHYS_RANGE:
                    raise ValueError("planted signal exceeds the EDF physical range")
                q = (np.rint((x + PHYS_RANGE) * scale) + DIG_MIN).astype("<i2")
                blob = q.reshape(len(LABELS), n // spr, spr).transpose(1, 0, 2).tobytes()
                fh.write(blob)
                digest.update(blob)
                size += len(blob)
    return {"sha256": digest.hexdigest(), "bytes": size}


def _protocol_blocks(duration: int, epochs, ratios, lead_ratio: float):
    """Blocks that start at each epoch time, preceded by a lead block."""
    bounds = list(epochs) + [duration]
    blocks = [(0, bounds[0], lead_ratio)] if bounds[0] > 0 else []
    blocks += [(bounds[i], bounds[i + 1], r) for i, r in enumerate(ratios)]
    return blocks


def _write_text(path: Path, text: str) -> dict:
    blob = text.encode("utf-8")
    path.write_bytes(blob)
    return {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}


def _points_csv(points) -> str:
    return "x_minutes,y_ratio\n" + "".join(f"{x!r},{y!r}\n" for x, y in points)


def _cli_config(recording: str, protocol: dict, resolution: int) -> str:
    doc = {
        "input": {"recording": recording},
        "protocol": protocol,
        "baseline_bar": BASELINE_BAR,
        "topo": {"resolution": resolution},
    }
    return json.dumps(doc, indent=2) + "\n"


def _gameplay(pub, rng, d: Path) -> list[dict]:
    sessions = []
    for game in GAMEPLAY_GAMES:
        key = (game, "gamer")
        ratios = [bar for bar, _ in pub.GAMEPLAY_SERIES[key]]
        rec = d / f"gameplay_{game}.edf"
        blocks = _protocol_blocks(GAMEPLAY_S, GAMEPLAY_EPOCHS, ratios, BASELINE_BAR)
        files = {rec.name: write_session_edf(rec, rng, GAMEPLAY_S, blocks)}
        protocol = {"phase": "during_gameplay", "game_type": game, "gamer_type": "gamer"}
        cfg = d / f"gameplay_{game}.json"
        files[cfg.name] = _write_text(cfg, _cli_config(str(rec), protocol, TOPO_RES["gameplay_edf"]))
        sessions.append({
            "name": f"gameplay/{game}/gamer",
            "commands": ["bar", "fit", "topo", "report"],
            "config": str(cfg),
            "files": files,
            "planted_times": list(GAMEPLAY_EPOCHS),
            "planted_bar": ratios,
            "curve": pub.gameplay_points(*key),
            "published_r2": pub.GAMEPLAY_SIGMOID[key][4],
            "resolution": TOPO_RES["gameplay_edf"],
        })
    return sessions


def _relaxation(pub, rng, d: Path) -> list[dict]:
    sessions = []
    for music in RELAX_MUSIC:
        key = (RELAX_GAME, music, "gamer")
        ratios = list(pub.RELAXATION_SERIES[key])
        rec = d / f"relax_{music}.edf"
        blocks = _protocol_blocks(RELAX_S, RELAX_EPOCHS, ratios, BASELINE_BAR)
        files = {rec.name: write_session_edf(rec, rng, RELAX_S, blocks)}
        protocol = {
            "phase": "after_gameplay", "game_type": RELAX_GAME,
            "gamer_type": "gamer", "music_type": music,
        }
        cfg = d / f"relax_{music}.json"
        files[cfg.name] = _write_text(cfg, _cli_config(str(rec), protocol, TOPO_RES["relaxation_maps"]))
        sessions.append({
            "name": f"relaxation/{RELAX_GAME}/{music}/gamer",
            "commands": ["psd", "bar", "fit", "topo", "report"],
            "config": str(cfg),
            "files": files,
            "planted_times": list(RELAX_EPOCHS),
            "planted_bar": ratios,
            "curve": pub.relaxation_points(*key),
            "published_r2": pub.RELAXATION_SIGMOID_R2[key],
            "resolution": TOPO_RES["relaxation_maps"],
        })
    return sessions


def _synth(seed: int, d: Path) -> list[dict]:
    spec = {
        "duration_s": SYNTH_S,
        "sampling_rate": FS,
        "bands": [
            {"name": "alpha", "f_low": ALPHA_HZ[0], "f_high": ALPHA_HZ[1], "power": ALPHA_POWER},
            {"name": "beta", "f_low": BETA_HZ[0], "f_high": BETA_HZ[1], "power": BASELINE_BETA_POWER},
        ],
        "seed": seed,
        "outputs": ["csv", "edf"],
    }
    path = d / "synth_spec.json"
    files = {path.name: _write_text(path, json.dumps(spec, indent=2) + "\n")}
    return [{
        "name": "synth/baseline",
        "spec": str(path),
        "files": files,
        "planted_times": [0],
        "planted_bar": [BASELINE_BETA_POWER / ALPHA_POWER],
    }]


def _published(pub, rng, d: Path) -> list[dict]:
    series = [
        (f"gameplay/{g}/{gt}", pub.gameplay_points(g, gt), pub.GAMEPLAY_SIGMOID[(g, gt)][4])
        for g, gt in pub.GAMEPLAY_SERIES
    ] + [
        (f"relaxation/{g}/{m}/{gt}", pub.relaxation_points(g, m, gt), pub.RELAXATION_SIGMOID_R2.get((g, m, gt)))
        for g, m, gt in pub.RELAXATION_SERIES
    ]
    fits, files = [], {}
    for i in rng.permutation(len(series)):
        name, points, r2 = series[i]
        path = d / ("points_" + name.replace("/", "_") + ".csv")
        files[path.name] = _write_text(path, _points_csv(points))
        fits.append({"name": name, "points": str(path), "published_r2": r2})
    return [{"name": "published/all", "fits": fits, "files": files}]


def prepare(workload: str, seed: int, root: Path, work: Path) -> dict:
    """Build (or reuse) the inputs for one workload and seed; return the plan.

    Only the requested seed's inputs are kept, which bounds the disk used by
    the hour-long recordings.
    """
    base = work / "inputs" / workload
    d = base / f"seed-{seed}"
    manifest = d / "plan.json"
    if manifest.is_file():
        plan = json.loads(manifest.read_text(encoding="utf-8"))
        if plan.get("generator_version") == GENERATOR_VERSION:
            return plan
    if base.is_dir():
        shutil.rmtree(base)
    d.mkdir(parents=True)
    pub = load_published(root)
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    if workload == "gameplay_edf":
        sessions = _gameplay(pub, rng, d)
    elif workload == "relaxation_maps":
        sessions = _relaxation(pub, rng, d)
    elif workload == "synth_roundtrip":
        sessions = _synth(seed, d)
    elif workload == "published_fits":
        sessions = _published(pub, rng, d)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan = {
        "generator_version": GENERATOR_VERSION,
        "workload": workload,
        "seed": seed,
        "input_dir": str(d),
        "sessions": sessions,
    }
    tmp = manifest.with_suffix(".tmp")
    tmp.write_text(json.dumps(plan, indent=2), encoding="utf-8")
    tmp.replace(manifest)
    return plan
