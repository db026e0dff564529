"""Command-line front end: ingest, spectra, ratios, fits, maps, report.

One JSON config document drives every command; flags override config keys
by dotted path (for example --welch.taper hann) and top-level keys by
name (--baseline_bar 0.7). Every command returns its files by name and
writes nothing. One writer, _write, then encodes them all: a .json
file's document with json.dumps(doc, indent=2), a .csv file's rows of
text fields one line each, anything else as the bytes given, or as the
byte chunks of a _Chunks list, written in order and never joined
(synth's CSV and EDF, psd's per-channel CSVs). Only then does it write
them, so a failed command leaves no partial output.

Every invocation runs through one loop, _run: a subcommand runs alone,
`session` runs session.commands in one process (psd, bar and topo then
read each recording and estimate its epoch spectra once). run_meta.json
comes last, with each command's exit code and wall time; wall-clock data
goes there only, keeping the analysis artifacts byte-reproducible.

Exit codes: 0 success, 2 validation or usage error, 3 IO error,
4 fit non-convergence (partial output still written). An allocation too
large for memory exits 2, like any rejected input.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import mmap
import os
import platform
import sys
import time
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, core, floattext, ingest, regress, spectral, synth, topo
from .errors import (
    EmptyProtocol,
    InvalidConfig,
    MalformedArtifact,
    MissingArtifacts,
    PipelineError,
    TooFewPoints,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


@dataclass(frozen=True)
class RunConfig:
    """Materialized configuration for one command invocation."""

    recording: str | None = None
    baseline_recording: str | None = None
    points: str | None = None
    sampling_rate: float = 500.0
    csv_layout: ingest.CsvLayout = ingest.CsvLayout()
    montage_name: str = "standard-30"
    welch: spectral.WelchConfig = spectral.WelchConfig()
    bands: tuple[core.BandDefinition, ...] = tuple(core.DEFAULT_BANDS.values())
    numerator: str = "beta"
    denominator: str = "alpha"
    channels: tuple[str, ...] | None = None
    protocol: core.SessionProtocol = core.SessionProtocol(phase="baseline")
    baseline_bar: float | None = None
    out_dir: str = "out"
    topo_resolution: int = 64
    topo_scalar: str = "bar"
    seed: int = 0
    session_commands: tuple[str, ...] = ("psd", "bar", "fit", "topo", "report")
    quiet: bool = False

    def band(self, name: str) -> core.BandDefinition:
        for b in self.bands:
            if b.name == name:
                return b
        raise InvalidConfig(f"band {name!r} is not defined in the config")

    @functools.cached_property
    def montage(self) -> core.Montage:
        """The configured montage, loaded on first use."""
        return ingest.load_montage(self.montage_name)


# Every key of the config document: dotted key -> (RunConfig location, JSON
# type). A key left out keeps its dataclass default.
CONFIG_KEYS = {
    "schema_version": (None, int),
    "input.recording": ("recording", str | None),
    "input.baseline_recording": ("baseline_recording", str | None),
    "input.points": ("points", str | None),
    "sampling_rate": ("sampling_rate", float),
    "csv.delimiter": ("csv_layout.delimiter", str),
    "csv.has_header": ("csv_layout.has_header", bool),
    "csv.time_column": ("csv_layout.time_column", int | None),
    "montage": ("montage_name", str),
    "welch.window_len": ("welch.window_len", float),
    "welch.segment_count": ("welch.segment_count", int),
    "welch.overlap_fraction": ("welch.overlap_fraction", float),
    "welch.taper": ("welch.taper", str),
    "welch.fft_size": ("welch.fft_size", int | None),
    "bands": ("bands", dict[str, tuple[float, float]]),
    "ratio.numerator": ("numerator", str),
    "ratio.denominator": ("denominator", str),
    "channels": ("channels", list[str] | None),
    "protocol.phase": ("protocol.phase", str),
    "protocol.game_type": ("protocol.game_type", str),
    "protocol.gamer_type": ("protocol.gamer_type", str),
    "protocol.music_type": ("protocol.music_type", str),
    "protocol.epoch_times": ("protocol.epoch_times", list[float] | None),
    "baseline_bar": ("baseline_bar", float | None),
    "out_dir": ("out_dir", str),
    "topo.resolution": ("topo_resolution", int),
    "topo.scalar": ("topo_scalar", str),
    "seed": ("seed", int),
    "session.commands": ("session_commands", list[str]),
}
_CONFIG_TYPES = {key: tp for key, (_, tp) in CONFIG_KEYS.items()}


def _typed(key: str, value, tp):
    """value checked against the JSON type tp and converted to Python.

    null passes only for `X | None`, a JSON integer for float, a bool for
    no number; lists become tuples, and tuple[...] takes just that many items.
    """
    if isinstance(tp, types.UnionType):
        return None if value is None else _typed(key, value, tp.__args__[0])
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    json_kind = {float: (int, float), tuple: list}.get(origin, origin)
    if (
        not isinstance(value, json_kind)
        or (isinstance(value, bool) and origin is not bool)
        or (origin is tuple and len(value) != len(args))
    ):
        what = f"a list of {len(args)}" if origin is tuple else origin.__name__
        raise InvalidConfig(f"{key} must be {what}, got {type(value).__name__} {value!r}")
    if origin in (list, tuple):
        items = args * len(value) if origin is list else args
        return tuple(_typed(f"{key}[{i}]", v, t) for i, (v, t) in enumerate(zip(value, items)))
    if origin is dict and args:
        return {k: _typed(f"{key}.{k}", v, args[1]) for k, v in value.items()}
    if origin is int and not -(2**63) <= value < 2**63:  # no numpy size is wider
        raise InvalidConfig(f"{key} is out of range: {value!r}")
    try:
        return float(value) if origin is float else value
    except OverflowError:
        raise InvalidConfig(f"{key} is out of range: {value!r}") from None


def _checked(doc, table: dict, context: str, path: str = "", required=()) -> dict:
    """The values of doc by dotted key, each checked against its type in table.

    Every key of doc must be a key of table or a section holding some, and
    every required key must be there. Errors name keys with path prefixed.
    """
    sections = {k.rsplit(".", 1)[0] for k in table if "." in k}
    values: dict = {}

    def walk(node, prefix: str):
        if not isinstance(node, dict):
            raise InvalidConfig(f"{path + prefix or context} must be an object, got {node!r}")
        for k, v in node.items():
            key = f"{prefix}.{k}" if prefix else k
            if key in table:
                values[key] = _typed(path + key, v, table[key])
            elif key in sections:
                walk(v, key)
            else:
                raise InvalidConfig(f"unknown {context} key {path + key!r}")

    walk(doc, "")
    missing = [path + k for k in required if k not in values]
    if missing:
        raise InvalidConfig(f"{context} needs {missing}")
    return values


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and materialize a config document."""
    values = _checked(doc, _CONFIG_TYPES, "config")
    version = values.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidConfig(f"unsupported schema_version {version!r}")
    if values.get("channels") == ():
        raise InvalidConfig("channels must name at least one channel, got []")
    names = RunConfig.session_commands  # the default: every command a session may run
    commands = values.get("session.commands", names)
    if not commands or not set(commands) <= set(names):
        raise InvalidConfig(f"session.commands must name some of {list(names)}, got {list(commands)}")
    if "bands" in values:
        values["bands"] = tuple(core.BandDefinition(k, *v) for k, v in values["bands"].items())
    tree: dict = {}
    for key, value in values.items():
        _set_path(tree, CONFIG_KEYS[key][0], value)
    for head, given in tree.items():
        if isinstance(given, dict):
            # Fields left out take the nested dataclass's own defaults, not the
            # filled-in values of RunConfig's default (its protocol already holds
            # baseline's epoch times); a field with no default takes RunConfig's.
            default = getattr(RunConfig, head)
            unset = {f.name: getattr(default, f.name) for f in fields(default) if f.default is MISSING}
            tree[head] = type(default)(**{**unset, **given})
    return RunConfig(**tree)


def _set_path(doc: dict, dotted: str, value):
    """Set doc at the dotted path to value, replacing the subtree there."""
    *parents, last = dotted.split(".")
    for k in parents:
        if not isinstance(doc.get(k), dict):
            doc[k] = {}
        doc = doc[k]
    doc[last] = value


def _read_json(path, what: str):
    """The document in the JSON file at path; InvalidConfig naming the file
    if it is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"{what} {str(path)!r} is not valid JSON: {exc}") from None


def load_config(args, extras: list[str]) -> RunConfig:
    """The config file, then each --dotted.key or --top_level_key override
    in extras (values parse as JSON, else stay strings), then the named flags."""
    doc = _read_json(args.config, "config") if args.config else {}
    if not isinstance(doc, dict):
        raise InvalidConfig(f"config must be an object, got {doc!r}")
    tokens = iter(extras)
    for tok in tokens:
        key, eq, raw = tok[2:].partition("=")
        if not tok.startswith("--") or ("." not in tok and key not in CONFIG_KEYS):
            raise InvalidConfig(f"unrecognized argument {tok!r}")
        if not eq and (raw := next(tokens, None)) is None:
            raise InvalidConfig(f"override {tok!r} is missing a value")
        try:
            _set_path(doc, key, json.loads(raw))
        except json.JSONDecodeError:
            _set_path(doc, key, raw)
    flags = {
        "out_dir": args.out,
        "seed": args.seed,
        "input.recording": getattr(args, "input", None),
        "input.points": getattr(args, "points", None),
    }
    for key, value in flags.items():
        if value not in (None, ""):  # a flag left out or given empty sets nothing
            _set_path(doc, key, value)
    return replace(config_from_dict(doc), quiet=bool(args.quiet))


# ------------------------------------------------------------------ helpers

# The spectra of the last files read, oldest first: (key, file identity,
# ((epoch start, PsdEstimate), ...)). Two files: a recording and its baseline.
_PSD_MEMO: list = []
_PSD_MEMO_FILES = 2
# A file changed less than this long before its read began is not kept: a
# change within one timestamp tick would not show in its identity (git's
# "racy clean" rule).
_RACY_NS = 2_000_000_000


def _epoch_psds(
    cfg: RunConfig, path_str: str | None, protocol: core.SessionProtocol
) -> list[tuple[float, spectral.PsdEstimate]]:
    """(epoch start, Welch PSD) at each protocol epoch of the recording at path_str.

    The file is memory-mapped and every epoch window is read in one reader
    call: an EDF file parses its header once and decodes the data records
    under the windows, a CSV file parses its header line and the rows
    under the windows in one line scan (see ingest.read_csv_windows). Each
    window's Recording is cut by slice_epochs and its PSD estimated.

    The spectra of the last two files stay in _PSD_MEMO for the life of
    the process, so psd, bar and topo in one process read and transform
    each file once. A hit needs the same key: the real path; the reader
    with its inputs (CSV layout, sampling rate, the loaded montage); the
    windows; the WelchConfig; and the Welch function, so a replaced one
    never gets spectra it did not compute. It also needs the same identity
    of the file opened for the read: device, inode, size, mtime and ctime.
    A failed read, or one of a file changed within _RACY_NS, stores nothing.
    """
    if not path_str:
        raise InvalidConfig("no input recording configured (input.recording)")
    path = Path(path_str)
    if path.suffix.lower() == ".edf":
        reader, inputs = ingest.read_edf_windows, {"montage": cfg.montage}
    else:
        reader = ingest.read_csv_windows
        inputs = {"layout": cfg.csv_layout, "sampling_rate": cfg.sampling_rate, "montage": cfg.montage}
    window_len = cfg.welch.window_len
    windows = [(t, t + window_len) for t in protocol.epoch_times]
    if not windows:
        raise EmptyProtocol("protocol has no epoch times")
    began = time.time_ns()
    with path.open("rb") as f:
        st = os.fstat(f.fileno())
        identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        key = (os.path.realpath(path), reader, inputs, windows, cfg.welch, spectral.welch_psd)
        hit = next((e for e in _PSD_MEMO if e[:2] == (key, identity)), None)
        if hit is not None:
            _PSD_MEMO.remove(hit)
            _PSD_MEMO.append(hit)
            return list(hit[2])
        if st.st_size == 0:
            # mmap rejects an empty file; the reader reports it from no bytes.
            recordings = reader(b"", windows=windows, **inputs)
        else:
            with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data:
                recordings = reader(data, windows=windows, **inputs)
    ones = [replace(protocol, epoch_times=(t,)) for t in protocol.epoch_times]
    epochs = [core.slice_epochs(rec, one, window_len)[0] for rec, one in zip(recordings, ones)]
    psds = tuple((ep.t_start, spectral.welch_psd(ep, cfg.welch)) for ep in epochs)
    if began - max(st.st_mtime_ns, st.st_ctime_ns) >= _RACY_NS:
        kept = [e for e in _PSD_MEMO if e[0] != key][1 - _PSD_MEMO_FILES :]
        _PSD_MEMO[:] = [*kept, (key, identity, psds)]
    return list(psds)


# What a command returns: its exit code, its files by name, and its message.
Result = tuple[int, dict[str, typing.Any], str]


class _Chunks(list):
    """A file's bytes as bytes-like chunks, written one after another."""


def _encode(name: str, content) -> list:
    """The bytes of one output file, as a list of bytes-like chunks.

    content is bytes or _Chunks, kept as given; or the document of a .json
    file, written as json.dumps writes it with indent=2; or the rows of
    text fields of a .csv file, each row one comma-joined line.
    """
    if isinstance(content, _Chunks):
        return content
    if isinstance(content, bytes):
        return [content]
    if name.endswith(".json"):
        return [json.dumps(content, indent=2).encode()]
    return [("\n".join(map(",".join, content)) + "\n").encode()]


# What made a run: a fit's last bits come from numpy's LAPACK.
_VERSIONS = {"barstress": __version__, "numpy": np.__version__, "python": platform.python_version()}


def _write(cfg: RunConfig, files: dict[str, typing.Any]) -> None:
    """Write files into cfg.out_dir, in order.

    Every file is encoded before the first is written, so a file that
    cannot be encoded leaves no partial output. A file's chunks are
    written as they are, never joined.
    """
    encoded = {name: _encode(name, content) for name, content in files.items()}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, chunks in encoded.items():
        with (out / name).open("wb") as f:
            f.writelines(chunks)


def _bar_points(
    cfg: RunConfig, path: str | None, protocol: core.SessionProtocol
) -> list[tuple[float, float]]:
    """(epoch start, configured band ratio) at each protocol epoch of the
    recording at path."""
    # Bands first, so an undefined band fails before the recording is read.
    num, den = cfg.band(cfg.numerator), cfg.band(cfg.denominator)
    points = [
        (t, spectral.band_ratio(psd, num, den, cfg.channels))
        for t, psd in _epoch_psds(cfg, path, protocol)
    ]
    if not all(r > 0 and math.isfinite(r) for _, r in points):
        raise InvalidConfig("ratios must be finite and > 0")
    return points


def _baseline_leads(cfg: RunConfig) -> bool:
    """Whether bar_points.csv starts with the baseline at x = 0: in phase
    during_gameplay, with baseline_bar or input.baseline_recording set."""
    has_baseline = cfg.baseline_bar is not None or bool(cfg.baseline_recording)
    return cfg.protocol.phase == "during_gameplay" and has_baseline


def _measure_baseline(cfg: RunConfig) -> float | None:
    """Baseline ratio from config, or measured from the baseline recording."""
    if cfg.baseline_bar is not None:
        return cfg.baseline_bar
    if not cfg.baseline_recording:
        return None
    proto = core.SessionProtocol(phase="baseline")
    return float(np.mean([r for _, r in _bar_points(cfg, cfg.baseline_recording, proto)]))


# ----------------------------------------------------------------- commands

def cmd_psd(cfg: RunConfig) -> Result:
    epochs = _epoch_psds(cfg, cfg.recording, cfg.protocol)
    starts = [t for t, _ in epochs]
    freqs, channels = epochs[0][1].frequencies, epochs[0][1].channels
    power = np.stack([psd.power for _, psd in epochs], axis=-1)  # (channel, frequency, epoch)
    header = ",".join(["frequency_hz", *(f"epoch_{t:g}s" for t in starts)]).encode() + b"\n"
    names = [f"psd_{ch.label}.csv" for ch in channels]
    files = {
        name: _Chunks([header, floattext.join_rows(np.column_stack([freqs, spectra]))])
        for name, spectra in zip(names, power)
    }
    # An index of the CSVs: the spectra are written once, in them.
    files["psd.json"] = {
        "schema_version": SCHEMA_VERSION,
        "epochs": starts,
        "channels": [{"label": ch.label, "file": name} for ch, name in zip(channels, names)],
        "welch": asdict(cfg.welch),
    }
    return EXIT_OK, files, f"wrote PSD for {len(channels)} channels, {len(epochs)} epochs"


def cmd_bar(cfg: RunConfig) -> Result:
    baseline = _measure_baseline(cfg)
    series = _bar_points(cfg, cfg.recording, cfg.protocol)
    p = cfg.protocol

    # Without a baseline both of its fields are empty; bar_series.json says null.
    def against_baseline(r):
        if baseline is None:
            return ["", ""]
        base = float(baseline)
        return [repr(base), repr(spectral.relative_increase(r, base))]

    points = [(t / 60.0, r) for t, r in series]
    if _baseline_leads(cfg):
        points.insert(0, (0.0, baseline))
    files = {
        "bar_series.csv": [
            ["time_s", "bar", "baseline", "relative_increase",
             "phase", "game_type", "gamer_type", "music_type"],
            *(
                [repr(t), repr(r), *against_baseline(r),
                 p.phase, p.game_type, p.gamer_type, p.music_type]
                for t, r in series
            ),
        ],
        "bar_points.csv": [["x_minutes", "y_ratio"], *(map(repr, pt) for pt in points)],
        "bar_series.json": {
            "schema_version": SCHEMA_VERSION,
            "baseline": baseline,
            "phase": p.phase,
            "game_type": p.game_type,
            "gamer_type": p.gamer_type,
            "music_type": p.music_type,
            "points": [
                {
                    "time_s": t,
                    "bar": r,
                    "relative_increase": (
                        spectral.relative_increase(r, baseline)
                        if baseline is not None
                        else None
                    ),
                }
                for t, r in series
            ],
        },
    }
    return EXIT_OK, files, f"wrote BAR series with {len(series)} points"


def _read_points(path: Path) -> list[tuple[float, float]]:
    try:
        text = path.read_text(encoding="utf-8-sig")  # a spreadsheet's BOM is not data
    except UnicodeDecodeError as exc:
        raise TooFewPoints(f"points file {str(path)!r} is not UTF-8: {exc}") from None
    rows = [ln.split(",") for ln in text.splitlines() if ln.strip()]
    if rows and len(rows[0]) == 2:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]
    points = []
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise TooFewPoints(f"points row {i} must have two fields, got {len(row)}")
        try:
            points.append((float(row[0]), float(row[1])))
        except ValueError:
            raise TooFewPoints(f"points row {i} is not numeric: {row}") from None
    return points


def cmd_fit(cfg: RunConfig, model_kind: str) -> Result:
    src = cfg.points or str(Path(cfg.out_dir) / "bar_points.csv")
    points = _read_points(Path(src))
    fits: dict[str, regress.FitResult] = {}
    if model_kind in ("4pl", "both"):
        fits["4pl"] = regress.fit_4pl(points)
    if model_kind in ("quartic", "both"):
        fits["quartic"] = regress.fit_quartic(points)
    files = {f"fit_{name}.json": regress.fit_result_to_dict(fit) for name, fit in fits.items()}
    if len(fits) > 1:
        ranking = regress.compare_models(list(fits.values()))
        files["comparison.json"] = {
            "schema_version": SCHEMA_VERSION,
            "ranking": [
                {
                    "rank": r.rank,
                    "model_type": r.fit.model_type,
                    "aic": None if math.isinf(r.fit.aic) else r.fit.aic,
                    "overfit_warning": r.overfit_warning,
                }
                for r in ranking
            ],
        }
    xs = [x for x, _ in points]
    for name, fit in fits.items():
        model = fit.model
        pred = (
            regress.eval_4pl(model, xs)
            if isinstance(model, regress.FourPLModel)
            else regress.eval_quartic(model, np.asarray(xs))
        )
        files[f"fit_{name}_curve.csv"] = [
            ["x_minutes", "y_observed", "y_fitted"],
            *([repr(x), repr(y), repr(float(p))] for (x, y), p in zip(points, pred)),
        ]
    message = "\n".join(
        f"{name}: rss={fit.rss:.6g} r2={fit.r_squared:.6f} "
        f"aic={fit.aic:.4f} converged={fit.converged}"
        for name, fit in fits.items()
    )
    code = EXIT_DIVERGED if any(not f.converged for f in fits.values()) else EXIT_OK
    return code, files, message


def _topo_bands(cfg: RunConfig) -> list[core.BandDefinition]:
    """The bands of the topo scalar: numerator and denominator, or the one band."""
    if cfg.topo_scalar == "bar":
        return [cfg.band(cfg.numerator), cfg.band(cfg.denominator)]
    if cfg.topo_scalar.startswith("band:"):
        return [cfg.band(cfg.topo_scalar.split(":", 1)[1])]
    raise InvalidConfig(f"topo scalar must be 'bar' or 'band:<name>', got {cfg.topo_scalar!r}")


def _epoch_vector(
    psd: spectral.PsdEstimate, bands: list[core.BandDefinition], montage: core.Montage
) -> topo.TopoVector:
    """The scalar per montage electrode: the bands' power ratio, or one band's power."""
    rows = [i for i, c in enumerate(psd.channels) if c.kind == "eeg"]
    if [psd.channels[i].label for i in rows] != [e.label for e in montage.eeg_electrodes]:
        raise InvalidConfig("recording channels do not cover the montage")
    power = [spectral.band_power_per_channel(psd, band)[rows] for band in bands]
    return topo.TopoVector(power[0] / power[1] if len(power) == 2 else power[0])


def cmd_topo(cfg: RunConfig) -> Result:
    montage = cfg.montage
    bands = _topo_bands(cfg)  # before the read, like _bar_points
    epochs = _epoch_psds(cfg, cfg.recording, cfg.protocol)
    vectors = [_epoch_vector(psd, bands, montage) for _, psd in epochs]
    grids = [
        topo.interpolate_scalp(v, montage, cfg.topo_resolution) for v in vectors
    ]
    sim = topo.similarity_matrix(vectors).tolist()
    files = {}
    for i, ((t, _), grid) in enumerate(zip(epochs, grids)):
        stem = f"topo_{i:02d}_{t:g}s"
        files[f"{stem}.ppm"] = topo.render_topomap(grid)
        files[f"{stem}.csv"] = topo.grid_to_csv(grid)
    files["similarity.csv"] = [list(map(repr, row)) for row in sim]
    files["similarity.json"] = {
        "schema_version": SCHEMA_VERSION,
        "scalar": cfg.topo_scalar,
        "epochs": [t for t, _ in epochs],
        "similarity": sim,
    }
    return EXIT_OK, files, f"wrote {len(grids)} topography maps"


# Every key of a synth spec and its JSON type. Keys left out take the
# SynthSpec defaults, or the run config's sampling rate, montage and seed.
SYNTH_KEYS = {
    "duration_s": float,
    "sampling_rate": float,
    "montage": str,
    "bands": list[dict],
    "noise_floor": float,
    "seed": int,
    "outputs": list[str],
}
SYNTH_BAND_KEYS = {"name": str, "f_low": float, "f_high": float, "power": float}


def _synth_spec_from_doc(doc: dict, cfg: RunConfig) -> tuple[synth.SynthSpec, tuple[str, ...]]:
    values = _checked(doc, SYNTH_KEYS, "synth spec", required=["duration_s"])
    bands = []
    for i, entry in enumerate(values.get("bands", ())):
        b = _checked(entry, SYNTH_BAND_KEYS, "synth spec", f"bands[{i}].", SYNTH_BAND_KEYS)
        bands.append((core.BandDefinition(b["name"], b["f_low"], b["f_high"]), b["power"]))
    outputs = values.get("outputs", ("csv",))
    bad = set(outputs) - {"csv", "edf"}
    if bad or not outputs:
        raise InvalidConfig(f"synth outputs must be csv/edf, got {sorted(bad or outputs)}")
    spec = synth.SynthSpec(
        duration=values["duration_s"],
        sampling_rate=values.get("sampling_rate", cfg.sampling_rate),
        montage=ingest.load_montage(values.get("montage", cfg.montage_name)),
        band_targets=tuple(bands),
        noise_floor=values.get("noise_floor", synth.SynthSpec.noise_floor),
        seed=values.get("seed", cfg.seed),
    )
    return spec, outputs


def cmd_synth(cfg: RunConfig, spec_path: str) -> Result:
    spec, outputs = _synth_spec_from_doc(_read_json(spec_path, "synth spec"), cfg)
    tcol, columns = cfg.csv_layout.time_column, len(spec.montage.electrodes) + 1
    if "csv" in outputs and tcol is not None and tcol >= columns:
        # write_csv says the same, but only after the synthesis
        raise InvalidConfig(f"time_column {tcol} outside {columns} columns")
    # One period of a repeating signal, which the writers repeat to n.
    recording, n = synth.synth_eeg(spec, one_period=True), spec.n_samples
    files = {}
    if "csv" in outputs:
        files["synthetic.csv"] = _Chunks(ingest.write_csv(recording, cfg.csv_layout, n))
    if "edf" in outputs:
        files["synthetic.edf"] = _Chunks(ingest.write_edf(recording, n))
    written = list(files)
    files["synth_meta.json"] = {
        **synth.spec_metadata(spec), "schema_version": SCHEMA_VERSION, "files": written
    }
    return EXIT_OK, files, f"wrote synthetic recording: {', '.join(written)}"


# What report reads of each document, as its command writes it: a dict of
# required keys, a one-item list whose item every element matches, or the
# JSON kind of a value.
_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))
_KIND_NAMES = {str: "a string", bool: "true or false", _NUMBER: "a number",
               _NUMBER_OR_NULL: "a number or null"}
_BAR_SERIES = {
    "phase": str, "game_type": str, "gamer_type": str, "music_type": str,
    "points": [{"time_s": _NUMBER, "bar": _NUMBER, "relative_increase": _NUMBER_OR_NULL}],
}
_FIT = {"r_squared": _NUMBER, "aic": _NUMBER_OR_NULL, "converged": bool}
_COMPARISON = {"ranking": [{"model_type": str, "overfit_warning": bool}]}
_SIMILARITY = {"similarity": [[_NUMBER]]}


def _shape_error(doc, shape, where: str = "") -> str | None:
    """Where doc first departs from shape, said in words; None if nowhere."""
    at = where or "the document"
    if isinstance(shape, dict):
        if not isinstance(doc, dict):
            return f"{at} is not an object"
        missing = next((key for key in shape if key not in doc), None)
        if missing is not None:
            return f"{at} has no {missing!r}"
        found = (
            _shape_error(doc[key], item, f"{where}.{key}".lstrip("."))
            for key, item in shape.items()
        )
    elif isinstance(shape, list):
        if not isinstance(doc, list):
            return f"{at} is not a list"
        found = (_shape_error(item, shape[0], f"{where}[{i}]") for i, item in enumerate(doc))
    else:
        # JSON true and false are Python bools, which are ints too.
        number = shape in (_NUMBER, _NUMBER_OR_NULL)
        if isinstance(doc, shape) and not (number and isinstance(doc, bool)):
            return None
        return f"{at} is {json.dumps(doc)[:40]}, not {_KIND_NAMES[shape]}"
    return next(filter(None, found), None)


def _read_artifact(path: Path, shape=object):
    """The document a command wrote at path, or None when there is no file;
    MalformedArtifact naming the file when it is not shaped as written."""
    if not path.is_file():
        return None
    doc = _read_json(path, "output")
    error = _shape_error(doc, shape)
    if error is not None:
        raise MalformedArtifact(f"output {str(path)!r} is not as its command writes it: {error}")
    return doc


def cmd_report(cfg: RunConfig) -> Result:
    out = Path(cfg.out_dir)
    bar = _read_artifact(out / "bar_series.json", _BAR_SERIES)
    comparison = _read_artifact(out / "comparison.json", _COMPARISON)
    fits = {
        p.stem.removeprefix("fit_"): _read_artifact(p, _FIT)
        for p in sorted(out.glob("fit_*.json"))
    }
    topo_doc = _read_artifact(out / "similarity.json", _SIMILARITY)
    images = sorted(p.name for p in out.glob("topo_*.ppm"))
    synth_meta = _read_artifact(out / "synth_meta.json")
    if not any([bar, fits, topo_doc, images, synth_meta]):
        raise MissingArtifacts(f"no command outputs found under {out}")

    report = {
        "schema_version": SCHEMA_VERSION,
        "bar": bar,
        "fits": fits or None,
        "ranking": (comparison or {}).get("ranking"),
        "topography": {
            "images": images,
            "similarity": (topo_doc or {}).get("similarity"),
        }
        if (topo_doc or images)
        else None,
        "synthesis": synth_meta,
    }

    lines = ["# Session report", ""]
    if bar:
        lines += [
            "## Beta/alpha ratio",
            "",
            f"Phase: {bar['phase']} (game {bar['game_type']}, "
            f"{bar['gamer_type']}, music {bar['music_type']})",
            "",
            "| time (s) | ratio | increase |",
            "| --- | --- | --- |",
        ]
        for p in bar["points"]:
            inc = p.get("relative_increase")
            inc_s = f"{inc:.4f}" if inc is not None else "-"
            lines.append(f"| {p['time_s']:g} | {p['bar']:.4f} | {inc_s} |")
        lines.append("")
    if fits:
        lines += ["## Model fits", ""]
        for name, f in sorted(fits.items()):
            aic_s = "exact fit" if f["aic"] is None else f"{f['aic']:.4f}"
            lines.append(
                f"- {name}: R^2 = {f['r_squared']:.6f}, AIC = {aic_s}, "
                f"converged = {f['converged']}"
            )
        if report["ranking"]:
            best = report["ranking"][0]
            note = " (overfit warning)" if best["overfit_warning"] else ""
            lines.append(f"- preferred model: {best['model_type']}{note}")
        lines.append("")
    if report["topography"]:
        lines += ["## Topography", ""]
        lines.append(f"- {len(images)} map images")
        lines.append("")

    files = {"report.json": report, "report.md": "\n".join(lines).encode()}
    return EXIT_OK, files, f"wrote report with {sum(1 for v in report.values() if v)} sections"


# Each subcommand's function, called with the config and the parsed arguments.
COMMANDS = {
    "psd": lambda cfg, args: cmd_psd(cfg),
    "bar": lambda cfg, args: cmd_bar(cfg),
    "fit": lambda cfg, args: cmd_fit(cfg, args.model),
    "topo": lambda cfg, args: cmd_topo(cfg),
    "synth": lambda cfg, args: cmd_synth(cfg, args.spec),
    "report": lambda cfg, args: cmd_report(cfg),
}


def _guarded(run: typing.Callable[[], int]) -> int:
    """run()'s exit code; a PipelineError, or a MemoryError from an input too
    large to hold, is reported and exits 2, an OSError 3."""
    try:
        return run()
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def _run(cfg: RunConfig, args, commands: tuple[str, ...]) -> int:
    """Run commands in order, in this process: the one subcommand, or a
    session's session.commands.

    Each command writes its files, and prints its message unless quiet.
    An exit 2 or 3 stops the run and is its exit code; an exit 4 lets the
    rest run and is its exit code unless a later command stops it.
    run_meta.json is written last, once any command has written files:
    the subcommand, a timestamp, the versions, and each command's name,
    exit code and wall time.

    A fit after bar that would read fewer points than the quartic needs
    from bar's bar_points.csv exits 2 before any command runs. A fit with
    no bar before it reads the bar_points.csv already in the output
    directory, as its own run would.
    """
    if "bar" in commands and "fit" in commands[commands.index("bar"):] and not cfg.points:
        count = len(cfg.protocol.epoch_times) + _baseline_leads(cfg)
        if count < 5:
            raise InvalidConfig(
                f"session's fit would read {count} points from bar_points.csv, and the quartic "
                "needs >= 5: list more protocol.epoch_times, set baseline_bar or "
                "input.baseline_recording (phase during_gameplay), set input.points, "
                "or leave fit out of session.commands"
            )

    def step(name: str) -> int:
        rc, files, message = COMMANDS[name](cfg, args)
        _write(cfg, files)
        if not cfg.quiet:
            print(message)
        return rc

    code, steps = EXIT_OK, []
    for name in commands:
        t0 = time.perf_counter()
        rc = _guarded(lambda: step(name))
        steps.append({"command": name, "exit_code": rc, "wall_s": time.perf_counter() - t0})
        code = rc if rc != EXIT_OK else code
        if rc in (EXIT_VALIDATION, EXIT_IO):
            break
    if any(s["exit_code"] in (EXIT_OK, EXIT_DIVERGED) for s in steps):
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        meta = {"command": args.command, "timestamp": now, "versions": _VERSIONS, "commands": steps}
        _write(cfg, {"run_meta.json": meta})
    return code


# --------------------------------------------------------------- entrypoint

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it is."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="barstress",
        description="EEG stress pipeline: spectra, ratios, fits, topographies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psd", parents=[common], help="per-channel Welch spectra")
    p.add_argument("--input", help="recording file (.csv or .edf)")

    p = sub.add_parser("bar", parents=[common], help="beta/alpha ratio series")
    p.add_argument("--input", help="recording file (.csv or .edf)")

    p = sub.add_parser("fit", parents=[common], help="stress-curve regression")
    p.add_argument("--points", help="two-column x,y CSV (default: out/bar_points.csv)")
    p.add_argument(
        "--model", choices=("4pl", "quartic", "both"), default="both",
        help="which model family to fit",
    )

    p = sub.add_parser("topo", parents=[common], help="scalp topography maps")
    p.add_argument("--input", help="recording file (.csv or .edf)")

    p = sub.add_parser("synth", parents=[common], help="generate synthetic data")
    p.add_argument("--spec", required=True, help="synthesis spec JSON")

    sub.add_parser("report", parents=[common], help="aggregate prior outputs")

    p = sub.add_parser("session", parents=[common], help="session.commands in one process")
    p.add_argument("--input", help="recording file (.csv or .edf)")
    p.set_defaults(model="both")  # fit's own default
    return parser


def main(argv=None) -> int:
    args, extras = build_parser().parse_known_args(argv)

    def run() -> int:
        cfg = load_config(args, extras)
        return _run(cfg, args, cfg.session_commands if args.command == "session" else (args.command,))

    return _guarded(run)


if __name__ == "__main__":
    sys.exit(main())
