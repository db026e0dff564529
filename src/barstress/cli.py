"""Command-line front end: ingest, spectra, ratios, fits, maps, report.

One JSON config document drives every command; flags override config keys
by dotted path (for example --welch.taper hann). Commands compute first
and write all files afterwards, so a failed run leaves no partial output.
Wall-clock metadata goes to a separate sidecar, keeping the analysis
artifacts byte-reproducible.

Exit codes: 0 success, 2 validation or usage error, 3 IO error,
4 fit non-convergence (partial output still written).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import mmap
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import core, ingest, regress, spectral, synth, topo
from .errors import (
    EmptyProtocol,
    InvalidConfig,
    MissingArtifacts,
    PipelineError,
    TooFewPoints,
)

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "input",
    "sampling_rate",
    "csv",
    "montage",
    "welch",
    "bands",
    "ratio",
    "channels",
    "protocol",
    "baseline_bar",
    "out_dir",
    "formats",
    "topo",
    "seed",
}

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
    formats: tuple[str, ...] = ("csv", "json", "ppm")
    topo_resolution: int = 64
    topo_scalar: str = "bar"
    seed: int = 0
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


def _require(doc: dict, context: str) -> dict:
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{context} must be a JSON object, got {type(doc).__name__}")
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and materialize a config document."""
    doc = _require(doc, "config")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidConfig(f"unsupported schema_version {version!r}")

    inp = _require(doc.get("input", {}), "input")
    csv_doc = _require(doc.get("csv", {}), "csv")
    welch_doc = _require(doc.get("welch", {}), "welch")
    ratio_doc = _require(doc.get("ratio", {}), "ratio")
    proto_doc = _require(doc.get("protocol", {}), "protocol")
    topo_doc = _require(doc.get("topo", {}), "topo")

    try:
        layout = ingest.CsvLayout(
            delimiter=csv_doc.get("delimiter", ","),
            has_header=bool(csv_doc.get("has_header", True)),
            time_column=csv_doc.get("time_column"),
        )
        welch = spectral.WelchConfig(
            window_len=float(welch_doc.get("window_len", 10.0)),
            segment_count=int(welch_doc.get("segment_count", 4)),
            overlap_fraction=float(welch_doc.get("overlap_fraction", 0.5)),
            taper=welch_doc.get("taper", "hamming"),
            fft_size=welch_doc.get("fft_size"),
        )
        bands_doc = doc.get("bands")
        if bands_doc is None:
            bands = tuple(core.DEFAULT_BANDS.values())
        else:
            bands = tuple(
                core.BandDefinition(name, float(edges[0]), float(edges[1]))
                for name, edges in _require(bands_doc, "bands").items()
            )
        times = proto_doc.get("epoch_times")
        protocol = core.SessionProtocol(
            phase=proto_doc.get("phase", "baseline"),
            game_type=proto_doc.get("game_type", "none"),
            gamer_type=proto_doc.get("gamer_type", "non_gamer"),
            music_type=proto_doc.get("music_type", "none"),
            epoch_times=tuple(times) if times is not None else None,
        )
        channels = doc.get("channels")
        baseline = doc.get("baseline_bar")
        return RunConfig(
            recording=inp.get("recording"),
            baseline_recording=inp.get("baseline_recording"),
            points=inp.get("points"),
            sampling_rate=float(doc.get("sampling_rate", 500.0)),
            csv_layout=layout,
            montage_name=doc.get("montage", "standard-30"),
            welch=welch,
            bands=bands,
            numerator=ratio_doc.get("numerator", "beta"),
            denominator=ratio_doc.get("denominator", "alpha"),
            channels=tuple(channels) if channels is not None else None,
            protocol=protocol,
            baseline_bar=float(baseline) if baseline is not None else None,
            out_dir=str(doc.get("out_dir", "out")),
            formats=tuple(doc.get("formats", ("csv", "json", "ppm"))),
            topo_resolution=int(topo_doc.get("resolution", 64)),
            topo_scalar=topo_doc.get("scalar", "bar"),
            seed=int(doc.get("seed", 0)),
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidConfig(f"bad config value: {exc}") from None


def _set_path(doc: dict, dotted: str, value):
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        nxt = node.get(k)
        if not isinstance(nxt, dict):
            nxt = {}
            node[k] = nxt
        node = nxt
    node[keys[-1]] = value


def _parse_overrides(extras: list[str]) -> dict:
    doc: dict = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--") or "." not in tok:
            raise InvalidConfig(f"unrecognized argument {tok!r}")
        if "=" in tok:
            key, raw = tok[2:].split("=", 1)
        else:
            if i + 1 >= len(extras):
                raise InvalidConfig(f"override {tok!r} is missing a value")
            key, raw = tok[2:], extras[i + 1]
            i += 1
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_path(doc, key, value)
        i += 1
    return doc


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(args, extras: list[str]) -> RunConfig:
    doc: dict = {}
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from None
    doc = _merge(doc, _parse_overrides(extras))
    cfg = config_from_dict(doc)
    updates: dict = {"quiet": bool(args.quiet)}
    if args.out:
        updates["out_dir"] = args.out
    if args.format:
        updates["formats"] = tuple(f.strip() for f in args.format.split(",") if f.strip())
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "input", None):
        updates["recording"] = args.input
    if getattr(args, "points", None):
        updates["points"] = args.points
    if getattr(args, "scalar", None):
        updates["topo_scalar"] = args.scalar
    cfg = replace(cfg, **updates)
    bad = set(cfg.formats) - {"csv", "json", "ppm"}
    if bad:
        raise InvalidConfig(f"unknown output formats: {sorted(bad)}")
    return cfg


# ------------------------------------------------------------------ helpers

def _say(cfg: RunConfig, message: str):
    if not cfg.quiet:
        print(message)


def _edf_epochs(
    cfg: RunConfig, data, protocol: core.SessionProtocol
) -> list[core.Epoch]:
    """One windowed read_edf per epoch time, each cut by slice_epochs."""
    if not protocol.epoch_times:
        raise EmptyProtocol("protocol has no epoch times")
    window_len = cfg.welch.window_len
    return [
        epoch
        for t in protocol.epoch_times
        for epoch in core.slice_epochs(
            ingest.read_edf(data, cfg.montage, window=(t, t + window_len)),
            replace(protocol, epoch_times=(t,)),
            window_len,
        )
    ]


def _load_epochs(
    cfg: RunConfig, path_str: str | None, protocol: core.SessionProtocol
) -> list[core.Epoch]:
    """The protocol's epochs of the recording at path_str.

    An EDF file is memory-mapped and only the data records under the
    epochs are decoded; a CSV file is parsed whole.
    """
    if not path_str:
        raise InvalidConfig("no input recording configured (input.recording)")
    path = Path(path_str)
    if path.suffix.lower() != ".edf":
        recording = ingest.read_csv(
            path.read_bytes(), cfg.csv_layout, cfg.sampling_rate, cfg.montage
        )
        return core.slice_epochs(recording, protocol, cfg.welch.window_len)
    with path.open("rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            # mmap rejects an empty file; the parser reports it as truncated.
            return _edf_epochs(cfg, b"", protocol)
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return _edf_epochs(cfg, data, protocol)


def _write_all(files: dict[Path, bytes]):
    for path, blob in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)


class _FloatText(list):
    """Floats already formatted by repr, spliced into JSON as numbers."""


# json.dumps spells the non-finite floats as these JavaScript constants.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_indent2(obj, level: int = 0) -> str:
    """The text of json.dumps(obj, indent=2), with _FloatText lists spliced in.

    The stdlib encoder runs in pure Python whenever indent is set; this
    writer only walks the containers and leaves each number list as one
    join. obj holds dicts with string keys, lists and JSON scalars.
    """
    if isinstance(obj, _FloatText):
        items, brackets = map(_JSON_NONFINITE.get, obj, obj), "[]"
    elif isinstance(obj, list):
        items, brackets = (_json_indent2(v, level + 1) for v in obj), "[]"
    elif isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {_json_indent2(v, level + 1)}" for k, v in obj.items())
        brackets = "{}"
    else:
        return json.dumps(obj)
    if not obj:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * level}{brackets[1]}"


def _sidecar(out_dir: Path, command: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")


def _measure_baseline(cfg: RunConfig) -> float | None:
    """Baseline ratio from config, or measured from the baseline recording."""
    if cfg.baseline_bar is not None:
        return cfg.baseline_bar
    if not cfg.baseline_recording:
        return None
    proto = core.SessionProtocol(phase="baseline")
    series = spectral.bar_series(
        _load_epochs(cfg, cfg.baseline_recording, proto),
        proto,
        cfg.welch,
        cfg.band(cfg.numerator),
        cfg.band(cfg.denominator),
        channels=cfg.channels,
    )
    return float(np.mean(series.ratios))


# ----------------------------------------------------------------- commands

def cmd_psd(cfg: RunConfig) -> int:
    epochs = _load_epochs(cfg, cfg.recording, cfg.protocol)
    channels = epochs[0].channels
    psds = [spectral.welch_psd(ep, cfg.welch) for ep in epochs]
    # Every value is formatted once; the CSVs and psd.json share the text.
    freq_txt = list(map(repr, psds[0].frequencies.tolist()))
    power_txt = [[list(map(repr, row)) for row in p.power.tolist()] for p in psds]
    out = Path(cfg.out_dir)
    files: dict[Path, bytes] = {}
    if "csv" in cfg.formats:
        header = "frequency_hz," + ",".join(f"epoch_{ep.t_start:g}s" for ep in epochs)
        for row, ch in enumerate(channels):
            columns = [freq_txt] + [txt[row] for txt in power_txt]
            lines = [header, *map(",".join, zip(*columns))]
            files[out / f"psd_{ch.label}.csv"] = ("\n".join(lines) + "\n").encode()
    if "json" in cfg.formats:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "frequencies_hz": _FloatText(freq_txt),
            "epochs": [
                {
                    "t_start": ep.t_start,
                    "power": {
                        ch.label: _FloatText(txt[i]) for i, ch in enumerate(channels)
                    },
                }
                for ep, txt in zip(epochs, power_txt)
            ],
        }
        files[out / "psd.json"] = _json_indent2(doc).encode()
    _write_all(files)
    _sidecar(out, "psd")
    _say(cfg, f"wrote PSD for {len(channels)} channels, {len(epochs)} epochs")
    return EXIT_OK


def _bar_series(cfg: RunConfig, baseline: float | None) -> spectral.BarSeries:
    return spectral.bar_series(
        _load_epochs(cfg, cfg.recording, cfg.protocol),
        cfg.protocol,
        cfg.welch,
        cfg.band(cfg.numerator),
        cfg.band(cfg.denominator),
        baseline=math.nan if baseline is None else baseline,
        channels=cfg.channels,
    )


def cmd_bar(cfg: RunConfig) -> int:
    baseline = _measure_baseline(cfg)
    series = _bar_series(cfg, baseline)
    out = Path(cfg.out_dir)
    files: dict[Path, bytes] = {}
    if "csv" in cfg.formats:
        files[out / "bar_series.csv"] = spectral.bar_series_to_csv(
            series, include_increase=True
        ).encode()
        points = [(t / 60.0, r) for t, r in series.points]
        if cfg.protocol.phase == "during_gameplay" and baseline is not None:
            points.insert(0, (0.0, baseline))
        lines = ["x_minutes,y_ratio"] + [f"{x!r},{y!r}" for x, y in points]
        files[out / "bar_points.csv"] = ("\n".join(lines) + "\n").encode()
    if "json" in cfg.formats:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "baseline": baseline,
            "phase": series.protocol.phase,
            "game_type": series.protocol.game_type,
            "gamer_type": series.protocol.gamer_type,
            "music_type": series.protocol.music_type,
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
                for t, r in series.points
            ],
        }
        files[out / "bar_series.json"] = json.dumps(doc, indent=2).encode()
    _write_all(files)
    _sidecar(out, "bar")
    _say(cfg, f"wrote BAR series with {len(series.points)} points")
    return EXIT_OK


def _read_points(path: Path) -> list[tuple[float, float]]:
    rows = [
        ln.split(",")
        for ln in path.read_text(encoding="utf-8").splitlines()
        if ln.strip()
    ]
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


def cmd_fit(cfg: RunConfig, model_kind: str) -> int:
    src = cfg.points or str(Path(cfg.out_dir) / "bar_points.csv")
    points = _read_points(Path(src))
    fits: dict[str, regress.FitResult] = {}
    if model_kind in ("4pl", "both"):
        fits["4pl"] = regress.fit_4pl(points)
    if model_kind in ("quartic", "both"):
        fits["quartic"] = regress.fit_quartic(points)
    out = Path(cfg.out_dir)
    files: dict[Path, bytes] = {}
    if "json" in cfg.formats:
        for name, fit in fits.items():
            files[out / f"fit_{name}.json"] = regress.fit_result_to_json(fit).encode()
        if len(fits) > 1:
            ranking = regress.compare_models(list(fits.values()))
            doc = {
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
            files[out / "comparison.json"] = json.dumps(doc, indent=2).encode()
    if "csv" in cfg.formats:
        for name, fit in fits.items():
            xs = [x for x, _ in points]
            model = fit.model
            pred = (
                regress.eval_4pl(model, xs)
                if isinstance(model, regress.FourPLModel)
                else regress.eval_quartic(model, np.asarray(xs))
            )
            lines = ["x_minutes,y_observed,y_fitted"] + [
                f"{x!r},{y!r},{float(p)!r}" for (x, y), p in zip(points, pred)
            ]
            files[out / f"fit_{name}_curve.csv"] = ("\n".join(lines) + "\n").encode()
    _write_all(files)
    _sidecar(out, "fit")
    for name, fit in fits.items():
        _say(
            cfg,
            f"{name}: rss={fit.rss:.6g} r2={fit.r_squared:.6f} "
            f"aic={fit.aic:.4f} converged={fit.converged}",
        )
    if any(not f.converged for f in fits.values()):
        return EXIT_DIVERGED
    return EXIT_OK


def _epoch_vector(cfg: RunConfig, psd: spectral.PsdEstimate, montage: core.Montage) -> topo.TopoVector:
    labels = [c.label for c in psd.channels if c.kind == "eeg"]
    wanted = [e.label for e in montage.eeg_electrodes]
    if labels != wanted:
        raise InvalidConfig("recording channels do not cover the montage")
    if cfg.topo_scalar == "bar":
        num = spectral.band_power_per_channel(psd, cfg.band(cfg.numerator))
        den = spectral.band_power_per_channel(psd, cfg.band(cfg.denominator))
        rows = [i for i, c in enumerate(psd.channels) if c.kind == "eeg"]
        return topo.TopoVector(num[rows] / den[rows])
    if cfg.topo_scalar.startswith("band:"):
        band = cfg.band(cfg.topo_scalar.split(":", 1)[1])
        per = spectral.band_power_per_channel(psd, band)
        rows = [i for i, c in enumerate(psd.channels) if c.kind == "eeg"]
        return topo.TopoVector(per[rows])
    raise InvalidConfig(
        f"topo scalar must be 'bar' or 'band:<name>', got {cfg.topo_scalar!r}"
    )


def cmd_topo(cfg: RunConfig) -> int:
    montage = cfg.montage
    epochs = _load_epochs(cfg, cfg.recording, cfg.protocol)
    vectors = [
        _epoch_vector(cfg, spectral.welch_psd(ep, cfg.welch), montage) for ep in epochs
    ]
    grids = [
        topo.interpolate_scalp(v, montage, cfg.topo_resolution) for v in vectors
    ]
    sim = topo.similarity_matrix(vectors)
    out = Path(cfg.out_dir)
    files: dict[Path, bytes] = {}
    for i, (ep, grid) in enumerate(zip(epochs, grids)):
        stem = f"topo_{i:02d}_{ep.t_start:g}s"
        if "ppm" in cfg.formats:
            files[out / f"{stem}.ppm"] = topo.render_topomap(grid)
        if "csv" in cfg.formats:
            files[out / f"{stem}.csv"] = topo.grid_to_csv(grid).encode()
    if "csv" in cfg.formats:
        lines = [",".join(repr(float(v)) for v in row) for row in sim]
        files[out / "similarity.csv"] = ("\n".join(lines) + "\n").encode()
    if "json" in cfg.formats:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "scalar": cfg.topo_scalar,
            "epochs": [ep.t_start for ep in epochs],
            "similarity": [[float(v) for v in row] for row in sim],
        }
        files[out / "similarity.json"] = json.dumps(doc, indent=2).encode()
    _write_all(files)
    _sidecar(out, "topo")
    _say(cfg, f"wrote {len(grids)} topography maps")
    return EXIT_OK


def _synth_spec_from_doc(doc: dict, cfg: RunConfig) -> tuple[synth.SynthSpec, list[str]]:
    doc = _require(doc, "synth spec")
    try:
        montage = ingest.load_montage(doc.get("montage", cfg.montage_name))
        bands = []
        for entry in doc.get("bands", []):
            band = core.BandDefinition(
                entry["name"], float(entry["f_low"]), float(entry["f_high"])
            )
            bands.append((band, float(entry["power"])))
        seed = int(doc.get("seed", cfg.seed))
        spec = synth.SynthSpec(
            duration=float(doc.get("duration_s", 0.0)),
            sampling_rate=float(doc.get("sampling_rate", cfg.sampling_rate)),
            montage=montage,
            band_targets=tuple(bands),
            noise_floor=float(doc.get("noise_floor", 0.0)),
            seed=seed,
        )
        outputs = list(doc.get("outputs", ["csv"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad synth spec: {exc}") from None
    bad = set(outputs) - {"csv", "edf"}
    if bad:
        raise InvalidConfig(f"synth outputs must be csv/edf, got {sorted(bad)}")
    return spec, outputs


def cmd_synth(cfg: RunConfig, spec_path: str) -> int:
    text = Path(spec_path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"synth spec is not valid JSON: {exc}") from None
    spec, outputs = _synth_spec_from_doc(doc, cfg)
    recording = synth.synth_eeg(spec)
    out = Path(cfg.out_dir)
    files: dict[Path, bytes] = {}
    written = []
    if "csv" in outputs:
        files[out / "synthetic.csv"] = ingest.write_csv(recording, cfg.csv_layout)
        written.append("synthetic.csv")
    if "edf" in outputs:
        files[out / "synthetic.edf"] = ingest.write_edf(recording)
        written.append("synthetic.edf")
    meta = synth.spec_metadata(spec)
    meta["schema_version"] = SCHEMA_VERSION
    meta["files"] = written
    files[out / "synth_meta.json"] = json.dumps(meta, indent=2).encode()
    _write_all(files)
    _sidecar(out, "synth")
    _say(cfg, f"wrote synthetic recording: {', '.join(written)}")
    return EXIT_OK


def _read_if_exists(path: Path):
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    return None


def cmd_report(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    bar = _read_if_exists(out / "bar_series.json")
    comparison = _read_if_exists(out / "comparison.json")
    fits = {
        p.stem.removeprefix("fit_"): json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(out.glob("fit_*.json"))
    }
    topo_doc = _read_if_exists(out / "similarity.json")
    images = sorted(p.name for p in out.glob("topo_*.ppm"))
    synth_meta = _read_if_exists(out / "synth_meta.json")
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

    files = {
        out / "report.json": json.dumps(report, indent=2).encode(),
        out / "report.md": ("\n".join(lines)).encode(),
    }
    _write_all(files)
    _sidecar(out, "report")
    _say(cfg, f"wrote report with {sum(1 for v in report.values() if v)} sections")
    return EXIT_OK


# --------------------------------------------------------------- entrypoint

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--format", help="comma-separated subset of csv,json,ppm")
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
    p.add_argument("--scalar", help="'bar' or 'band:<name>'")

    p = sub.add_parser("synth", parents=[common], help="generate synthetic data")
    p.add_argument("--spec", required=True, help="synthesis spec JSON")

    sub.add_parser("report", parents=[common], help="aggregate prior outputs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        cfg = load_config(args, extras)
        if args.command == "psd":
            return cmd_psd(cfg)
        if args.command == "bar":
            return cmd_bar(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.model)
        if args.command == "topo":
            return cmd_topo(cfg)
        if args.command == "synth":
            return cmd_synth(cfg, args.spec)
        if args.command == "report":
            return cmd_report(cfg)
        parser.error(f"unknown command {args.command!r}")
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
