import dataclasses
import json
import os
import platform
import re
import shlex
import tempfile
import tracemalloc
import types
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barstress
from barstress import cli, core, ingest, regress, spectral, synth
from barstress.errors import InvalidConfig, PipelineError
from written import joined

ALPHA = core.DEFAULT_BANDS["alpha"]
BETA = core.DEFAULT_BANDS["beta"]


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="session")
def montage_30():
    return ingest.load_montage("standard-30")


@pytest.fixture(scope="session")
def rest_csv(tmp_path_factory, montage_30):
    """10 s resting recording hitting the published band powers."""
    rec = synth.synth_eeg(
        synth.SynthSpec(
            duration=10.0, sampling_rate=500.0, montage=montage_30,
            band_targets=((ALPHA, 4.329), (BETA, 3.034)), seed=101,
        )
    )
    path = tmp_path_factory.mktemp("data") / "rest.csv"
    path.write_bytes(joined(ingest.write_csv(rec)))
    return path


@pytest.fixture(scope="session")
def session_csv(tmp_path_factory, montage_30):
    """40 s recording with four analyzable epochs."""
    rec = synth.synth_eeg(
        synth.SynthSpec(
            duration=40.0, sampling_rate=500.0, montage=montage_30,
            band_targets=((ALPHA, 4.329), (BETA, 3.034)), seed=102,
        )
    )
    path = tmp_path_factory.mktemp("data") / "session.csv"
    path.write_bytes(joined(ingest.write_csv(rec)))
    return path


def edf_blob(duration, seed, montage):
    """A synthetic recording as EDF bytes with 1 s data records; every
    recording of one duration has the same size."""
    rec = synth.synth_eeg(
        synth.SynthSpec(
            duration=duration, sampling_rate=500.0, montage=montage,
            band_targets=((ALPHA, 4.329), (BETA, 3.034)), seed=seed,
        )
    )
    return joined(ingest.write_edf(rec))


def edf_and_decoded_csv(directory, name, duration, seed, montage):
    """A synthetic recording as an EDF with 1 s data records, and the CSV of
    that EDF's full read_edf decode (CSV floats round-trip exactly)."""
    blob = edf_blob(duration, seed, montage)
    edf, csv = directory / f"{name}.edf", directory / f"{name}.csv"
    edf.write_bytes(blob)
    csv.write_bytes(joined(ingest.write_csv(ingest.read_edf(blob, montage))))
    return edf, csv


@pytest.fixture(scope="session")
def session_edf(tmp_path_factory, montage_30):
    """40 s recording with 1 s EDF records, plus its decoded CSV."""
    return edf_and_decoded_csv(tmp_path_factory.mktemp("edf"), "session", 40.0, 105, montage_30)


@pytest.fixture(scope="session")
def rest_edf(tmp_path_factory, montage_30):
    """12 s baseline recording with 1 s EDF records, plus its decoded CSV."""
    return edf_and_decoded_csv(tmp_path_factory.mktemp("edf"), "rest", 12.0, 106, montage_30)


# A JSON document in Latin-1, which is not UTF-8.
LATIN_1_JSON = '{"name": "\xe9"}'.encode("latin-1")


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestExitCodes:
    def test_missing_recording_file_is_io_error(self, tmp_path):
        rc = run("bar", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_IO

    def test_unknown_config_key_is_validation_error(self, tmp_path, rest_csv):
        cfg = write_config(tmp_path, {"inputt": {}})
        rc = run("bar", "--config", str(cfg), "--input", str(rest_csv))
        assert rc == cli.EXIT_VALIDATION

    def test_unsupported_schema_version(self, tmp_path, rest_csv):
        cfg = write_config(tmp_path, {"schema_version": 99})
        rc = run("bar", "--config", str(cfg), "--input", str(rest_csv))
        assert rc == cli.EXIT_VALIDATION

    def test_flag_without_dotted_path_rejected(self, tmp_path, rest_csv):
        rc = run("bar", "--input", str(rest_csv), "--out", str(tmp_path), "--bogus", "1")
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize(
        "flags, doc, message",
        [
            ([], {"formats": ["json"]}, "unknown config key 'formats'"),
            (["--format", "json"], None, "unrecognized argument '--format'"),
            (["--scalar", "bar"], None, "unrecognized argument '--scalar'"),
        ],
        ids=["formats", "--format", "--scalar"],
    )
    def test_removed_option_exits_2_naming_it(self, tmp_path, rest_csv, capsys, flags, doc, message):
        argv = ["topo", "--input", str(rest_csv), "--out", str(tmp_path / "o"), *flags]
        if doc is not None:
            argv += ["--config", str(write_config(tmp_path, doc))]
        assert run(*argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_empty_points_file(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("x_minutes,y_ratio\n")
        rc = run("fit", "--points", str(pts), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION

    def test_report_without_artifacts(self, tmp_path):
        (tmp_path / "empty").mkdir()
        rc = run("report", "--out", str(tmp_path / "empty"))
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize(
        "bad, content, argv",
        [
            ("bad_config.json", LATIN_1_JSON, ["bar", "--config", "{bad}", "--input", "{rest}"]),
            ("spec.json", LATIN_1_JSON, ["synth", "--spec", "{bad}"]),
            ("points.csv", "0.0,0.7\n1.0,\xe9\n".encode("latin-1"), ["fit", "--points", "{bad}"]),
            ("o/bar_series.json", LATIN_1_JSON, ["report"]),
            ("o/fit_4pl.json", b'{"rss": ', ["report"]),
            ("montage.json", LATIN_1_JSON, ["bar", "--config", "{cfg}", "--input", "{rest}"]),
        ],
        ids=["config", "spec", "points", "report-bar", "report-fit", "montage"],
    )
    def test_unreadable_input_exits_2_naming_it(self, tmp_path, rest_csv, capsys, bad, content, argv):
        path = tmp_path / bad
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(content)
        cfg = write_config(tmp_path, {"montage": str(tmp_path / "montage.json")})
        rc = run(*(a.format(bad=path, rest=rest_csv, cfg=cfg) for a in argv), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path.name in err

    def test_zero_duration_synth_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_s": 0.0, "bands": []}))
        rc = run("synth", "--spec", str(spec), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION

    def test_overflowing_synth_spec_exits_2(self, tmp_path, capsys):
        # 60 s at 1e307 Hz is an infinite sample count
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_s": 60, "sampling_rate": 1e307, "outputs": ["edf"]}))
        rc = run("synth", "--spec", str(spec), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: duration x sampling_rate must be finite")
        assert not (tmp_path / "o").exists()

    # Each allocation is past what a process can address (128 TiB on x86-64,
    # 256 TiB on arm64), so it fails at once, however the kernel overcommits.
    @pytest.mark.parametrize("argv, spec", [
        (["synth"], {"duration_s": 60, "sampling_rate": 1e20, "outputs": ["edf"]}),  # past int64
        (["synth"], {"duration_s": 60, "sampling_rate": 1e12, "outputs": ["edf"]}),  # 873 TiB
        (["topo", "--topo.resolution", "10000000"], None),  # 728 TiB
        (["psd", "--welch.fft_size", "100000000000000"], None),  # 21.3 PiB
        (["bar", "--welch.fft_size", "10000000000000000000000"], None),  # past int64
    ], ids=["synth-1e20-Hz", "synth-1e12-Hz", "topo-resolution", "psd-fft-size", "bar-fft-size"])
    def test_size_beyond_memory_exits_2_without_traceback(self, tmp_path, session_edf, capsys, argv, spec):
        if spec is None:
            argv = [*argv, "--input", str(session_edf[0])]
        else:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            argv = [*argv, "--spec", str(tmp_path / "spec.json")]
        assert run(*argv, "--out", str(tmp_path / "o")) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # Inside int64, but the spectrum's bytes are not: numpy cannot even size it.
    @pytest.mark.parametrize("command", ["psd", "bar", "topo"])
    def test_fft_size_past_index_range_exits_2(self, tmp_path, session_edf, capsys, command):
        argv = ["--input", str(session_edf[0]), "--welch.fft_size", str(2**62), "--out", str(tmp_path / "o")]
        assert run(command, *argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: welch.fft_size 4611686018427387904 ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    # psd names a file after each label.
    @pytest.mark.parametrize("label", ["C3/x", "C3\0"], ids=["slash", "nul"])
    def test_label_unfit_for_a_file_name_exits_2(self, tmp_path, rest_csv, capsys, label):
        montage = tmp_path / "montage.json"
        montage.write_text(json.dumps({"electrodes": [
            {"label": label if e.label == "C3" else e.label, "x": e.position[0], "y": e.position[1]}
            for e in core.standard_montage().electrodes
        ]}))
        recording = tmp_path / "rest.csv"  # its header names the same channels
        recording.write_bytes(rest_csv.read_bytes().replace(b",C3,", f",{label},".encode(), 1))
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_config(tmp_path, {"montage": str(montage), "protocol": {"epoch_times": [0.0]}})
        assert run("psd", "--config", str(cfg), "--input", str(recording), "--out", str(out)) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: channel label ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_ridge_fit_reports_divergence_with_output(self, tmp_path, monkeypatch):
        # a fit that uses up its iteration budget is flagged, but the command
        # still writes what it found
        monkeypatch.setattr(regress, "_MAX_ITERATIONS", 1)
        pts = tmp_path / "points.csv"
        rows = [(0.0, 0.701), (15.0, 1.084), (30.0, 1.295), (45.0, 1.742), (60.0, 2.149)]
        pts.write_text("\n".join(f"{x},{y}" for x, y in rows) + "\n")
        out = tmp_path / "o"
        rc = run("fit", "--points", str(pts), "--model", "4pl", "--out", str(out), "--quiet")
        assert rc == cli.EXIT_DIVERGED
        doc = json.loads((out / "fit_4pl.json").read_text())
        assert doc["converged"] is False
        assert doc["iterations"] == 1
        assert doc["r_squared"] > 0.99


# Non-zero epoch times: a record boundary, mid-record, half a sample past
# 21 s, and a window that ends on the file's last sample.
EDF_EPOCHS = [2.0, 12.5, 21.001, 30.0]


def outputs(out):
    return {
        p.relative_to(out): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


class TestEdfInput:
    """EDF input is read epoch by epoch; every output must equal the one
    made from the CSV of the full decode."""

    @pytest.mark.parametrize("command", ["psd", "bar", "topo"])
    def test_outputs_match_full_decode(self, tmp_path, session_edf, rest_edf, command):
        for kind, i in (("edf", 0), ("csv", 1)):
            cfg = write_config(
                tmp_path,
                {
                    "input": {"baseline_recording": str(rest_edf[i])},
                    "protocol": {"phase": "during_gameplay", "epoch_times": EDF_EPOCHS},
                },
            )
            rc = run(command, "--config", str(cfg), "--input", str(session_edf[i]),
                     "--out", str(tmp_path / kind), "--quiet")
            assert rc == 0
        got, want = outputs(tmp_path / "edf"), outputs(tmp_path / "csv")
        assert len(got) > 1 and got == want

    def test_decodes_only_records_under_epochs(self, tmp_path, session_edf, monkeypatch):
        decoded = []
        read_edf_windows = ingest.read_edf_windows

        def counting(data, montage, windows):
            recs = read_edf_windows(data, montage, windows)
            decoded.extend(rec.n_samples for rec in recs)
            return recs

        monkeypatch.setattr(ingest, "read_edf_windows", counting)
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": EDF_EPOCHS}})
        assert run("bar", "--config", str(cfg), "--input", str(session_edf[0]),
                   "--out", str(tmp_path / "o"), "--quiet") == 0
        # 10 s windows of 1 s records: 10 records, or 11 off a boundary;
        # 21.001 s is sample 10500.5, which rounds to 10500, a boundary
        assert decoded == [5000, 5500, 5000, 5000]

    @pytest.mark.parametrize("kind", [0, 1], ids=["edf", "csv"])
    def test_one_reader_call_per_file(self, tmp_path, session_edf, rest_edf, monkeypatch, kind):
        reader = ("read_edf_windows", "read_csv_windows")[kind]
        read, parse_edf_header = getattr(ingest, reader), ingest.parse_edf_header
        calls, headers = [], []
        monkeypatch.setattr(
            ingest, reader, lambda data, **kw: calls.append(kw["windows"]) or read(data, **kw)
        )
        monkeypatch.setattr(
            ingest, "parse_edf_header", lambda data: headers.append(len(data)) or parse_edf_header(data)
        )
        cfg = write_config(
            tmp_path,
            {
                "input": {"baseline_recording": str(rest_edf[kind])},
                "protocol": {"epoch_times": EDF_EPOCHS},
            },
        )
        assert run("bar", "--config", str(cfg), "--input", str(session_edf[kind]),
                   "--out", str(tmp_path / "o"), "--quiet") == 0
        assert calls == [[(0.0, 10.0)], [(t, t + 10.0) for t in EDF_EPOCHS]]
        sizes = [rest_edf[kind].stat().st_size, session_edf[kind].stat().st_size]
        assert headers == (sizes if kind == 0 else [])

    def test_montage_loaded_once(self, tmp_path, session_edf, rest_edf, monkeypatch):
        calls = []
        load_montage = ingest.load_montage
        monkeypatch.setattr(
            ingest, "load_montage", lambda name: calls.append(name) or load_montage(name)
        )
        cfg = write_config(
            tmp_path,
            {
                "input": {"baseline_recording": str(rest_edf[0])},
                "protocol": {"epoch_times": EDF_EPOCHS},
            },
        )
        for command in ("topo", "bar"):
            calls.clear()
            assert run(command, "--config", str(cfg), "--input", str(session_edf[0]),
                       "--out", str(tmp_path / command), "--quiet") == 0
            assert calls == ["standard-30"]

    def test_epoch_past_end_reports_session_samples(self, tmp_path, session_edf, capsys):
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [2.0, 35.0]}})
        rc = run("bar", "--config", str(cfg), "--input", str(session_edf[0]),
                 "--out", str(tmp_path / "o"), "--quiet")
        assert rc == cli.EXIT_VALIDATION
        assert (
            "epoch at 35.0 s needs samples [17500, 22500) but recording has 20000"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

    def test_empty_file_is_truncated_header(self, tmp_path, capsys):
        empty = tmp_path / "empty.edf"
        empty.write_bytes(b"")
        rc = run("bar", "--input", str(empty), "--out", str(tmp_path / "o"), "--quiet")
        assert rc == cli.EXIT_VALIDATION
        assert "need 256 header bytes, got 0" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        rc = run("topo", "--input", str(tmp_path / "nope.edf"), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_IO


# Two epochs of session_csv: rows [2500, 7500) and [10000, 15000).
CSV_EPOCHS = [5.0, 20.0]


def edit_rows(blob, edits):
    """blob with data row i replaced by edits[i]; line 0 is the header."""
    lines = blob.split(b"\n")
    for i, row in edits.items():
        lines[i + 1] = row
    return b"\n".join(lines)


class TestCsvInput:
    """CSV input is read one window per epoch, so rows under no epoch are
    never parsed."""

    def bar(self, tmp_path, blob, out, epochs=CSV_EPOCHS, name="in.csv"):
        path = tmp_path / name
        path.write_bytes(blob)
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": epochs}})
        return run("bar", "--config", str(cfg), "--input", str(path), "--out", str(tmp_path / out), "--quiet")

    def test_parses_only_rows_under_epochs(self, tmp_path, session_csv, monkeypatch):
        parsed = []
        read_csv_windows = ingest.read_csv_windows

        def counting(*args, **kwargs):
            recs = read_csv_windows(*args, **kwargs)
            parsed.extend((rec.start_offset, rec.n_samples) for rec in recs)
            return recs

        monkeypatch.setattr(ingest, "read_csv_windows", counting)
        assert self.bar(tmp_path, session_csv.read_bytes(), "o") == 0
        assert parsed == [(5.0, 5000), (20.0, 5000)]

    @pytest.mark.parametrize(
        "edits",
        [
            {17500: b"x,1"},
            {17500: b"nan" + b",1" * 29},
            {17500: b"1,2"},
            {19999: b"1,\xff"},
            {100: b"1," * 29 + b"junk"},
            {8000: b"1,2", 16000: b"\xe9"},
        ],
        ids=["junk-after", "nan-after", "narrow-after", "non-ascii-after", "junk-before", "between-and-after"],
    )
    def test_rows_outside_epochs_no_longer_raise(self, tmp_path, session_csv, edits, montage_30):
        clean = session_csv.read_bytes()
        blob = edit_rows(clean, edits)
        with pytest.raises(PipelineError):
            ingest.read_csv(blob, ingest.CsvLayout(), 500.0, montage_30)
        assert self.bar(tmp_path, clean, "clean", name="clean.csv") == 0
        assert self.bar(tmp_path, blob, "edited") == 0
        series = "bar_series.json"
        assert (tmp_path / "edited" / series).read_bytes() == (tmp_path / "clean" / series).read_bytes()

    def test_crlf_file(self, tmp_path, session_csv):
        clean = session_csv.read_bytes()
        assert self.bar(tmp_path, clean, "lf", name="lf.csv") == 0
        assert self.bar(tmp_path, clean.replace(b"\n", b"\r\n"), "crlf") == 0
        assert outputs(tmp_path / "crlf") == outputs(tmp_path / "lf")

    @pytest.mark.parametrize(
        "rows, message",
        [
            (None, "empty input but layout declares a header"),
            (0, "epoch at 0.0 s needs samples [0, 5000) but recording has 0"),
            (4000, "epoch at 0.0 s needs samples [0, 5000) but recording has 4000"),
        ],
    )
    def test_short_files_keep_their_messages(self, tmp_path, session_csv, capsys, rows, message):
        lines = session_csv.read_bytes().split(b"\n")
        blob = b"" if rows is None else b"\n".join(lines[: rows + 1]) + b"\n"
        assert self.bar(tmp_path, blob, "o", epochs=[0.0]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSynthCommand:
    def spec_doc(self, seed=None):
        doc = {
            "duration_s": 10.0,
            "sampling_rate": 500.0,
            "bands": [
                {"name": "alpha", "f_low": 8.0, "f_high": 13.0, "power": 4.329},
                {"name": "beta", "f_low": 13.0, "f_high": 30.0, "power": 3.034},
            ],
            "outputs": ["csv", "edf"],
        }
        if seed is not None:
            doc["seed"] = seed
        return doc

    def test_writes_both_formats_and_metadata(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc(seed=5)))
        out = tmp_path / "o"
        assert run("synth", "--spec", str(spec), "--out", str(out), "--quiet") == 0
        assert (out / "synthetic.csv").is_file()
        assert (out / "synthetic.edf").is_file()
        meta = json.loads((out / "synth_meta.json").read_text())
        assert meta["seed"] == 5
        assert "PCG64" in meta["rng"]
        assert meta["files"] == ["synthetic.csv", "synthetic.edf"]
        assert json.loads((out / "run_meta.json").read_text())["command"] == "synth"

    def test_one_period_handed_to_both_writers(self, tmp_path, monkeypatch):
        calls = []
        # the TIMED names behind ingest.write_csv_s and ingest.write_edf_s
        for name in ("write_csv", "write_edf"):
            writer = getattr(ingest, name)

            def counted(recording, *args, writer=writer):
                calls.append((writer.__name__, recording.n_samples, args[-1]))
                return writer(recording, *args)

            monkeypatch.setattr(ingest, name, counted)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc(seed=5)))
        assert run("synth", "--spec", str(spec), "--out", str(tmp_path / "o"), "--quiet") == 0
        # 10 s at 500 Hz, which repeats every 4 s
        assert calls == [("write_csv", 2000, 5000), ("write_edf", 2000, 5000)]

    def test_same_seed_same_bytes(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc(seed=5)))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--spec", str(spec), "--out", str(a), "--quiet") == 0
        assert run("synth", "--spec", str(spec), "--out", str(b), "--quiet") == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()
        assert (a / "synthetic.edf").read_bytes() == (b / "synthetic.edf").read_bytes()

    def test_seed_flag_feeds_unseeded_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc()))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--spec", str(spec), "--out", str(a), "--seed", "1", "--quiet") == 0
        assert run("synth", "--spec", str(spec), "--out", str(b), "--seed", "2", "--quiet") == 0
        assert json.loads((a / "synth_meta.json").read_text())["seed"] == 1
        assert (a / "synthetic.csv").read_bytes() != (b / "synthetic.csv").read_bytes()

    @pytest.mark.parametrize("change, csv", [
        pytest.param({"duration_s": 120.0}, {}, id="120s"),
        pytest.param({"duration_s": 3.0}, {}, id="shorter-than-a-period"),
        pytest.param({"duration_s": 120.5}, {}, id="one-edf-record"),
        pytest.param({"duration_s": 3.0, "noise_floor": 0.4}, {"time_column": 2}, id="noisy"),
        pytest.param({"duration_s": 10.5}, {"time_column": 2}, id="time-column"),
        pytest.param({"duration_s": 10.0, "bands": [
            {"name": "alpha", "f_low": 8.0, "f_high": 8.9, "power": 4.329}]}, {}, id="off-grid"),
    ])
    def test_files_are_the_library_writers_bytes(self, tmp_path, change, csv):
        doc = {**self.spec_doc(seed=6), **change}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, {"csv": csv})
        out = tmp_path / "o"
        assert run("synth", "--spec", str(spec), "--config", str(cfg), "--out", str(out), "--quiet") == 0
        config = cli.config_from_dict(json.loads(cfg.read_text()))
        rec = synth.synth_eeg(cli._synth_spec_from_doc(doc, config)[0])
        assert (out / "synthetic.csv").read_bytes() == joined(ingest.write_csv(rec, config.csv_layout))
        assert (out / "synthetic.edf").read_bytes() == joined(ingest.write_edf(rec))

    @pytest.mark.parametrize("time_column", [31, 40])
    def test_time_column_past_the_last_exits_2_writing_nothing(self, tmp_path, capsys, monkeypatch,
                                                               time_column):
        # 30 channels and the time make 31 columns, so index 31 is one too far
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc(seed=6)))
        cfg = write_config(tmp_path, {"csv": {"time_column": time_column}})
        out = tmp_path / "o"
        synthesized = []
        monkeypatch.setattr(synth, "synth_eeg", lambda *a, **k: synthesized.append(a))
        rc = run("synth", "--spec", str(spec), "--config", str(cfg), "--out", str(out))
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: time_column {time_column} outside 31 columns\n"
        assert not out.exists()
        # rejected before any synthesis
        assert synthesized == []

    @pytest.mark.parametrize("duration, noise_floor, text_copies", [
        # a periodic recording's text is one 4 s period, sliced 30 times
        (120.0, 0.0, 0.25),
        # unrepeated text held once, not joined into a second copy
        (60.0, 0.5, 1.6),
    ])
    def test_peak_memory_holds_text_at_most_once(self, tmp_path, duration, noise_floor, text_copies):
        doc = {**self.spec_doc(seed=7), "duration_s": duration, "noise_floor": noise_floor}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        cfg = cli.RunConfig(out_dir=str(tmp_path / "o"), quiet=True)
        tracemalloc.start()
        try:
            code, files, _ = cli.cmd_synth(cfg, str(spec))
            cli._write(cfg, files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        samples = 30 * 500 * duration * 8
        text = (tmp_path / "o" / "synthetic.csv").stat().st_size
        assert peak - samples < text_copies * text, f"{(peak - samples) / text:.2f} x the CSV text"

    def test_periodic_synth_holds_no_full_length_recording(self, tmp_path):
        # 600 s of 30 channels is 72 MB of samples and 173 MB of CSV text;
        # one 4 s period is 0.48 MB and its text 1.2 MB
        doc = {**self.spec_doc(seed=7), "duration_s": 600.0}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        cfg = cli.RunConfig(out_dir=str(tmp_path / "o"), quiet=True)
        tracemalloc.start()
        try:
            code, files, _ = cli.cmd_synth(cfg, str(spec))
            cli._write(cfg, files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    def test_output_is_ingestible_near_target(self, tmp_path, montage_30):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc(seed=5)))
        out = tmp_path / "o"
        assert run("synth", "--spec", str(spec), "--out", str(out), "--quiet") == 0
        rec = ingest.read_csv(
            (out / "synthetic.csv").read_bytes(), ingest.CsvLayout(), 500.0, montage_30
        )
        proto = core.SessionProtocol(phase="baseline", epoch_times=(0.0,))
        est = spectral.welch_psd(core.slice_epochs(rec, proto)[0])
        assert spectral.band_ratio(est, BETA, ALPHA) == pytest.approx(0.701, rel=0.05)

    @pytest.mark.parametrize("change, key", [
        ({"noise_flor": 0.1}, "unknown synth spec key 'noise_flor'"),
        ({"outputs": "edf"}, "outputs must be"),
        ({"seed": 1.5}, "seed must be"),
        ({"duration_s": "10"}, "duration_s must be"),
        ({"bands": {"alpha": 1.0}}, "bands must be"),
        ({"bands": [{"name": "alpha", "f_low": 8.0, "f_high": 13.0}]},
         "synth spec needs ['bands[0].power']"),
        ({"bands": [{"name": "alpha", "f_low": "8", "f_high": 13.0, "power": 1.0}]},
         "bands[0].f_low must be"),
        ({"bands": [{"name": "a", "f_low": 8.0, "f_high": 13.0, "power": 1.0, "pwr": 1}]},
         "unknown synth spec key 'bands[0].pwr'"),
        ({"outputs": []}, "synth outputs must be csv/edf, got []"),
    ])
    def test_bad_spec_names_its_key(self, tmp_path, capsys, change, key):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**self.spec_doc(seed=5), **change}))
        assert run("synth", "--spec", str(spec), "--out", str(tmp_path / "o")) == cli.EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integer_numbers_written_as_floats(self, tmp_path):
        doc = {**self.spec_doc(seed=5), "duration_s": 10, "sampling_rate": 500}
        doc["bands"] = [{"name": "alpha", "f_low": 8, "f_high": 13, "power": 4}]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run("synth", "--spec", str(spec), "--out", str(out), "--quiet") == 0
        meta = (out / "synth_meta.json").read_text()
        for text in ('"duration_s": 10.0', '"sampling_rate": 500.0', '"f_low": 8.0', '"power": 4.0'):
            assert text in meta


class TestBarCommand:
    def test_baseline_phase_series(self, tmp_path, rest_csv):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"protocol": {"phase": "baseline", "epoch_times": [0.0]}})
        rc = run("bar", "--config", str(cfg), "--input", str(rest_csv), "--out", str(out), "--quiet")
        assert rc == 0
        doc = json.loads((out / "bar_series.json").read_text())
        assert doc["phase"] == "baseline"
        assert doc["baseline"] is None
        assert len(doc["points"]) == 1
        assert doc["points"][0]["bar"] == pytest.approx(0.701, rel=0.05)
        assert doc["points"][0]["relative_increase"] is None
        lines = (out / "bar_points.csv").read_text().splitlines()
        assert lines[0] == "x_minutes,y_ratio"
        assert len(lines) == 2

    def test_during_phase_prepends_baseline_point(self, tmp_path, session_csv):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            {
                "baseline_bar": 0.701,
                "protocol": {
                    "phase": "during_gameplay",
                    "game_type": "puzzle",
                    "gamer_type": "gamer",
                    "epoch_times": [0.0, 10.0, 20.0, 30.0],
                },
            },
        )
        rc = run("bar", "--config", str(cfg), "--input", str(session_csv), "--out", str(out), "--quiet")
        assert rc == 0
        lines = (out / "bar_points.csv").read_text().splitlines()
        assert len(lines) == 6
        x0, y0 = lines[1].split(",")
        assert (float(x0), float(y0)) == (0.0, 0.701)
        head = (out / "bar_series.csv").read_text().splitlines()[0]
        assert head.split(",")[:4] == ["time_s", "bar", "baseline", "relative_increase"]
        doc = json.loads((out / "bar_series.json").read_text())
        assert doc["game_type"] == "puzzle"
        assert all(p["relative_increase"] is not None for p in doc["points"])

    def test_series_csv_columns_and_increase(self, tmp_path, session_csv):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"baseline_bar": 0.7, "protocol": {"epoch_times": [0.0, 10.0]}})
        assert run("bar", "--config", str(cfg), "--input", str(session_csv),
                   "--out", str(out), "--quiet") == 0
        rows = [ln.split(",") for ln in (out / "bar_series.csv").read_text().splitlines()]
        assert rows[0] == ["time_s", "bar", "baseline", "relative_increase",
                           "phase", "game_type", "gamer_type", "music_type"]
        assert [row[0] for row in rows[1:]] == ["0.0", "10.0"]
        for row in rows[1:]:
            assert float(row[2]) == 0.7 and row[4] == "baseline"
            want = spectral.relative_increase(float(row[1]), 0.7)
            assert float(row[3]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("baseline_bar", [None, 0.7])
    def test_missing_baseline_is_empty_in_csv_and_null_in_json(self, tmp_path, rest_csv, baseline_bar):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"baseline_bar": baseline_bar, "protocol": {"epoch_times": [0.0]}})
        assert run("bar", "--config", str(cfg), "--input", str(rest_csv),
                   "--out", str(out), "--quiet") == 0
        rows = [ln.split(",") for ln in (out / "bar_series.csv").read_text().splitlines()]
        doc = json.loads((out / "bar_series.json").read_text())
        assert len(rows) == 2 and len(rows[1]) == 8
        increase = doc["points"][0]["relative_increase"]
        if baseline_bar is None:
            assert rows[1][2:4] == ["", ""]
            assert doc["baseline"] is None and increase is None
        else:
            assert rows[1][2:4] == [repr(baseline_bar), repr(increase)]
            assert doc["baseline"] == baseline_bar and increase is not None

    def test_baseline_recording_measured(self, tmp_path, rest_csv, session_csv):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            {
                "input": {"baseline_recording": str(rest_csv)},
                "protocol": {"phase": "during_gameplay", "epoch_times": [0.0]},
            },
        )
        rc = run("bar", "--config", str(cfg), "--input", str(session_csv), "--out", str(out), "--quiet")
        assert rc == 0
        doc = json.loads((out / "bar_series.json").read_text())
        assert doc["baseline"] == pytest.approx(0.701, rel=0.05)

    def test_quiet_suppresses_chatter(self, tmp_path, rest_csv, capsys):
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        run("bar", "--config", str(cfg), "--input", str(rest_csv),
            "--out", str(tmp_path / "q"), "--quiet")
        assert capsys.readouterr().out == ""
        run("bar", "--config", str(cfg), "--input", str(rest_csv),
            "--out", str(tmp_path / "v"))
        assert "BAR series" in capsys.readouterr().out

    def test_dotted_override_changes_estimate(self, tmp_path, rest_csv):
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("bar", "--config", str(cfg), "--input", str(rest_csv),
                   "--out", str(a), "--quiet") == 0
        assert run("bar", "--config", str(cfg), "--input", str(rest_csv),
                   "--out", str(b), "--quiet", "--welch.taper", "hann") == 0
        va = json.loads((a / "bar_series.json").read_text())["points"][0]["bar"]
        vb = json.loads((b / "bar_series.json").read_text())["points"][0]["bar"]
        assert va != vb
        assert va == pytest.approx(vb, rel=0.05)

    def test_bad_taper_override(self, tmp_path, rest_csv):
        rc = run("bar", "--input", str(rest_csv), "--out", str(tmp_path / "o"),
                 "--quiet", "--welch.taper", "blackman")
        assert rc == cli.EXIT_VALIDATION

    def test_non_finite_ratio_rejected(self, tmp_path, montage_30, capsys):
        # samples near 1e200: the squared DFT overflows, so both bands hold
        # infinite power and their ratio is NaN
        rng = np.random.default_rng(7)
        rec = core.Recording(
            samples=1e200 * rng.standard_normal((30, 5000)),
            sampling_rate=500.0, channels=montage_30.electrodes,
        )
        path = tmp_path / "huge.csv"
        path.write_bytes(joined(ingest.write_csv(rec)))
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        with np.errstate(over="ignore", invalid="ignore"):
            rc = run("bar", "--config", str(cfg), "--input", str(path), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION
        assert "ratios must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestFitCommand:
    def trajectory_file(self, tmp_path):
        pts = tmp_path / "traj.csv"
        model = cli.regress.FourPLModel(a=0.7, b=2.2, c=30.0, d=2.4)
        xs = np.linspace(0.0, 60.0, 9)
        rng = np.random.default_rng(50)
        rows = [
            (float(x), float(cli.regress.eval_4pl(model, x)) + 0.01 * float(e))
            for x, e in zip(xs, rng.normal(size=9))
        ]
        pts.write_text("x_minutes,y_ratio\n" + "\n".join(f"{x},{y}" for x, y in rows) + "\n")
        return pts

    def test_both_models_with_ranking(self, tmp_path):
        pts = self.trajectory_file(tmp_path)
        out = tmp_path / "o"
        assert run("fit", "--points", str(pts), "--out", str(out), "--quiet") == 0
        four = json.loads((out / "fit_4pl.json").read_text())
        quart = json.loads((out / "fit_quartic.json").read_text())
        assert four["model_type"] == "4pl" and four["converged"]
        assert quart["model_type"] == "quartic"
        assert four["r_squared"] > 0.999
        ranking = json.loads((out / "comparison.json").read_text())["ranking"]
        assert [r["rank"] for r in ranking] == [0, 1]
        assert ranking[0]["model_type"] == "4pl"
        curve = (out / "fit_4pl_curve.csv").read_text().splitlines()
        assert curve[0] == "x_minutes,y_observed,y_fitted"
        assert len(curve) == 10

    def test_single_model_skips_ranking(self, tmp_path):
        pts = self.trajectory_file(tmp_path)
        out = tmp_path / "o"
        assert run("fit", "--points", str(pts), "--model", "quartic", "--out", str(out), "--quiet") == 0
        assert (out / "fit_quartic.json").is_file()
        assert not (out / "fit_4pl.json").exists()
        assert not (out / "comparison.json").exists()

    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        # main parses with one parser per process; no flag of a call
        # reaches the next one
        pts = self.trajectory_file(tmp_path)
        one, two = tmp_path / "one", tmp_path / "two"
        assert run("fit", "--points", str(pts), "--model", "quartic", "--out", str(one), "--quiet") == 0
        assert capsys.readouterr().out == ""
        assert run("fit", "--points", str(pts), "--out", str(two)) == 0
        assert capsys.readouterr().out != ""
        assert not (one / "fit_4pl.json").exists()
        assert {"fit_4pl.json", "fit_quartic.json", "comparison.json"} <= {p.name for p in two.iterdir()}
        assert cli.build_parser() is cli.build_parser()

    def test_five_point_run_flags_interpolation(self, tmp_path):
        pts = tmp_path / "five.csv"
        rows = [(0.0, 0.701), (15.0, 0.729), (30.0, 0.874), (45.0, 1.297), (60.0, 1.541)]
        pts.write_text("\n".join(f"{x},{y}" for x, y in rows) + "\n")
        out = tmp_path / "o"
        assert run("fit", "--points", str(pts), "--out", str(out), "--quiet") == 0
        ranking = json.loads((out / "comparison.json").read_text())["ranking"]
        assert ranking[0]["model_type"] == "quartic"
        assert ranking[0]["aic"] is None
        assert ranking[0]["overfit_warning"] is True
        quart = json.loads((out / "fit_quartic.json").read_text())
        assert quart["exact_fit"] is True

    def test_composes_with_bar_output(self, tmp_path, session_csv):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            {
                "baseline_bar": 0.701,
                "protocol": {"phase": "during_gameplay", "epoch_times": [0.0, 10.0, 20.0, 30.0]},
            },
        )
        assert run("bar", "--config", str(cfg), "--input", str(session_csv),
                   "--out", str(out), "--quiet") == 0
        rc = run("fit", "--model", "quartic", "--out", str(out), "--quiet")
        assert rc == 0
        doc = json.loads((out / "fit_quartic.json").read_text())
        assert doc["n"] == 5

    @pytest.mark.parametrize("header", ["", "x_minutes,y_ratio\n"], ids=["headerless", "header"])
    def test_byte_order_mark_keeps_every_point(self, tmp_path, header):
        # a spreadsheet's UTF-8 export starts with a byte-order mark
        rows = [(0.0, 0.701), (15.0, 0.729), (30.0, 0.874), (45.0, 1.297), (60.0, 1.541)]
        text = header + "".join(f"{x},{y}\n" for x, y in rows)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        (tmp_path / "plain.csv").write_text(text)
        for name in ("bom", "plain"):
            assert run("fit", "--points", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name),
                       "--quiet") == 0
        assert json.loads((tmp_path / "bom" / "fit_quartic.json").read_text())["n"] == 5
        assert outputs(tmp_path / "bom") == outputs(tmp_path / "plain")


class TestPsdCommand:
    def test_per_channel_files(self, tmp_path, rest_csv):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        assert run("psd", "--config", str(cfg), "--input", str(rest_csv),
                   "--out", str(out), "--quiet") == 0
        per_channel = sorted(out.glob("psd_*.csv"))
        assert len(per_channel) == 30
        lines = per_channel[0].read_text().splitlines()
        assert lines[0] == "frequency_hz,epoch_0s"
        assert len(lines) == 1002
        freqs = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert freqs[0] == 0.0 and freqs[-1] == 250.0 and len(freqs) == 1001
        assert len(json.loads((out / "psd.json").read_text())["channels"]) == 30

    def test_index_lists_each_csv_once_with_the_welch_settings(self, tmp_path, session_csv):
        out = tmp_path / "o"
        welch = {"taper": "hann", "fft_size": 4096, "overlap_fraction": 0.25}
        cfg = write_config(tmp_path, {"welch": welch, "protocol": {"epoch_times": [0.0, 20.0]}})
        assert run("psd", "--config", str(cfg), "--input", str(session_csv),
                   "--out", str(out), "--quiet") == 0
        doc = json.loads((out / "psd.json").read_text())
        assert doc["schema_version"] == cli.SCHEMA_VERSION and doc["epochs"] == [0.0, 20.0]
        listed = [ch["file"] for ch in doc["channels"]]
        labels = [e.label for e in core.standard_montage().electrodes]
        assert [ch["label"] for ch in doc["channels"]] == labels
        assert listed == [f"psd_{label}.csv" for label in labels]
        assert sorted(listed) == sorted(p.name for p in out.glob("psd_*.csv"))  # each file, once
        assert doc["welch"] == {"window_len": 10.0, "segment_count": 4, **welch}


# Edge values for the writers: zero both ways, the smallest subnormal, a
# tiny normal, values on either side where repr turns to exponent notation.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e16, 2.5e-06, 1.0]
psd_values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def psd_sets(draw, n_freq=st.integers(1, 5), n_epochs=st.integers(1, 3)):
    """(epochs, psds) as cmd_psd sees them after its Welch calls."""
    nf, ne = draw(n_freq), draw(n_epochs)
    labels = draw(st.lists(st.sampled_from(["Fp1", "Cz", "O\u0308z", "T7"]),
                           min_size=1, max_size=3, unique=True))
    chans = tuple(core.ChannelInfo(lb, (0.0, 0.0)) for lb in labels)
    freqs = np.array(draw(st.lists(psd_values, min_size=nf, max_size=nf)))
    starts = st.one_of(st.integers(0, 3600), st.floats(0.0, 3600.0))
    epochs, psds = [], []
    for _ in range(ne):
        t = draw(starts)
        epochs.append(core.Epoch(np.zeros((len(chans), 1)), t, t + 10.0, 500.0, chans))
        power = draw(st.lists(psd_values, min_size=nf * len(chans), max_size=nf * len(chans)))
        psds.append(spectral.PsdEstimate(
            freqs, np.reshape(power, (len(chans), nf)), spectral.WelchConfig(), chans
        ))
    return epochs, psds


def reference_psd_files(epochs, psds):
    """Per-value writer: repr of each float in the CSVs, and psd.json their
    index as json.dumps(indent=2) writes it."""
    channels = epochs[0].channels
    header = "frequency_hz," + ",".join(f"epoch_{ep.t_start:g}s" for ep in epochs)
    files = {}
    for row, ch in enumerate(channels):
        lines = [header] + [
            ",".join([repr(float(f))] + [repr(float(p.power[row, i])) for p in psds])
            for i, f in enumerate(psds[0].frequencies)
        ]
        files[f"psd_{ch.label}.csv"] = ("\n".join(lines) + "\n").encode()
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "epochs": [ep.t_start for ep in epochs],
        "channels": [{"label": ch.label, "file": f"psd_{ch.label}.csv"} for ch in channels],
        "welch": dataclasses.asdict(psds[0].config),
    }
    files["psd.json"] = json.dumps(doc, indent=2).encode()
    return files


def run_psd_writer(epochs, psds):
    """The files cmd_psd returns for the given epochs and spectra, as written."""
    spectra = [(ep.t_start, psd) for ep, psd in zip(epochs, psds)]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_epoch_psds", return_value=spectra):
        cfg = cli.RunConfig(recording="in.csv", out_dir=tmp, quiet=True)
        code, files, _ = cli.cmd_psd(cfg)
        assert code == 0
        cli._write(cfg, files)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


class TestPsdWriter:
    @settings(max_examples=150, deadline=None)
    @given(psd_sets())
    def test_bytes_equal_per_value_reference(self, data):
        assert run_psd_writer(*data) == reference_psd_files(*data)

    @settings(max_examples=10, deadline=None)
    @given(psd_sets(n_freq=st.just(1), n_epochs=st.just(1)))
    def test_one_frequency_one_epoch(self, data):
        assert run_psd_writer(*data) == reference_psd_files(*data)

    def test_non_finite_values_spelled_as_json_dumps(self):
        chans = (core.ChannelInfo("Cz", (0.0, 0.0)),)
        ep = core.Epoch(np.zeros((1, 1)), 0.0, 10.0, 500.0, chans)
        psd = spectral.PsdEstimate(
            np.array([0.0, 5e-324, 1e16]), np.array([[np.nan, np.inf, -np.inf]]),
            spectral.WelchConfig(), chans,
        )
        files = run_psd_writer([ep], [psd])
        assert files == reference_psd_files([ep], [psd])
        assert files["psd_Cz.csv"].splitlines()[1:] == [b"0.0,nan", b"5e-324,inf", b"1e+16,-inf"]


# Columns of text, not numbers, in the CSVs the CLI writes.
TEXT_COLUMNS = {"phase", "game_type", "gamer_type", "music_type"}


class TestCsvFieldsParse:
    def test_every_numeric_field_parses(self, tmp_path, session_csv):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {
            "baseline_bar": 0.701,
            "protocol": {"phase": "during_gameplay", "epoch_times": [0.0, 10.0, 20.0, 30.0]},
        })
        common = ("--config", str(cfg), "--input", str(session_csv), "--out", str(out), "--quiet")
        for command in ("psd", "bar", "topo"):
            assert run(command, *common) == 0
        assert run("fit", "--out", str(out), "--quiet") == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_s": 1.0, "bands": [
            {"name": "alpha", "f_low": 8, "f_high": 13, "power": 4.329}]}))
        assert run("synth", "--spec", str(spec), "--out", str(out), "--quiet") == 0
        assert run("report", "--out", str(out), "--quiet") == 0
        headed = ["psd_*.csv", "bar_series.csv", "bar_points.csv", "fit_*_curve.csv"]
        bare = ["topo_*.csv", "similarity.csv"]
        checked = 0
        for pattern in headed + bare:
            paths = sorted(out.glob(pattern))
            assert paths, pattern
            for path in paths:
                rows = [ln.split(",") for ln in path.read_text().splitlines()]
                header = rows.pop(0) if pattern in headed else [None] * len(rows[0])
                for row in rows:
                    assert len(row) == len(header), path.name
                    for name, field in zip(header, row):
                        if name in TEXT_COLUMNS or (pattern == "topo_*.csv" and field == ""):
                            continue
                        float(field)  # raises ValueError on text such as np.float64(0.25)
                        checked += 1
        assert checked > 30 * 1001 * 4
        freqs = np.fft.rfftfreq(2000, d=1 / 500.0).tolist()  # 10 s epochs, 4 segments half overlapped
        for path in out.glob("psd_*.csv"):
            column = [float(ln.split(",", 1)[0]) for ln in path.read_text().splitlines()[1:]]
            assert column == freqs
        documents = sorted(p.name for p in out.glob("*.json"))
        assert {"psd.json", "bar_series.json", "similarity.json", "fit_4pl.json", "comparison.json",
                "synth_meta.json", "report.json", "run_meta.json"} <= set(documents)
        for name in documents:
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2), name


class TestEmit:
    """A command's files and run_meta.json, as the run loop writes them."""

    def test_nothing_written_when_a_file_cannot_be_encoded(self, tmp_path, monkeypatch):
        files = {"a.csv": [["1.0"]], "b.json": {"bad": object()}}
        monkeypatch.setitem(cli.COMMANDS, "bar", lambda cfg, args: (cli.EXIT_OK, files, ""))
        with pytest.raises(TypeError):
            cli.main(["bar", "--out", str(tmp_path / "o"), "--quiet"])
        assert not (tmp_path / "o").exists()

    def test_nothing_written_when_a_file_after_chunks_cannot_be_encoded(self, tmp_path, monkeypatch):
        files = {"a.edf": cli._Chunks([b"head", memoryview(b"data")]), "b.json": {"bad": object()}}
        monkeypatch.setitem(cli.COMMANDS, "synth", lambda cfg, args: (cli.EXIT_OK, files, ""))
        with pytest.raises(TypeError):
            cli.main(["synth", "--spec", "unread.json", "--out", str(tmp_path / "o"), "--quiet"])
        assert not (tmp_path / "o").exists()

    def test_files_in_order_then_run_meta(self, tmp_path, monkeypatch, capsys):
        # every file is written through one Path.open, in the order given
        written = []
        path_open = Path.open
        monkeypatch.setattr(Path, "open", lambda p, *a, **k: written.append(p.name) or path_open(p, *a, **k))
        files = {"b.json": {"k": (1, 2.5)}, "a.csv": [["x", "y"], ("1.0", "nan")], "c.ppm": b"P6",
                 "d.edf": cli._Chunks([b"ab", memoryview(b"xcdx")[1:3], b""])}
        result = (cli.EXIT_DIVERGED, files, "line 1\nline 2")
        monkeypatch.setitem(cli.COMMANDS, "fit", lambda cfg, args: result)
        assert cli.main(["fit", "--out", str(tmp_path / "o")]) == cli.EXIT_DIVERGED
        assert written == ["b.json", "a.csv", "c.ppm", "d.edf", "run_meta.json"]
        assert (tmp_path / "o" / "a.csv").read_bytes() == b"x,y\n1.0,nan\n"
        assert (tmp_path / "o" / "d.edf").read_bytes() == b"abcd"
        assert (tmp_path / "o" / "b.json").read_text() == json.dumps({"k": [1, 2.5]}, indent=2)
        meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
        assert meta["command"] == "fit"
        assert meta["versions"] == {"barstress": barstress.__version__, "numpy": np.__version__,
                                    "python": platform.python_version()}
        assert [(c["command"], c["exit_code"]) for c in meta["commands"]] == [("fit", cli.EXIT_DIVERGED)]
        assert capsys.readouterr().out == "line 1\nline 2\n"


# Band names and topo scalars that no config band resolves, for bar and topo.
UNRESOLVED_BANDS = [
    ("bar", "--ratio.numerator", "gamma"),
    ("bar", "--ratio.denominator", "mu"),
    ("topo", "--ratio.numerator", "gamma"),
    ("topo", "--topo.scalar", "band:gamma"),
    ("topo", "--topo.scalar", "foo"),
]


@pytest.mark.parametrize("argv", UNRESOLVED_BANDS)
def test_bands_resolved_before_input_read(tmp_path, rest_csv, argv):
    with mock.patch.object(ingest, "read_csv_windows", wraps=ingest.read_csv_windows) as reader:
        rc = run(*argv, "--input", str(rest_csv), "--out", str(tmp_path / "o"), "--quiet")
    assert rc == cli.EXIT_VALIDATION
    assert reader.call_count == 0
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["psd", "bar", "topo"])
def test_empty_protocol_exits_2_before_the_read(tmp_path, rest_csv, capsys, command):
    cfg = write_config(tmp_path, {"protocol": {"epoch_times": []}})
    with mock.patch.object(ingest, "read_csv_windows", wraps=ingest.read_csv_windows) as reader:
        rc = run(command, "--config", str(cfg), "--input", str(rest_csv), "--out", str(tmp_path / "o"))
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: protocol has no epoch times\n"
    assert reader.call_count == 0
    assert not (tmp_path / "o").exists()
    # The protocol is checked before the input is opened, so a missing
    # input does not turn the validation error into an I/O one.
    missing = tmp_path / "missing.csv"
    rc = run(command, "--config", str(cfg), "--input", str(missing), "--out", str(tmp_path / "o"))
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: protocol has no epoch times\n"
    assert not (tmp_path / "o").exists()


def test_custom_bands_without_beta_or_alpha(tmp_path, rest_csv):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, {"bands": {"gamma": [30, 45]}, "protocol": {"epoch_times": [0.0]}})
    assert run("topo", "--config", str(cfg), "--input", str(rest_csv), "--out", str(out),
               "--topo.scalar", "band:gamma", "--quiet") == 0
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{x},{1 + 0.1 * x}\n" for x in range(6)))
    assert run("fit", "--config", str(cfg), "--points", str(points), "--model", "quartic",
               "--out", str(out), "--quiet") == 0


class TestTopoCommand:
    def test_single_epoch_outputs(self, tmp_path, rest_csv):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        assert run("topo", "--config", str(cfg), "--input", str(rest_csv),
                   "--out", str(out), "--quiet") == 0
        ppm = (out / "topo_00_0s.ppm").read_bytes()
        assert ppm.startswith(b"P6\n64 64\n255\n")
        assert (out / "topo_00_0s.csv").is_file()
        sim = json.loads((out / "similarity.json").read_text())
        assert sim["similarity"] == [[1.0]]
        assert sim["scalar"] == "bar"
        assert (out / "similarity.csv").read_text().strip() == "1.0"

    def test_periodic_epochs_fully_similar(self, tmp_path, montage_30):
        # the oscillator bank repeats every 4 s, so epochs 4 s apart carry
        # identical samples and their maps must agree
        rec = synth.synth_eeg(
            synth.SynthSpec(
                duration=14.0, sampling_rate=500.0, montage=montage_30,
                band_targets=((ALPHA, 4.329), (BETA, 3.034)), seed=103,
            )
        )
        src = tmp_path / "periodic.csv"
        src.write_bytes(joined(ingest.write_csv(rec)))
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0, 4.0]}})
        assert run("topo", "--config", str(cfg), "--input", str(src),
                   "--out", str(out), "--quiet") == 0
        sim = json.loads((out / "similarity.json").read_text())["similarity"]
        assert sim[0][1] == pytest.approx(1.0, abs=1e-9)
        assert sorted(p.name for p in out.glob("topo_*.ppm")) == [
            "topo_00_0s.ppm", "topo_01_4s.ppm",
        ]

    def test_band_scalar_hotspot_localizes(self, tmp_path, montage_30):
        # one frontal channel gets 25x beta power; the hottest grid cell
        # must land on that electrode
        rng = np.random.default_rng(104)
        fs, n = 500.0, 5000
        t = np.arange(n) / fs
        hot_label = "Fp1"
        rows = []
        for i, ch in enumerate(montage_30.electrodes):
            beta_amp = 5.0 if ch.label == hot_label else 1.0
            sig = beta_amp * np.sin(2 * np.pi * 20.0 * t + rng.uniform(0, 2 * np.pi))
            sig += np.sin(2 * np.pi * 10.0 * t + rng.uniform(0, 2 * np.pi))
            rows.append(sig)
        rec = core.Recording(
            channels=montage_30.electrodes, samples=np.array(rows), sampling_rate=fs
        )
        src = tmp_path / "hot.csv"
        src.write_bytes(joined(ingest.write_csv(rec)))
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        assert run("topo", "--config", str(cfg), "--input", str(src), "--out", str(out),
                   "--topo.scalar", "band:beta", "--quiet") == 0
        cells = [
            [float(c) if c else np.nan for c in line.split(",")]
            for line in (out / "topo_00_0s.csv").read_text().splitlines()
        ]
        grid = np.array(cells)
        row, col = np.unravel_index(np.nanargmax(grid), grid.shape)
        hot = next(e for e in montage_30.electrodes if e.label == hot_label)
        want_col = round((hot.position[0] + 1.0) / 2.0 * 63)
        want_row = round((1.0 - hot.position[1]) / 2.0 * 63)
        assert abs(row - want_row) <= 2 and abs(col - want_col) <= 2

    def test_bad_scalar_rejected(self, tmp_path, rest_csv):
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        rc = run("topo", "--config", str(cfg), "--input", str(rest_csv),
                 "--out", str(tmp_path / "o"), "--topo.scalar", "gamma", "--quiet")
        assert rc == cli.EXIT_VALIDATION


class TestReportCommand:
    def populate(self, tmp_path, session_csv):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            {
                "baseline_bar": 0.701,
                "protocol": {"phase": "during_gameplay", "epoch_times": [0.0, 10.0, 20.0, 30.0]},
            },
        )
        assert run("bar", "--config", str(cfg), "--input", str(session_csv),
                   "--out", str(out), "--quiet") == 0
        assert run("fit", "--model", "quartic", "--out", str(out), "--quiet") == 0
        return out

    def test_aggregates_sections(self, tmp_path, session_csv):
        out = self.populate(tmp_path, session_csv)
        assert run("report", "--out", str(out), "--quiet") == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["bar"]["phase"] == "during_gameplay"
        assert "quartic" in doc["fits"]
        assert doc["topography"] is None
        md = (out / "report.md").read_text()
        assert md.startswith("# Session report")
        assert "## Beta/alpha ratio" in md
        assert "## Model fits" in md

    def test_byte_deterministic_rerun(self, tmp_path, session_csv):
        out = self.populate(tmp_path, session_csv)
        assert run("report", "--out", str(out), "--quiet") == 0
        first = (out / "report.json").read_bytes()
        assert run("report", "--out", str(out), "--quiet") == 0
        assert (out / "report.json").read_bytes() == first

    @pytest.mark.parametrize(
        "name, doc, message",
        [
            ("bar_series.json", [1], "the document is not an object"),
            ("bar_series.json", {"phase": "x"}, "the document has no 'game_type'"),
            ("fit_4pl.json", {"r_squared": "0.9", "aic": None, "converged": True},
             'r_squared is "0.9", not a number'),
            ("comparison.json", {"ranking": [{"model_type": "4pl"}]},
             "ranking[0] has no 'overfit_warning'"),
            ("similarity.json", {"similarity": [[1.0, True]]},
             "similarity[0][1] is true, not a number"),
        ],
        ids=["bar-list", "bar-keys", "fit", "comparison", "similarity"],
    )
    def test_malformed_artifact_exits_2_naming_it(self, tmp_path, capsys, name, doc, message):
        out = tmp_path / "o"
        out.mkdir()
        (out / name).write_text(json.dumps(doc))
        assert run("report", "--out", str(out)) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and message in err
        assert not (out / "report.json").exists()

    def test_bar_only_report(self, tmp_path, rest_csv):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        assert run("bar", "--config", str(cfg), "--input", str(rest_csv),
                   "--out", str(out), "--quiet") == 0
        assert run("report", "--out", str(out), "--quiet") == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["fits"] is None
        assert doc["ranking"] is None


def test_session_chain_writes_each_command_its_fixed_files(tmp_path):
    """synth, psd, bar, fit, topo and report share one output directory;
    each writes exactly its own files and run_meta.json, and leaves the
    bytes of every other file as they were."""
    out = tmp_path / "o"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "duration_s": 40.0,
        "bands": [
            {"name": "alpha", "f_low": 8.0, "f_high": 13.0, "power": 4.329},
            {"name": "beta", "f_low": 13.0, "f_high": 30.0, "power": 3.034},
        ],
    }))
    cfg = write_config(
        tmp_path,
        {"baseline_bar": 0.701,
         "protocol": {"phase": "during_gameplay", "epoch_times": [0.0, 10.0, 20.0, 30.0]}},
    )
    recording = str(out / "synthetic.csv")
    steps = [
        (["synth", "--spec", str(spec)], {"synthetic.csv", "synth_meta.json"}),
        (["psd", "--input", recording],
         {f"psd_{e.label}.csv" for e in core.standard_montage().electrodes} | {"psd.json"}),
        (["bar", "--input", recording], {"bar_series.csv", "bar_points.csv", "bar_series.json"}),
        (["fit"], {"fit_4pl.json", "fit_quartic.json", "comparison.json",
                   "fit_4pl_curve.csv", "fit_quartic_curve.csv"}),
        (["topo", "--input", recording],
         {f"topo_{i:02d}_{t}s.{ext}" for i, t in enumerate((0, 10, 20, 30)) for ext in ("ppm", "csv")}
         | {"similarity.csv", "similarity.json"}),
        (["report"], {"report.json", "report.md"}),
    ]
    before: dict[str, bytes] = {}
    for argv, names in steps:
        (out / "run_meta.json").unlink(missing_ok=True)
        assert run(*argv, "--config", str(cfg), "--out", str(out), "--quiet") == 0, argv[0]
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(after) - set(before) == names | {"run_meta.json"}, argv[0]
        assert {name: after[name] for name in before} == before, argv[0]
        before = {name: blob for name, blob in after.items() if name != "run_meta.json"}


def test_readme_cli_tour_runs_in_order(tmp_path, monkeypatch):
    """Every line of README's CLI tour, as written, with the spec and
    config documents the README gives, exits 0."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documents = dict(re.findall(r"`(\w+\.json)`(?:(?!```).)*?```json\n(.*?)```", text, re.S))
    (tour,) = re.findall(r"^```\n(barstress synth .*?)^```", text, re.M | re.S)
    for name in ("spec.json", "tour.json"):
        (tmp_path / name).write_text(documents[name])
    monkeypatch.chdir(tmp_path)
    lines = tour.splitlines()
    assert [shlex.split(line)[1] for line in lines] == [
        "synth", "psd", "bar", "fit", "topo", "report", "session"
    ]
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "barstress"
        assert run(*argv[1:], "--quiet") == 0, line


# JSON values of every kind, a little nested.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Values near valid ones, so the dataclass checks behind the types run too.
plausible_values = st.sampled_from([
    0, 1, -1, 2, 0.5, 1.0, 64, 1e308, 10**400, "", ",", "hann", "baseline", "during_gameplay",
    "after_gameplay", "low_pitch", "none", "csv", "bar", [], [0.0], [900, 1800], [5, 1],
    ["Fz"], {"alpha": [8, 13]}, {"x": [1, 1]}, {"x": [1]}, True, None,
])
# Table keys, sections, and keys that no table holds.
doc_keys = st.sampled_from(
    [*cli.CONFIG_KEYS, "input", "welch", "protocol", "bands.alpha",
     "welch.tapr", "bogus", "protocol.phase.x", "topo.scalar.name"]
)
WELL_TYPED = {
    float: st.floats() | st.integers(), int: st.integers(), str: st.text(max_size=6),
    bool: st.booleans(), type(None): st.none(),
}


def well_typed(tp):
    """JSON values of the table type tp; the values may still be invalid."""
    if tp in WELL_TYPED:
        return WELL_TYPED[tp]
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):
        return st.one_of(*map(well_typed, args))
    if typing.get_origin(tp) is list:
        return st.lists(well_typed(args[0]), max_size=4)
    if typing.get_origin(tp) is tuple:
        return st.tuples(*map(well_typed, args)).map(list)
    return st.dictionaries(st.text(max_size=6), well_typed(args[1]), max_size=3)


def doc_entry(key):
    values = json_values | plausible_values
    if key in cli.CONFIG_KEYS:
        values |= well_typed(cli.CONFIG_KEYS[key][1])
    return st.tuples(st.just(key), values)

# Each input exits 2 with the dotted key it names in its error.
BAD_CONFIGS = [
    (["--welch.tapr", "hann"], None, "unknown config key 'welch.tapr'"),
    (["--protocol.epoch_times", '"12"'], None, "protocol.epoch_times must be"),
    (["--topo.resolution", "64.5"], None, "topo.resolution must be"),
    (["--csv.has_header", '"false"'], None, "csv.has_header must be"),
    (["--welch.fft_size", "2048.5"], None, "welch.fft_size must be"),
    (["--topo.scalar", "5"], None, "topo.scalar must be"),
    ([], {"input": {"recording": 5}}, "input.recording must be"),
    ([], {"montage": 5}, "montage must be"),
    ([], {"baseline_bar": "0.7"}, "baseline_bar must be"),
    ([], {"channels": "Fz"}, "channels must be"),
    ([], {"channels": []}, "channels must name at least one channel"),
    # a top-level key's flag is checked like the file's key; no other undotted flag is taken
    (["--baseline_bar", '"0.7"'], None, "baseline_bar must be"),
    (["--baseline", "0.7"], None, "unrecognized argument '--baseline'"),
    (["--welch.fft_size", str(2**63)], None, f"welch.fft_size is out of range: {2**63}"),
]


def parse(*argv):
    args, extras = cli.build_parser().parse_known_args(list(argv))
    return cli.load_config(args, extras)


@pytest.mark.parametrize("flags", [["--baseline_bar", "0.701"], ["--baseline_bar=0.701"]],
                         ids=["space", "equals"])
def test_top_level_key_flag_gives_the_config_files_output(tmp_path, session_edf, flags):
    doc = {"protocol": {"phase": "during_gameplay", "epoch_times": EDF_EPOCHS}}
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    in_file = write_config(tmp_path / "a", {**doc, "baseline_bar": 0.701})
    in_flag = write_config(tmp_path / "b", doc)
    for cfg, extra, out in ((in_file, [], "file"), (in_flag, flags, "flag")):
        assert run("bar", "--config", str(cfg), "--input", str(session_edf[0]), *extra,
                   "--out", str(tmp_path / out), "--quiet") == 0
    got = outputs(tmp_path / "flag")
    assert b"0.701" in got[Path("bar_points.csv")] and got == outputs(tmp_path / "file")


@pytest.mark.parametrize("flags, field, value", [
    (["--sampling_rate", "250"], "sampling_rate", 250.0),
    (["--montage=standard-30"], "montage_name", "standard-30"),
    (["--bands", '{"alpha": [8, 13]}'], "bands", (core.BandDefinition("alpha", 8.0, 13.0),)),
    (["--channels", '["Fz", "Cz"]'], "channels", ("Fz", "Cz")),
    (["--out_dir", "elsewhere"], "out_dir", "elsewhere"),
    (["--baseline_bar", "null"], "baseline_bar", None),
])
def test_every_top_level_key_takes_a_flag(flags, field, value):
    assert getattr(parse("bar", *flags), field) == value


class TestConfigTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(doc_keys.flatmap(doc_entry), max_size=8))
    def test_fuzz_returns_config_or_pipeline_error(self, entries):
        doc = {}
        for key, value in entries:
            cli._set_path(doc, key, value)
        try:
            cfg = cli.config_from_dict(doc)
        except PipelineError:
            return
        assert type(cfg.sampling_rate) is float and type(cfg.seed) is int
        assert type(cfg.topo_resolution) is int and type(cfg.topo_scalar) is str
        assert all(type(t) is float for t in cfg.protocol.epoch_times)

    @pytest.mark.parametrize("doc", [[], "x", 5, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(InvalidConfig, match="config must be an object"):
            cli.config_from_dict(doc)

    @pytest.mark.parametrize("flags, doc, message", BAD_CONFIGS)
    def test_bad_value_exits_2_naming_key(self, tmp_path, rest_csv, capsys, flags, doc, message):
        argv = ["topo", "--out", str(tmp_path / "o"), "--quiet", *flags]
        if doc is not None:
            argv += ["--config", str(write_config(tmp_path, doc))]
        if "input" not in (doc or {}):
            argv += ["--input", str(rest_csv)]
        assert run(*argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    def test_readme_table_lists_every_key_in_order(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("| key | type | default |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        keys = [re.fullmatch(r"\| `([^`]+)` \|.*", row).group(1) for row in table.splitlines()]
        assert keys == list(cli.CONFIG_KEYS)

    def test_empty_document_is_the_default_config(self):
        assert cli.config_from_dict({}) == cli.RunConfig()

    @pytest.mark.parametrize("phase", sorted(core.PHASES))
    def test_phase_alone_gets_its_default_epoch_times(self, phase):
        want = core.DEFAULT_EPOCH_TIMES[phase]
        assert cli.config_from_dict({"protocol": {"phase": phase}}).protocol.epoch_times == want
        assert parse("bar", "--protocol.phase", phase).protocol.epoch_times == want

    def test_other_protocol_keys_keep_the_default_phase(self):
        protocol = cli.config_from_dict({"protocol": {"gamer_type": "gamer"}}).protocol
        assert protocol == core.SessionProtocol(phase="baseline", gamer_type="gamer")

    def test_numbers(self):
        cfg = cli.config_from_dict(
            {"sampling_rate": 250, "baseline_bar": 1, "protocol": {"epoch_times": [0, 10]}}
        )
        assert type(cfg.sampling_rate) is float and cfg.sampling_rate == 250.0
        assert type(cfg.baseline_bar) is float
        assert cfg.protocol.epoch_times == (0.0, 10.0)
        for doc, key in [
            ({"sampling_rate": True}, "sampling_rate"),
            ({"seed": 1.0}, "seed"),
            ({"welch": {"segment_count": False}}, "welch.segment_count"),
            ({"protocol": {"epoch_times": [0, True]}}, "protocol.epoch_times[1]"),
            ({"baseline_bar": 10**400}, "baseline_bar"),
            ({"schema_version": True}, "schema_version"),
        ]:
            with pytest.raises(InvalidConfig, match=rf"^{re.escape(key)} "):
                cli.config_from_dict(doc)

    def test_null_only_where_the_default_is_none(self):
        cfg = cli.config_from_dict(
            {"channels": None, "baseline_bar": None, "welch": {"fft_size": None}}
        )
        assert cfg == cli.RunConfig()
        for doc, key in [({"sampling_rate": None}, "sampling_rate"), ({"bands": None}, "bands"),
                         ({"welch": {"taper": None}}, "welch.taper")]:
            with pytest.raises(InvalidConfig, match=rf"^{re.escape(key)} must be"):
                cli.config_from_dict(doc)

    def test_bands(self):
        cfg = cli.config_from_dict({"bands": {"alpha": [8, 12.5], "gamma": [30, 45]}})
        assert cfg.bands == (core.BandDefinition("alpha", 8.0, 12.5), core.BandDefinition("gamma", 30.0, 45.0))
        for edges in ([8], [8, 12, 13], "8-12", [8, "12"]):
            with pytest.raises(InvalidConfig, match=r"^bands\.alpha"):
                cli.config_from_dict({"bands": {"alpha": edges}})

    def test_section_must_be_an_object(self):
        with pytest.raises(InvalidConfig, match="^welch must be an object"):
            cli.config_from_dict({"welch": "hann"})

    def test_flags_and_overrides_share_one_document(self, tmp_path):
        cfg = write_config(tmp_path, {"input": {"recording": 5}, "welch": {"taper": "hann"}})
        got = parse("topo", "--config", str(cfg), "--input", "a.edf", "--topo.scalar", "band:beta",
                    "--seed", "0", "--welch.taper=rectangular")
        assert got.recording == "a.edf" and got.topo_scalar == "band:beta" and got.seed == 0
        assert got.welch.taper == "rectangular"
        # a flag beats a dotted override of the same key
        assert parse("bar", "--out", "a", "--out_dir.x", "1").out_dir == "a"
        assert parse("bar", "--input.recording", '"2024"').recording == "2024"
        with pytest.raises(InvalidConfig, match="^input.recording must be"):
            parse("bar", "--input.recording", "2024")
        # an override replaces the whole subtree at its path
        assert parse("bar", "--bands.alpha", "[9, 12]").band("alpha").f_low == 9.0
        with pytest.raises(InvalidConfig, match="override '--welch.taper' is missing a value"):
            parse("bar", "--welch.taper")

    def test_empty_flags_set_nothing(self):
        assert parse("bar", "--out", "", "--input", "") == cli.RunConfig()
        assert parse("fit", "--points", "") == cli.RunConfig()


@pytest.fixture
def counted(monkeypatch):
    """Counts of reader calls (with their windows) and Welch calls."""
    counts = {"windows": [], "welch_psd": 0}
    for name in ("read_edf_windows", "read_csv_windows"):
        reader = getattr(ingest, name)
        monkeypatch.setattr(
            ingest, name,
            lambda data, reader=reader, **kw: counts["windows"].append(kw["windows"]) or reader(data, **kw),
        )
    welch_psd = spectral.welch_psd

    def counting_welch(*args):
        counts["welch_psd"] += 1
        return welch_psd(*args)

    monkeypatch.setattr(spectral, "welch_psd", counting_welch)
    return counts


def write_montage(path, shift=0.0):
    """The standard montage as a montage file, Fp1 moved shift along x."""
    doc = {"name": "file", "electrodes": [
        {"label": e.label, "x": e.position[0] + (shift if e.label == "Fp1" else 0.0), "y": e.position[1]}
        for e in core.standard_montage().electrodes
    ]}
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestEpochSpectra:
    """psd, bar and topo in one process read each file and estimate each
    epoch's spectrum once; anything that could change a spectrum misses."""

    def run_all(self, tmp_path, cfg, recording, out, commands=("psd", "bar", "topo"), forget=False):
        for command in commands:
            if forget:
                cli._PSD_MEMO.clear()
            assert run(command, "--config", str(cfg), "--input", str(recording),
                       "--out", str(tmp_path / out), "--quiet") == 0

    def test_psd_bar_topo_read_once_and_welch_once_per_epoch(self, tmp_path, session_edf, counted, monkeypatch):
        monkeypatch.setattr(cli, "_RACY_NS", 0)  # the fixture file may be under 2 s old
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": EDF_EPOCHS}})
        self.run_all(tmp_path, cfg, session_edf[0], "kept")
        assert counted["windows"] == [[(t, t + 10.0) for t in EDF_EPOCHS]]
        assert counted["welch_psd"] == len(EDF_EPOCHS)
        self.run_all(tmp_path, cfg, session_edf[0], "fresh", forget=True)
        assert counted["welch_psd"] == 4 * len(EDF_EPOCHS)
        assert outputs(tmp_path / "kept") == outputs(tmp_path / "fresh")

    def test_recording_and_baseline_each_read_once(self, tmp_path, session_edf, rest_edf, counted, monkeypatch):
        monkeypatch.setattr(cli, "_RACY_NS", 0)
        cfg = write_config(
            tmp_path,
            {"input": {"baseline_recording": str(rest_edf[0])},
             "protocol": {"phase": "during_gameplay", "epoch_times": EDF_EPOCHS}},
        )
        self.run_all(tmp_path, cfg, session_edf[0], "o", commands=("bar", "topo"))
        assert counted["windows"] == [[(0.0, 10.0)], [(t, t + 10.0) for t in EDF_EPOCHS]]
        assert counted["welch_psd"] == 1 + len(EDF_EPOCHS)
        assert len(cli._PSD_MEMO) == 2

    def test_rewritten_file_of_equal_size_and_mtime_misses(self, tmp_path, montage_30, counted, monkeypatch):
        monkeypatch.setattr(cli, "_RACY_NS", 0)
        first, second = edf_blob(12.0, 1, montage_30), edf_blob(12.0, 2, montage_30)
        assert len(first) == len(second) and first != second
        path = tmp_path / "rec.edf"
        path.write_bytes(first)
        before = path.stat()
        self.run_all(tmp_path, write_config(tmp_path, {}), path, "one", commands=("bar",))
        path.write_bytes(second)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert (after.st_ino, after.st_ctime_ns) != (before.st_ino, before.st_ctime_ns)
        self.run_all(tmp_path, write_config(tmp_path, {}), path, "two", commands=("bar",))
        assert counted["welch_psd"] == 2 and len(counted["windows"]) == 2
        self.run_all(tmp_path, write_config(tmp_path, {}), path, "fresh", commands=("bar",), forget=True)
        assert outputs(tmp_path / "two") == outputs(tmp_path / "fresh") != outputs(tmp_path / "one")

    @pytest.mark.parametrize(
        "change",
        [
            {"protocol": {"epoch_times": [0.0, 20.0]}},
            {"welch": {"taper": "hann"}},
            {"csv": {"delimiter": ";"}},
            {"sampling_rate": 250.0},
            "montage",
        ],
        ids=["epoch-times", "welch", "csv-layout", "sampling-rate", "montage-file"],
    )
    def test_any_change_to_the_spectra_misses(self, tmp_path, session_csv, counted, monkeypatch, change):
        monkeypatch.setattr(cli, "_RACY_NS", 0)
        montage = tmp_path / "montage.json"
        write_montage(montage)
        base = {"montage": str(montage), "protocol": {"epoch_times": CSV_EPOCHS}}
        self.run_all(tmp_path, write_config(tmp_path, base), session_csv, "base", commands=("bar",))
        if change == "montage":
            write_montage(montage, shift=0.01)  # same labels, so the same spectra; still a miss
            change = {}
        cfg = write_config(tmp_path, {**base, **change})
        codes = []
        for out in ("changed", "fresh"):
            if out == "fresh":
                cli._PSD_MEMO.clear()
            codes.append(run("bar", "--config", str(cfg), "--input", str(session_csv),
                             "--out", str(tmp_path / out), "--quiet"))
        assert len(counted["windows"]) == 3
        assert codes[0] == codes[1] and outputs(tmp_path / "changed") == outputs(tmp_path / "fresh")

    @pytest.mark.parametrize("failure", ["read", "welch"])
    def test_failed_run_stores_nothing(self, tmp_path, session_csv, counted, monkeypatch, capsys, failure):
        monkeypatch.setattr(cli, "_RACY_NS", 0)
        path = tmp_path / "in.csv"
        flags = []
        if failure == "read":
            path.write_bytes(edit_rows(session_csv.read_bytes(), {3000: b"x,1"}))
        else:
            path.write_bytes(session_csv.read_bytes())
            flags = ["--welch.fft_size", "16"]  # shorter than a segment
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": CSV_EPOCHS}})
        results = []
        for _ in range(2):
            rc = run("bar", "--config", str(cfg), "--input", str(path), "--out", str(tmp_path / "o"), *flags)
            results.append((rc, capsys.readouterr().err))
        assert results[0] == results[1] and results[0][0] == cli.EXIT_VALIDATION
        assert len(counted["windows"]) == 2 and cli._PSD_MEMO == []
        assert not (tmp_path / "o").exists()

    def test_file_changed_within_the_racy_window_is_not_kept(self, tmp_path, rest_csv, counted, monkeypatch):
        monkeypatch.setattr(cli, "_RACY_NS", 3600 * 10**9)
        path = tmp_path / "in.csv"
        path.write_bytes(rest_csv.read_bytes())
        old = path.stat().st_mtime_ns - 2 * 3600 * 10**9
        os.utime(path, ns=(old, old))  # only the ctime is young
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        self.run_all(tmp_path, cfg, path, "o", commands=("bar", "topo"))
        assert len(counted["windows"]) == 2 and counted["welch_psd"] == 2
        assert cli._PSD_MEMO == []

    def test_keeps_only_the_last_two_files(self, tmp_path, rest_edf, session_edf, counted, monkeypatch):
        monkeypatch.setattr(cli, "_RACY_NS", 0)
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": [0.0]}})
        for path in (rest_edf[0], rest_edf[1], session_edf[0], rest_edf[0]):
            self.run_all(tmp_path, cfg, path, "o", commands=("bar",))
        assert len(counted["windows"]) == 4 and len(cli._PSD_MEMO) == 2


@pytest.mark.parametrize("kind", [0, 1], ids=["edf", "csv"])
def test_huge_epoch_time_exits_2(tmp_path, session_edf, capsys, kind):
    # t * fs overflows to inf, which no sample index holds
    cfg = write_config(tmp_path, {"protocol": {"epoch_times": [1e308]}})
    rc = run("bar", "--config", str(cfg), "--input", str(session_edf[kind]), "--out", str(tmp_path / "o"))
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: epoch at 1e+308 s")
    assert not (tmp_path / "o").exists()


# The commands of a paper session, in order: session.commands' default.
SESSION = ("psd", "bar", "fit", "topo", "report")


class TestSessionCommand:
    def config(self, tmp_path, baseline, **extra):
        return write_config(
            tmp_path,
            {"input": {"baseline_recording": str(baseline), **extra.pop("input", {})},
             "protocol": {"phase": "during_gameplay", "epoch_times": EDF_EPOCHS}, **extra},
        )

    def one_by_one(self, tmp_path, cfg, recording, out):
        """Each command as its own run in a fresh process would make it."""
        codes = []
        for command in SESSION:
            cli._PSD_MEMO.clear()
            flags = ["--input", str(recording)] if command in ("psd", "bar", "topo") else []
            codes.append(run(command, "--config", str(cfg), *flags, "--out", str(tmp_path / out), "--quiet"))
        return codes

    @pytest.mark.parametrize("kind", [0, 1], ids=["edf", "csv"])
    def test_same_files_as_the_commands_one_by_one(self, tmp_path, session_edf, rest_edf, monkeypatch, kind):
        monkeypatch.setattr(cli, "_RACY_NS", 0)
        cfg = self.config(tmp_path, rest_edf[kind])
        codes = self.one_by_one(tmp_path, cfg, session_edf[kind], "each")
        cli._PSD_MEMO.clear()
        rc = run("session", "--config", str(cfg), "--input", str(session_edf[kind]),
                 "--out", str(tmp_path / "one"), "--quiet")
        assert codes == [0] * 5 and rc == 0
        got = outputs(tmp_path / "one")
        assert len(got) > 40 and got == outputs(tmp_path / "each")
        meta = json.loads((tmp_path / "one" / "run_meta.json").read_text())
        assert meta["command"] == "session"
        assert [(c["command"], c["exit_code"]) for c in meta["commands"]] == [(c, 0) for c in SESSION]
        assert all(c["wall_s"] >= 0 for c in meta["commands"])

    def test_fit_exit_4_lets_topo_and_report_run(self, tmp_path, session_edf, rest_edf, monkeypatch):
        monkeypatch.setattr(regress, "_MAX_ITERATIONS", 1)
        # the power-law ridge series, which one iteration does not settle
        pts = tmp_path / "points.csv"
        rows = [(0.0, 0.701), (15.0, 1.084), (30.0, 1.295), (45.0, 1.742), (60.0, 2.149)]
        pts.write_text("\n".join(f"{x},{y}" for x, y in rows) + "\n")
        cfg = self.config(tmp_path, rest_edf[0], input={"points": str(pts)})
        codes = self.one_by_one(tmp_path, cfg, session_edf[0], "each")
        rc = run("session", "--config", str(cfg), "--input", str(session_edf[0]),
                 "--out", str(tmp_path / "one"), "--quiet")
        assert codes == [0, 0, cli.EXIT_DIVERGED, 0, 0] and rc == cli.EXIT_DIVERGED
        assert outputs(tmp_path / "one") == outputs(tmp_path / "each")
        meta = json.loads((tmp_path / "one" / "run_meta.json").read_text())
        assert [c["exit_code"] for c in meta["commands"]] == codes
        assert (tmp_path / "one" / "similarity.json").is_file() and (tmp_path / "one" / "report.md").is_file()

    def test_bad_input_exits_3_before_fit(self, tmp_path, rest_edf, capsys):
        cfg = self.config(tmp_path, rest_edf[0])
        with mock.patch.object(cli, "cmd_fit", wraps=cli.cmd_fit) as fit:
            rc = run("session", "--config", str(cfg), "--input", str(tmp_path / "nope.edf"),
                     "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_IO and fit.call_count == 0
        assert capsys.readouterr().err.startswith("io error: ")
        assert not (tmp_path / "o").exists()

    def test_stop_after_files_written_keeps_them_and_run_meta(self, tmp_path, session_edf, rest_edf):
        cfg = self.config(tmp_path, rest_edf[0], session={"commands": ["bar", "topo", "report"]},
                          topo={"scalar": "band:gamma"})
        rc = run("session", "--config", str(cfg), "--input", str(session_edf[0]),
                 "--out", str(tmp_path / "o"), "--quiet")
        assert rc == cli.EXIT_VALIDATION
        meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
        assert [(c["command"], c["exit_code"]) for c in meta["commands"]] == [("bar", 0), ("topo", 2)]
        assert (tmp_path / "o" / "bar_series.json").is_file()
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("doc", [
        {},
        {"protocol": {"phase": "during_gameplay", "epoch_times": EDF_EPOCHS}},
        {"protocol": {"phase": "during_gameplay", "epoch_times": EDF_EPOCHS},
         "input": {"baseline_recording": ""}, "session": {"commands": ["bar", "report", "fit"]}},
    ], ids=["one-baseline-epoch", "four-epochs-no-baseline", "fit-after-bar"])
    def test_too_few_fit_points_exit_2_before_anything_runs(self, tmp_path, session_edf, capsys, doc):
        cfg = write_config(tmp_path, doc)
        with mock.patch.object(ingest, "read_edf_windows") as reader:
            rc = run("session", "--config", str(cfg), "--input", str(session_edf[0]),
                     "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION and reader.call_count == 0
        err = capsys.readouterr().err
        assert err.startswith("error: session's fit would read") and "input.points" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("commands", [["fit", "report"], ["fit", "bar"]], ids=["fit-report", "fit-bar"])
    def test_fit_before_any_bar_reads_the_points_already_written(
        self, tmp_path, session_edf, rest_edf, commands
    ):
        # bar's six points come from an earlier run; the session's own config
        # would give bar one point, which is no reason to refuse its fit
        cfg = self.config(tmp_path, rest_edf[0])
        assert run("bar", "--config", str(cfg), "--input", str(session_edf[0]),
                   "--out", str(tmp_path / "o"), "--quiet") == 0
        assert len((tmp_path / "o" / "bar_points.csv").read_text().splitlines()) == 1 + 5
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "bar_points.csv").write_bytes((tmp_path / "o" / "bar_points.csv").read_bytes())
        assert run("fit", "--out", str(tmp_path / "o"), "--quiet") == 0
        doc = {"session": {"commands": commands}}
        rc = run("session", "--config", str(write_config(tmp_path, doc)), "--input", str(session_edf[0]),
                 "--out", str(tmp_path / "s"), "--quiet")
        assert rc == 0
        meta = json.loads((tmp_path / "s" / "run_meta.json").read_text())
        assert [(c["command"], c["exit_code"]) for c in meta["commands"]] == [(c, 0) for c in commands]
        fits = [outputs(tmp_path / out) for out in ("s", "o")]
        fits = [{k: v for k, v in got.items() if k.name.startswith("fit_")} for got in fits]
        assert len(fits[0]) == 4 and fits[0] == fits[1]

    @pytest.mark.parametrize("source", ["none", "baseline_bar", "baseline_recording"])
    @pytest.mark.parametrize("phase", ["baseline", "during_gameplay"])
    def test_fit_point_count_is_the_rows_bar_writes(
        self, tmp_path, session_edf, rest_edf, capsys, phase, source
    ):
        # three epochs give 3 or 4 points, too few for the quartic, so the
        # session states its count and stops before bar runs
        doc = {"protocol": {"phase": phase, "epoch_times": EDF_EPOCHS[:3]},
               "session": {"commands": ["bar", "fit"]}}
        if source == "baseline_bar":
            doc["baseline_bar"] = 0.7
        if source == "baseline_recording":
            doc["input"] = {"baseline_recording": str(rest_edf[0])}
        cfg = write_config(tmp_path, doc)
        rc = run("session", "--config", str(cfg), "--input", str(session_edf[0]),
                 "--out", str(tmp_path / "s"))
        assert rc == cli.EXIT_VALIDATION
        count = int(re.search(r"would read (\d+) points", capsys.readouterr().err)[1])
        assert run("bar", "--config", str(cfg), "--input", str(session_edf[0]),
                   "--out", str(tmp_path / "o"), "--quiet") == 0
        rows = (tmp_path / "o" / "bar_points.csv").read_text().splitlines()[1:]
        assert count == len(rows) == 3 + (phase == "during_gameplay" and source != "none")

    @pytest.mark.parametrize("commands", [["psd", "synth"], ["session"], []])
    def test_unknown_command_exits_2_before_anything_runs(self, tmp_path, session_edf, capsys, commands):
        cfg = write_config(tmp_path, {"session": {"commands": commands}})
        with mock.patch.object(ingest, "read_edf_windows") as reader:
            rc = run("session", "--config", str(cfg), "--input", str(session_edf[0]),
                     "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION and reader.call_count == 0
        assert capsys.readouterr().err.startswith("error: session.commands must name some of")
        assert not (tmp_path / "o").exists()


class TestRunMeta:
    """Every invocation runs through one loop and writes one run_meta.json shape."""

    def run_in(self, tmp_path, session_edf, rest_edf, command):
        """Run command into tmp_path/o; fit and report find bar's files there."""
        out = tmp_path / "o"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_s": 4.0, "outputs": ["edf"]}))
        cfg = write_config(tmp_path, {"input": {"baseline_recording": str(rest_edf[0])},
                                      "protocol": {"phase": "during_gameplay", "epoch_times": EDF_EPOCHS}})
        recording = ["--input", str(session_edf[0])]
        if command in ("fit", "report"):
            assert run("bar", "--config", str(cfg), *recording, "--out", str(out), "--quiet") == 0
            (out / "run_meta.json").unlink()
        flags = {"synth": ["--spec", str(spec)], "fit": [], "report": []}.get(command, recording)
        return run(command, "--config", str(cfg), *flags, "--out", str(out), "--quiet")

    @pytest.mark.parametrize("command", ["synth", "psd", "bar", "fit", "topo", "report", "session"])
    def test_one_shape_listing_the_commands_that_ran(self, tmp_path, session_edf, rest_edf, command):
        assert self.run_in(tmp_path, session_edf, rest_edf, command) == 0
        meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
        assert list(meta) == ["command", "timestamp", "versions", "commands"]
        assert meta["command"] == command
        ran = SESSION if command == "session" else (command,)
        assert [(c["command"], c["exit_code"]) for c in meta["commands"]] == [(c, 0) for c in ran]
        assert all(list(c) == ["command", "exit_code", "wall_s"] and c["wall_s"] >= 0
                   for c in meta["commands"])

    def test_lone_fit_exit_4_writes_its_files_and_run_meta(self, tmp_path, monkeypatch):
        monkeypatch.setattr(regress, "_MAX_ITERATIONS", 1)
        # the power-law ridge series, which one iteration does not settle
        pts = tmp_path / "points.csv"
        rows = [(0.0, 0.701), (15.0, 1.084), (30.0, 1.295), (45.0, 1.742), (60.0, 2.149)]
        pts.write_text("\n".join(f"{x},{y}" for x, y in rows) + "\n")
        out = tmp_path / "o"
        assert run("fit", "--points", str(pts), "--out", str(out), "--quiet") == cli.EXIT_DIVERGED
        assert {"fit_4pl.json", "fit_quartic.json", "comparison.json"} <= {p.name for p in out.iterdir()}
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == "fit"
        assert [(c["command"], c["exit_code"]) for c in meta["commands"]] == [("fit", cli.EXIT_DIVERGED)]

    @pytest.mark.parametrize("command", ["synth", "psd", "bar", "fit", "topo", "report", "session"])
    def test_lone_command_exit_2_writes_nothing(self, tmp_path, session_edf, capsys, command):
        (tmp_path / "spec.json").write_text(json.dumps({"duration_s": 0.0}))
        (tmp_path / "points.csv").write_text("0,0.7\n1,0.8\n")
        cfg = write_config(tmp_path, {"protocol": {"epoch_times": []},
                                      "session": {"commands": ["psd", "bar"]}})
        flags = {"synth": ["--spec", str(tmp_path / "spec.json")],
                 "fit": ["--points", str(tmp_path / "points.csv")],
                 "report": []}.get(command, ["--input", str(session_edf[0])])
        rc = run(command, "--config", str(cfg), *flags, "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()
