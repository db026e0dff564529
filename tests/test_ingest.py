import json
import math
import mmap
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barstress import core, ingest, synth
from barstress.errors import (
    BadMagic,
    DigitalRangeDegenerate,
    EpochOutOfRange,
    IngestError,
    InvalidHeaderField,
    InvalidMontage,
    InvalidSampleCount,
    MalformedRow,
    MixedSamplingRates,
    NonNumericSample,
    PipelineError,
    TruncatedData,
    TruncatedHeader,
    UnknownChannelLabel,
)
from edf_records import relay_records
from handover import handed_samples
from written import joined


def small_montage(*labels):
    step = 0.9 / max(len(labels), 1)
    electrodes = tuple(
        core.ChannelInfo(lab, (-0.45 + step * i, 0.0), "eeg")
        for i, lab in enumerate(labels)
    )
    return core.Montage(electrodes=electrodes, name="test")


def edf_bytes(
    signals,
    record_duration="1",
    record_count=None,
    version=b"0       ",
    header_bytes=None,
    records=1,
):
    """Hand-built EDF writer, independent of the package's writer.

    signals: list of dicts with label, phys_min, phys_max, dig_min, dig_max,
    spr, and per-record sample values (digital ints).
    """
    ns = len(signals)
    count = records if record_count is None else record_count
    size = 256 * (ns + 1) if header_bytes is None else header_bytes

    def fx(text, width):
        return str(text).encode("ascii").ljust(width)

    head = version
    head += fx("patient", 80) + fx("rec", 80)
    head += fx("01.01.01", 8) + fx("00.00.00", 8)
    head += fx(size, 8) + b" " * 44
    head += fx(count, 8) + fx(record_duration, 8) + fx(ns, 4)

    for field, width in [
        ("label", 16), ("transducer", 80), ("unit", 8),
        ("phys_min", 8), ("phys_max", 8), ("dig_min", 8), ("dig_max", 8),
        ("prefilter", 80), ("spr", 8), ("reserved", 32),
    ]:
        for s in signals:
            head += fx(s.get(field, ""), width)

    payload = b""
    for r in range(records):
        for s in signals:
            for v in s["data"][r]:
                payload += struct.pack("<h", v)
    return head + payload


def simple_signal(label, data, phys=(-100, 100), dig=(-32768, 32767)):
    return {
        "label": label,
        "unit": "uV",
        "phys_min": phys[0],
        "phys_max": phys[1],
        "dig_min": dig[0],
        "dig_max": dig[1],
        "spr": len(data[0]),
        "data": data,
    }


class TestReadCsv:
    def test_minimal_two_channel_file(self):
        m = small_montage("A", "B")
        rec = ingest.read_csv(b"A,B\n1,2\n3,4\n5,6\n", ingest.CsvLayout(), 10.0, m)
        assert rec.labels == ("A", "B")
        np.testing.assert_array_equal(rec.samples, [[1, 3, 5], [2, 4, 6]])
        assert rec.sampling_rate == 10.0

    def test_non_numeric_sample(self):
        m = small_montage("A")
        with pytest.raises(NonNumericSample, match="abc"):
            ingest.read_csv(b"A\n1\nabc\n", ingest.CsvLayout(), 10.0, m)

    def test_nan_rejected(self):
        m = small_montage("A")
        with pytest.raises(NonNumericSample):
            ingest.read_csv(b"A\n1\nnan\n", ingest.CsvLayout(), 10.0, m)

    def test_wrong_field_count(self):
        m = small_montage("A", "B")
        with pytest.raises(MalformedRow):
            ingest.read_csv(b"A,B\n1,2\n3\n", ingest.CsvLayout(), 10.0, m)

    def test_unknown_label(self):
        m = small_montage("A", "B")
        with pytest.raises(UnknownChannelLabel):
            ingest.read_csv(b"A,Q\n1,2\n", ingest.CsvLayout(), 10.0, m)

    def test_duplicate_label(self):
        m = small_montage("A", "B")
        with pytest.raises(UnknownChannelLabel):
            ingest.read_csv(b"A,A\n1,2\n", ingest.CsvLayout(), 10.0, m)

    def test_columns_reordered_to_montage(self):
        m = small_montage("A", "B")
        rec = ingest.read_csv(b"B,A\n2,1\n", ingest.CsvLayout(), 10.0, m)
        assert rec.labels == ("A", "B")
        np.testing.assert_array_equal(rec.samples, [[1], [2]])

    def test_channel_subset_allowed(self):
        m = small_montage("A", "B", "C")
        rec = ingest.read_csv(b"C,A\n3,1\n", ingest.CsvLayout(), 10.0, m)
        assert rec.labels == ("A", "C")

    def test_time_column_checked_and_dropped(self):
        m = small_montage("A")
        layout = ingest.CsvLayout(time_column=0)
        rec = ingest.read_csv(b"time_s,A\n0.0,5\n0.1,6\n", layout, 10.0, m)
        assert rec.labels == ("A",)
        np.testing.assert_array_equal(rec.samples, [[5, 6]])
        with pytest.raises(MalformedRow, match="increasing"):
            ingest.read_csv(b"time_s,A\n0.1,5\n0.0,6\n", layout, 10.0, m)

    def test_headerless_requires_full_width(self):
        m = small_montage("A", "B")
        layout = ingest.CsvLayout(has_header=False)
        rec = ingest.read_csv(b"1,2\n", layout, 10.0, m)
        assert rec.labels == ("A", "B")
        with pytest.raises(MalformedRow):
            ingest.read_csv(b"1\n", layout, 10.0, m)

    def test_crlf_and_blank_lines(self):
        m = small_montage("A")
        rec = ingest.read_csv(b"A\r\n1\r\n\r\n2\r\n", ingest.CsvLayout(), 10.0, m)
        np.testing.assert_array_equal(rec.samples, [[1, 2]])

    def test_invalid_utf8(self):
        m = small_montage("A")
        with pytest.raises(MalformedRow):
            ingest.read_csv(b"A\n\xff\xfe\n", ingest.CsvLayout(), 10.0, m)


class TestWriteCsv:
    def test_empty_recording_gives_header_only(self):
        m = small_montage("A", "B")
        rec = core.Recording(
            samples=np.empty((2, 0)), sampling_rate=10.0, channels=m.electrodes
        )
        assert joined(ingest.write_csv(rec)) == b"A,B\n"

    def test_single_value(self):
        m = small_montage("A")
        rec = core.Recording(
            samples=np.array([[1.5]]), sampling_rate=10.0, channels=m.electrodes
        )
        assert joined(ingest.write_csv(rec)) == b"A\n1.5\n"

    def test_round_trip_exact(self):
        m = small_montage("w", "x", "y", "z")
        data = np.random.default_rng(5).normal(scale=37.0, size=(4, 1000))
        rec = core.Recording(samples=data, sampling_rate=500.0, channels=m.electrodes)
        back = ingest.read_csv(joined(ingest.write_csv(rec)), ingest.CsvLayout(), 500.0, m)
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_time_column_round_trip(self):
        m = small_montage("A")
        rec = core.Recording(
            samples=np.array([[1.0, 2.0, 3.0]]),
            sampling_rate=10.0,
            channels=m.electrodes,
        )
        layout = ingest.CsvLayout(time_column=0)
        blob = joined(ingest.write_csv(rec, layout))
        assert blob.startswith(b"time_s,A\n")
        back = ingest.read_csv(blob, layout, 10.0, m)
        np.testing.assert_array_equal(back.samples, rec.samples)

    @pytest.mark.parametrize("time_column", [0, 3])
    def test_time_column_first_and_last_round_trip(self, time_column):
        m = small_montage("A", "B", "C")
        data = np.random.default_rng(8).normal(scale=20.0, size=(3, 50))
        rec = core.Recording(samples=data, sampling_rate=100.0, channels=m.electrodes)
        layout = ingest.CsvLayout(time_column=time_column)
        blob = joined(ingest.write_csv(rec, layout))
        assert blob.split(b"\n", 1)[0].split(b",")[time_column] == b"time_s"
        back = ingest.read_csv(blob, layout, 100.0, m)
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_time_column_past_the_last_rejected_as_the_reader_does(self):
        m = small_montage("A", "B", "C")
        rec = core.Recording(samples=np.zeros((3, 4)), sampling_rate=10.0, channels=m.electrodes)
        blob = joined(ingest.write_csv(rec, ingest.CsvLayout(time_column=3)))
        for run in (
            lambda layout: ingest.write_csv(rec, layout),
            lambda layout: ingest.read_csv(blob, layout, 10.0, m),
        ):
            with pytest.raises(MalformedRow, match="^time_column 4 outside 4 columns$"):
                run(ingest.CsvLayout(time_column=4))


def read_csv_reference(blob, layout, fs, montage):
    """read_csv with numpy's loadtxt bypassed: every line goes through
    the field-by-field parser."""
    with mock.patch.object(ingest, "_load_rows", return_value=None):
        return ingest.read_csv(blob, layout, fs, montage)


def csv_outcome(read, *args):
    """Labels, shape and sample bytes of a parse, or its error type and message."""
    try:
        rec = read(*args)
    except PipelineError as exc:
        return type(exc), str(exc)
    return rec.labels, rec.samples.shape, rec.samples.tobytes()


CSV_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
CSV_JUNK = st.sampled_from([
    "", " ", "abc", "nan", "-inf", "1e400", "1_0", "\u0661.\u0665", " 2 ", "\t3",
    "0x10", "+.5", "5.", "1e5", "1,5", "1;5", "1|5", "1 5", "\xa07", "\x00", "'1'", '"1"',
])


@st.composite
def csv_documents(draw):
    """A CSV text with mostly valid rows; a row now and then carries a
    junk field or one field too few or too many."""
    delim = draw(st.sampled_from([",", ";", " ", "|"]))
    has_header = draw(st.booleans())
    time_column = draw(st.none() | st.integers(0, 3))
    width = draw(st.integers(1, 4))
    labels = draw(st.permutations(["A", "B", "C", "D"]))[:width]
    rows = []
    for i in range(draw(st.integers(0, 6))):
        row = draw(st.lists(CSV_NUMBERS, min_size=width, max_size=width))
        if time_column is not None and time_column < width and draw(st.integers(0, 4)):
            row[time_column] = repr(0.1 * i)
        if draw(st.integers(0, 7)) == 0:
            row[draw(st.integers(0, width - 1))] = draw(CSV_JUNK)
        if draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        rows.append(delim.join(row))
    # repeats of drawn rows, good or bad, so that each is parsed once
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    lines = ([delim.join(labels)] if has_header else []) + rows
    blanks = st.sampled_from(["", " ", "\t", delim * 2 if delim == " " else ""])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blanks))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    layout = ingest.CsvLayout(
        delimiter=delim, has_header=has_header, time_column=time_column
    )
    channels = sorted(lab for i, lab in enumerate(labels) if i != time_column) or ["A"]
    return text.encode("utf-8"), layout, small_montage(*channels)


def whole_text_lines(blob):
    """The non-blank lines of the decoded input, as str.splitlines finds them."""
    return [ln for ln in blob.decode("utf-8").splitlines() if ln.strip() != ""]


def expanded_lines(blob):
    """The non-blank lines of the input, in file order, from its distinct lines."""
    lines, order = ingest._distinct_lines(blob)
    return [ingest._text(lines[k]) for k in order]


class TestReadCsvFastPath:
    @settings(max_examples=400, deadline=None)
    @given(csv_documents())
    def test_same_outcome_as_reference_parser(self, doc):
        blob, layout, m = doc
        assert csv_outcome(ingest.read_csv, blob, layout, 50.0, m) == csv_outcome(
            read_csv_reference, blob, layout, 50.0, m
        )

    @settings(max_examples=100, deadline=None)
    @given(csv_documents())
    def test_distinct_lines_expand_to_the_text_lines(self, doc):
        blob = doc[0]
        assert expanded_lines(blob) == whole_text_lines(blob)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(st.sampled_from("1,; \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029"), max_size=8),
            max_size=6,
        ),
        st.lists(st.integers(0, 5), max_size=6),
    )
    def test_repeated_lines_split_as_text(self, pieces, repeats):
        # every str.splitlines break, ASCII or not, inside lines that repeat
        pieces += [pieces[i % len(pieces)] for i in repeats] if pieces else []
        blob = "\n".join(pieces).encode("utf-8")
        assert expanded_lines(blob) == whole_text_lines(blob)

    @pytest.mark.parametrize(
        "text, expected",
        [
            # blank lines, repeated, are skipped
            ("A,B\n1,2\n\n3,4\n\n \n1,2\n\n", [[1.0, 3.0, 1.0], [2.0, 4.0, 2.0]]),
            # one line ending in \n here and \r\n there
            ("A,B\r\n1,2\r\n1,2\n3,4\r\n1,2\n", [[1.0, 1.0, 3.0, 1.0], [2.0, 2.0, 4.0, 2.0]]),
            # lines of what str.isspace counts as space are blank
            ("A,B\n1,2\n\x1f\n \x1f\t\n3,4\n\x1f\n", [[1.0, 3.0], [2.0, 4.0]]),
            # a repeated line that str.splitlines breaks in two
            ("A,B\n1,2\x0b3,4\n1,2\x0b3,4\n", [[1.0, 3.0, 1.0, 3.0], [2.0, 4.0, 2.0, 4.0]]),
            ("A,B\n1,2\u20283,4\n1,2\u20283,4\n", [[1.0, 3.0, 1.0, 3.0], [2.0, 4.0, 2.0, 4.0]]),
            # the first bad row is named, not a later repeat of it
            ("A,B\n1,2\nx,3\n4,5\nx,3\n", (NonNumericSample, "row 1 column 0: 'x'")),
            ("A,B\n1,2\n1,nan\n1,nan\n", (NonNumericSample, "row 1 column 1 is not finite")),
            ("A,B\n1,2\n3\n1,2\n3\n", (MalformedRow, "row 1 has 1 fields, expected 2")),
        ],
    )
    def test_repeated_lines(self, text, expected):
        m = small_montage("A", "B")
        blob = text.encode("utf-8")
        got = csv_outcome(ingest.read_csv, blob, ingest.CsvLayout(), 10.0, m)
        assert got == csv_outcome(read_csv_reference, blob, ingest.CsvLayout(), 10.0, m)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got[2] == np.array(expected).tobytes()

    def test_header_repeated_as_data(self):
        m = small_montage("1", "2")
        rec = ingest.read_csv(b"1,2\n3,4\n1,2\n", ingest.CsvLayout(), 10.0, m)
        np.testing.assert_array_equal(rec.samples, [[3, 1], [4, 2]])

    def test_invalid_utf8_in_a_repeated_line(self):
        blob = b"A,B\n1,2\n3,\xff4\n1,2\n3,\xff4\n"
        with pytest.raises(UnicodeDecodeError) as raw:
            blob.decode("utf-8")
        with pytest.raises(MalformedRow) as exc:
            ingest.read_csv(blob, ingest.CsvLayout(), 10.0, small_montage("A", "B"))
        assert str(exc.value) == f"input is not valid UTF-8: {raw.value}"

    @pytest.mark.parametrize(
        "text, delimiter, expected",
        [
            ("A,B\n1_0,2\n", ",", [[10.0], [2.0]]),
            ("A,B\n\u0661.\u0665,2\n", ",", [[1.5], [2.0]]),
            ("A,B\n1,2\n \t \n3,4\n", ",", [[1.0, 3.0], [2.0, 4.0]]),
            ("A B\n1  2\n", " ", MalformedRow),
            ("A B\n1 2\n3  4\n", " ", MalformedRow),
        ],
    )
    def test_fallback_cases(self, text, delimiter, expected):
        m = small_montage("A", "B")
        layout = ingest.CsvLayout(delimiter=delimiter)
        blob = text.encode("utf-8")
        got = csv_outcome(ingest.read_csv, blob, layout, 10.0, m)
        assert got == csv_outcome(read_csv_reference, blob, layout, 10.0, m)
        if isinstance(expected, type):
            assert got[0] is expected
        else:
            assert got[2] == np.array(expected).tobytes()

    def test_fast_path_declines_what_it_cannot_decide(self):
        header = ["A", "B"]
        assert ingest._load_rows(["1_0,2"], ",", header) is None
        assert ingest._load_rows(["1,nan"], ",", header) is None
        assert ingest._load_rows(["1,2,3"], ",", header) is None
        assert ingest._load_rows(["1  2"], " ", header) is None
        np.testing.assert_array_equal(
            ingest._load_rows(["1,2", "3,4"], ",", header), [[1, 2], [3, 4]]
        )

    @pytest.mark.parametrize(
        "blob, layout",
        [
            (b"B,A\n1,2\n3,4\n", ingest.CsvLayout()),
            (b"B,t,A\n1,0,2\n3,1,4\n", ingest.CsvLayout(time_column=1)),
        ],
    )
    def test_samples_handed_over_without_copy(self, blob, layout):
        rec, handed = handed_samples(
            ingest, ingest.read_csv, blob, layout, 10.0, small_montage("A", "B")
        )
        assert rec.labels == ("A", "B")
        assert rec.samples is handed


def newline_lines(blob):
    """The lines of blob as the windowed read counts them, one per \\n,
    each with its line end; a last line without one included."""
    return re.findall(rb"[^\n]*\n|[^\n]+\Z", blob)


def window_falls_back(blob, stop):
    """Whether read_csv reads blob whole for a window that ends at line
    stop: the file has fewer lines, or a line before stop is not ASCII,
    holds a byte str.splitlines or str.isspace treats apart, a lone \\r,
    or nothing but spaces and tabs."""
    lines = newline_lines(blob)
    prefix = b"".join(lines[:stop])
    return (
        len(lines) < stop
        or not prefix.isascii()
        or any(b in prefix for b in (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f"))
        or b"\r" in prefix.replace(b"\r\n", b"")
        or any(not ln.strip(b" \t\r\n") for ln in lines[:stop])
    )


def epoch_outcome(read, t, window_len):
    """Labels and sample bytes of the epoch at t cut from read(), or the
    error type and message of the read or the cut."""
    proto = core.SessionProtocol(phase="baseline", epoch_times=(t,))
    try:
        (epoch,) = core.slice_epochs(read(), proto, window_len)
    except PipelineError as exc:
        return type(exc), str(exc)
    return epoch.labels, epoch.samples.tobytes()


FS = 50.0
# Scan chunk sizes: one byte, shorter than most lines, and the default.
SCAN_BYTES = st.sampled_from([1, 5, 1 << 20])


class TestReadCsvWindow:
    @settings(max_examples=400, deadline=None)
    @given(csv_documents(), st.integers(0, 16), st.integers(2, 12), SCAN_BYTES)
    def test_same_epoch_or_error_as_whole_read(self, doc, start, length, scan_bytes):
        # at 50 Hz, 0.01 s is half a sample
        blob, layout, m = doc
        t, window_len = start / 100, length / 100
        lo, hi = ingest._window_samples((t, t + window_len), FS)
        first, stop = layout.has_header + lo, layout.has_header + hi

        def whole():
            return ingest.read_csv(blob, layout, FS, m)

        def windowed():
            return ingest.read_csv(blob, layout, FS, m, window=(t, t + window_len))

        with mock.patch.object(ingest, "_SCAN_BYTES", scan_bytes):
            got = csv_outcome(windowed)
            want = csv_outcome(whole)
            if window_falls_back(blob, stop):
                assert got == want
                assert isinstance(got[0], type) or windowed().start_offset == 0.0
            elif isinstance(got[0], type):
                assert got == want
            else:
                # header and window lines parsed alone give the same samples
                lines = newline_lines(blob)
                alone = b"".join(lines[: layout.has_header] + lines[first:stop])
                assert got == csv_outcome(ingest.read_csv, alone, layout, FS, m)
                assert windowed().start_offset == lo / FS
            whole_epoch = epoch_outcome(whole, t, window_len)
            if not isinstance(whole_epoch[0], type) or window_falls_back(blob, stop):
                assert epoch_outcome(windowed, t, window_len) == whole_epoch

    @settings(max_examples=200, deadline=None)
    @given(csv_documents(), st.integers(0, 6), st.integers(1, 4), st.binary(max_size=40), SCAN_BYTES)
    def test_bytes_after_the_window_are_not_read(self, doc, lo, n, junk, scan_bytes):
        blob, layout, m = doc
        stop = layout.has_header + lo + n
        kept = b"".join(newline_lines(blob)[:stop])
        window = (lo / FS, (lo + n) / FS)
        with mock.patch.object(ingest, "_SCAN_BYTES", scan_bytes):
            got = csv_outcome(ingest.read_csv, blob, layout, FS, m, window)
            if window_falls_back(blob, stop) or not kept.endswith(b"\n") or isinstance(got[0], type):
                return
            assert csv_outcome(ingest.read_csv, kept + junk, layout, FS, m, window) == got

    # Ten rows of two channels at 10 Hz; the window (0.2, 0.5) holds rows 2 to 4.
    ROWS = [f"{i}.5,{-i}" for i in range(10)]

    def read_rows(self, rows, window=(0.2, 0.5), layout=ingest.CsvLayout(), head="A,B\n"):
        blob = (head + "\n".join(rows) + "\n").encode("utf-8", "surrogateescape")
        return csv_outcome(ingest.read_csv, blob, layout, 10.0, small_montage("A", "B"), window)

    @pytest.mark.parametrize(
        "row, text, error",
        [
            (7, "x,1", (NonNumericSample, "row 7 column 0: 'x'")),
            (7, "nan,1", (NonNumericSample, "row 7 column 0 is not finite")),
            (7, "1,2,3", (MalformedRow, "row 7 has 3 fields, expected 2")),
            (7, "1", (MalformedRow, "row 7 has 1 fields, expected 2")),
            (9, "1,\udcff", (MalformedRow, "input is not valid UTF-8")),
            (1, "1,x", (NonNumericSample, "row 1 column 1: 'x'")),
        ],
        ids=["junk-after", "nan-after", "wide-after", "narrow-after", "non-ascii-after", "junk-before"],
    )
    def test_defect_outside_the_window_no_longer_raises(self, row, text, error):
        rows = list(self.ROWS)
        rows[row] = text
        whole = self.read_rows(rows, window=None)
        assert whole[0] is error[0] and whole[1].startswith(error[1])
        assert self.read_rows(rows) == self.read_rows(self.ROWS)
        np.testing.assert_array_equal(
            np.frombuffer(self.read_rows(rows)[2]).reshape(2, 3), [[2.5, 3.5, 4.5], [-2, -3, -4]]
        )

    def test_time_column_checked_inside_the_window_only(self):
        rows = [f"{t},{i}.5,{-i}" for i, t in enumerate([0, 1, 2, 3, 4, 5, 6, 7, 0, 9])]
        layout = ingest.CsvLayout(time_column=0)
        head = "t,A,B\n"
        assert self.read_rows(rows, None, layout, head) == (
            MalformedRow, "time column is not strictly increasing"
        )
        assert self.read_rows(rows, (0.2, 0.5), layout, head)[2] == self.read_rows(self.ROWS)[2]
        rows[3] = "1,3.5,-3"
        assert self.read_rows(rows, (0.2, 0.5), layout, head) == (
            MalformedRow, "time column is not strictly increasing"
        )

    @pytest.mark.parametrize(
        "defects, error",
        [
            ({3: "x,1"}, (NonNumericSample, "row 3 column 0: 'x'")),
            ({4: "1"}, (MalformedRow, "row 4 has 1 fields, expected 2")),
            # a defect in the window reads the file whole, which names the first
            ({0: "1,x", 3: "x,1"}, (NonNumericSample, "row 0 column 1: 'x'")),
            ({3: "x,1", 8: "1"}, (MalformedRow, "row 8 has 1 fields, expected 2")),
        ],
    )
    def test_defect_in_the_window_raises_the_whole_read_error(self, defects, error):
        rows = [defects.get(i, r) for i, r in enumerate(self.ROWS)]
        assert self.read_rows(rows) == self.read_rows(rows, window=None) == error

    @pytest.mark.parametrize(
        "row, text, insert",
        [
            (1, "", True),
            (1, " \t", True),
            (4, "", True),
            (1, "1.5,-1\r1.5,-1", False),
            (0, "\u0661.5,0", False),
            (1, "1.5,-1\x0c", False),
        ],
        ids=["blank", "spaces", "blank-in-window", "lone-cr", "non-ascii", "form-feed"],
    )
    def test_unplain_prefix_reads_whole(self, row, text, insert):
        rows = list(self.ROWS)
        if insert:
            rows.insert(row, text)
        else:
            rows[row] = text
        blob = ("A,B\n" + "\n".join(rows) + "\n").encode("utf-8")
        m = small_montage("A", "B")
        rec = ingest.read_csv(blob, ingest.CsvLayout(), 10.0, m, window=(0.2, 0.5))
        whole = ingest.read_csv(blob, ingest.CsvLayout(), 10.0, m)
        assert rec.start_offset == 0.0
        assert rec.samples.tobytes() == whole.samples.tobytes()

    @pytest.mark.parametrize(
        "blob, error",
        [
            (b"", (MalformedRow, "empty input but layout declares a header")),
            (b"A,B\n", (EpochOutOfRange, "epoch at 0.0 s needs samples [0, 5) but recording has 0")),
            (b"A,B\n1,2\n3,4\n", (EpochOutOfRange, "epoch at 0.0 s needs samples [0, 5) but recording has 2")),
        ],
    )
    def test_file_ending_before_the_window_reads_whole(self, blob, error):
        m = small_montage("A", "B")
        def read():
            return ingest.read_csv(blob, ingest.CsvLayout(), 10.0, m, window=(0.0, 0.5))

        assert epoch_outcome(read, 0.0, 0.5) == error

    def test_line_ends_and_start_offset(self):
        m = small_montage("A", "B")
        for end in ("\n", "\r\n"):
            blob = ("A,B" + end + end.join(self.ROWS)).encode()  # no line end after the last row
            rec = ingest.read_csv(blob, ingest.CsvLayout(), 10.0, m, window=(0.65, 1.0))
            assert rec.start_offset == 0.6
            np.testing.assert_array_equal(rec.samples, [[6.5, 7.5, 8.5, 9.5], [-6, -7, -8, -9]])
        headerless = "\r\n".join(self.ROWS).encode()
        rec = ingest.read_csv(headerless, ingest.CsvLayout(has_header=False), 10.0, m, window=(0.0, 0.2))
        assert rec.start_offset == 0.0
        np.testing.assert_array_equal(rec.samples, [[0.5, 1.5], [0, -1]])

    @pytest.mark.parametrize("scan_bytes", [1, 7, 1 << 20])
    def test_memory_map_reads_like_bytes(self, tmp_path, scan_bytes):
        m = small_montage("A", "B", "C")
        rng = np.random.default_rng(5)
        rec = core.Recording(
            channels=m.electrodes, samples=rng.normal(scale=30.0, size=(3, 400)), sampling_rate=100.0
        )
        blob = joined(ingest.write_csv(rec))
        path = tmp_path / "r.csv"
        path.write_bytes(blob)
        with mock.patch.object(ingest, "_SCAN_BYTES", scan_bytes):
            # the last window runs past the end, so both read whole
            for window in [(0.0, 1.0), (1.234, 2.5), (3.0, 4.0), (3.5, 4.5)]:
                with path.open("rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                    mapped = ingest.read_csv(mm, ingest.CsvLayout(), 100.0, m, window=window)
                direct = ingest.read_csv(blob, ingest.CsvLayout(), 100.0, m, window=window)
                assert mapped.samples.tobytes() == direct.samples.tobytes()
                assert mapped.start_offset == direct.start_offset

    @pytest.mark.parametrize("window", [(-1.0, 2.0), (3.0, 2.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_window_rejected(self, window):
        with pytest.raises(EpochOutOfRange):
            ingest.read_csv(b"A,B\n1,2\n", ingest.CsvLayout(), 10.0, small_montage("A", "B"), window=window)


def windows_outcome(read, *args):
    """Start offset, labels, shape and sample bytes of each Recording of a
    windowed read, or its error type and message."""
    try:
        recs = read(*args)
    except PipelineError as exc:
        return type(exc), str(exc)
    return [(rec.start_offset, rec.labels, rec.samples.shape, rec.samples.tobytes()) for rec in recs]


def csv_windows_model(blob, layout, fs, m, windows):
    """windows_outcome of read_csv_windows from whole reads alone: a window
    whose lines window_falls_back accepts is its header and window lines
    read whole, with the window's start; any other window, or one whose
    lines fail to parse, is the whole file read whole, or its error."""
    whole = csv_outcome(ingest.read_csv, blob, layout, fs, m)
    lines = newline_lines(blob)
    out = []
    for window in windows:
        lo, hi = ingest._window_samples(window, fs)
        first, stop = layout.has_header + lo, layout.has_header + hi
        alone = (PipelineError,)
        if not window_falls_back(blob, stop):
            alone_blob = b"".join(lines[: layout.has_header] + lines[first:stop])
            alone = csv_outcome(ingest.read_csv, alone_blob, layout, fs, m)
        if not isinstance(alone[0], type):
            out.append((lo / fs, *alone))
        elif isinstance(whole[0], type):
            return whole
        else:
            out.append((0.0, *whole))
    return out


# Forty rows of two channels at 10 Hz, 4 s.
ROWS_40 = [f"{i}.5,{-i}" for i in range(40)]


class TestReadCsvWindows:
    @settings(max_examples=300, deadline=None)
    @given(
        csv_documents(),
        st.lists(st.tuples(st.integers(0, 16), st.integers(2, 12)), min_size=1, max_size=4),
        SCAN_BYTES,
    )
    def test_same_as_whole_reads(self, doc, spans, scan_bytes):
        blob, layout, m = doc
        windows = [(start / 100, (start + length) / 100) for start, length in spans]
        with mock.patch.object(ingest, "_SCAN_BYTES", scan_bytes):
            got = windows_outcome(ingest.read_csv_windows, blob, layout, FS, m, windows)
        assert got == csv_windows_model(blob, layout, FS, m, windows)

    def read(self, rows, windows, scan_bytes):
        """read_csv_windows of rows at 10 Hz, and the whole read."""
        blob = ("A,B\n" + "\n".join(rows) + "\n").encode()
        m = small_montage("A", "B")
        with mock.patch.object(ingest, "_SCAN_BYTES", scan_bytes):
            recs = ingest.read_csv_windows(blob, ingest.CsvLayout(), 10.0, m, windows)
        whole = ingest.read_csv(blob, ingest.CsvLayout(), 10.0, m)
        return recs, whole

    def check(self, recs, whole, windows, windowed):
        """Each Recording is the whole read's rows from its start_offset on,
        bit for bit: a windowed one starts at its window, any other is the
        whole read. Every epoch cut from it is the one slice_epochs cuts
        from the whole read, or the same error."""
        for rec, (t0, t1), inside in zip(recs, windows, windowed):
            lo = round(rec.start_offset * 10.0)
            assert rec.start_offset == (round(t0 * 10.0) / 10.0 if inside else 0.0)
            assert rec.n_samples == (round((t1 - t0) * 10.0) if inside else whole.n_samples)
            assert rec.samples.tobytes() == whole.samples[:, lo : lo + rec.n_samples].tobytes()
            assert epoch_outcome(lambda: rec, t0, t1 - t0) == epoch_outcome(lambda: whole, t0, t1 - t0)

    @pytest.mark.parametrize("scan_bytes", [1, 7, 1 << 20])
    def test_overlapping_windows(self, scan_bytes):
        windows = [(0.2, 0.7), (0.5, 1.0), (0.8, 1.3), (3.5, 4.0)]
        recs, whole = self.read(ROWS_40, windows, scan_bytes)
        self.check(recs, whole, windows, [True] * 4)

    @pytest.mark.parametrize("scan_bytes", [1, 7, 1 << 20])
    @pytest.mark.parametrize("text", ["12.5,-12\x0c", "\u0661.5,-12"], ids=["form-feed", "non-ascii"])
    def test_unplain_line_between_windows(self, scan_bytes, text):
        # the first window ends before row 12, the others after it
        rows = ROWS_40[:12] + [text] + ROWS_40[13:]
        windows = [(0.2, 0.7), (2.0, 2.5), (3.0, 3.5)]
        recs, whole = self.read(rows, windows, scan_bytes)
        self.check(recs, whole, windows, [True, False, False])
        assert recs[1] is recs[2]  # one whole read for both

    @pytest.mark.parametrize("scan_bytes", [1, 7, 1 << 20])
    def test_malformed_row_in_the_second_window_only(self, scan_bytes):
        rows = ROWS_40[:21] + ["x,1"] + ROWS_40[22:]
        with pytest.raises(NonNumericSample, match=re.escape("row 21 column 0: 'x'")):
            self.read(rows, [(0.2, 0.7), (2.0, 2.5), (3.0, 3.5)], scan_bytes)

    @pytest.mark.parametrize("scan_bytes", [1, 7, 1 << 20])
    def test_file_ending_inside_the_last_window(self, scan_bytes):
        windows = [(0.2, 0.7), (2.0, 2.5), (3.8, 4.3)]
        recs, whole = self.read(ROWS_40, windows, scan_bytes)
        self.check(recs, whole, windows, [True, True, False])
        assert epoch_outcome(lambda: recs[2], 3.8, 0.5) == (
            EpochOutOfRange, "epoch at 3.8 s needs samples [38, 43) but recording has 40"
        )

    @pytest.mark.parametrize("scan_bytes", [1, 7, 1 << 12, 1 << 20])
    def test_five_windows_scan_the_file_at_most_once(self, scan_bytes):
        m = small_montage("A", "B", "C")
        rng = np.random.default_rng(9)
        samples = rng.normal(scale=30.0, size=(3, 3000))
        blob = joined(ingest.write_csv(core.Recording(channels=m.electrodes, samples=samples, sampling_rate=100.0)))
        windows = [(t, t + 1.0) for t in (0.0, 7.0, 14.0, 21.0, 29.0)]
        scanned = []
        plain_lines = ingest._plain_lines

        def counting(text, ends):
            scanned.append(len(text))
            return plain_lines(text, ends)

        with mock.patch.object(ingest, "_SCAN_BYTES", scan_bytes), \
                mock.patch.object(ingest, "_plain_lines", counting):
            recs = ingest.read_csv_windows(blob, ingest.CsvLayout(), 100.0, m, windows)
        assert [r.start_offset for r in recs] == [t for t, _ in windows]
        assert 0.9 * len(blob) < sum(scanned) <= len(blob)


def write_csv_reference(recording, layout):
    """write_csv as one repr per value, row by row."""
    lines = []
    labels = list(recording.labels)
    if layout.time_column is not None:
        labels.insert(layout.time_column, "time_s")
    if layout.has_header:
        lines.append(layout.delimiter.join(labels))
    for i, row in enumerate(recording.samples.T):
        fields = [repr(float(v)) for v in row]
        if layout.time_column is not None:
            fields.insert(layout.time_column, repr(i / recording.sampling_rate))
        lines.append(layout.delimiter.join(fields))
    return "".join(line + "\n" for line in lines).encode("utf-8")


LAYOUTS = [
    ingest.CsvLayout(),
    ingest.CsvLayout(time_column=0),
    ingest.CsvLayout(delimiter=";", time_column=1),
    # the time column last
    ingest.CsvLayout(delimiter="%", has_header=False, time_column=3),
    # two UTF-8 bytes
    ingest.CsvLayout(delimiter="§", time_column=2),
]


class TestWriteCsvBlocks:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bytes_equal_per_value_repr(self, layout):
        m = small_montage("A", "B", "C")
        n = 2 * ingest._CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(12)
        samples = np.stack([
            rng.uniform(0.5e-5, 2e-5, n) * rng.choice([-1, 1], n),
            rng.uniform(0.5e16, 2e16, n),
            rng.normal(scale=40.0, size=n),
        ])
        samples[:, :6] = [
            [1e-5, 9.999999999999999e-06, 1.0000000000000001e-05, 1e-4, -0.0, 5e-324],
            [1e16, 9999999999999998.0, 1.0000000000000002e16, 1e15, 1e17, 0.0],
            [0.1, 1 / 3, 2.0**60, -1e-7, 123.456, 1.7976931348623157e308],
        ]
        rec = core.Recording(samples=samples, sampling_rate=500.0, channels=m.electrodes)
        assert joined(ingest.write_csv(rec, layout)) == write_csv_reference(rec, layout)

    @pytest.mark.parametrize("layout, shape", [
        *(pytest.param(layout, "signed_zero", id=f"layout{i}") for i, layout in enumerate(LAYOUTS)),
        pytest.param(ingest.CsvLayout(), "constant", id="constant"),
        pytest.param(ingest.CsvLayout(time_column=0), "constant", id="constant-time-column"),
        pytest.param(ingest.CsvLayout(), "long", id="longer-than-a-block"),
        pytest.param(ingest.CsvLayout(), "noisy", id="noisy"),
    ])
    def test_periodic_recording(self, layout, shape):
        m = small_montage("A", "B", "C")
        period, n = periodic_samples(shape)
        one = core.Recording(samples=period, sampling_rate=500.0, channels=m.electrodes)
        rec = core.Recording(samples=repeated(period, n), sampling_rate=500.0, channels=m.electrodes)
        chunks = ingest.write_csv(one, layout, n)
        assert joined(chunks) == joined(ingest.write_csv(rec, layout)) == write_csv_reference(rec, layout)
        # the period's rows are formatted once; a time column makes every row distinct
        assert rows_formatted(chunks) == (one.n_samples if layout.time_column is None else n)


def periodic_samples(shape):
    """(period, n): one period of a 3-channel recording of the named
    shape, and the recording's length, which is no multiple of it. A
    noisy recording is its own period."""
    rng = np.random.default_rng(3)
    if shape == "noisy":
        return rng.normal(scale=40.0, size=(3, 5000)), 5000
    rows, n = {
        # 2000 does not divide the block size
        "signed_zero": (2000, 5 * 2000 - 7),
        "constant": (1, 5000),
        # the tail is one whole block of the period and part of the next
        "long": (5000, 2 * 5000 + ingest._CSV_BLOCK_ROWS + 404),
    }[shape]
    assert ingest._CSV_BLOCK_ROWS % 2000 and ingest._CSV_BLOCK_ROWS < 5000
    period = rng.normal(scale=40.0, size=(3, rows))
    if shape == "signed_zero":
        # rows 0 and 1 differ only in the sign of a zero, which prints apart
        period[:, 0] = [0.0, 1.5, -2.0]
        period[:, 1] = [-0.0, 1.5, -2.0]
    return period, n


def repeated(period, n):
    """n columns of period, repeated."""
    return np.tile(period, -(-n // period.shape[1]))[:, :n]


def synth_recording(montage, duration, noise_floor=0.0, one_period=False):
    """The benchmark's baseline spec: alpha 4.329 and beta 3.034 uV^2."""
    bands = ((core.DEFAULT_BANDS["alpha"], 4.329), (core.DEFAULT_BANDS["beta"], 3.034))
    spec = synth.SynthSpec(duration=duration, sampling_rate=500.0, montage=montage,
                           band_targets=bands, noise_floor=noise_floor, seed=17)
    return synth.synth_eeg(spec, one_period=one_period)


def chunk_sources(chunks):
    """The distinct buffers the chunks after the header slice, by identity."""
    return {id(c.obj): c.obj for c in chunks[1:]}


def rows_formatted(chunks):
    """The lines in the distinct buffers the chunks after the header slice."""
    return sum(bytes(text).count(b"\n") for text in chunk_sources(chunks).values())


class TestChunks:
    @pytest.mark.parametrize("duration, noise_floor, layout", [
        (5.0, 0.0, ingest.CsvLayout()),
        (3.0, 0.5, ingest.CsvLayout()),
        (5.0, 0.0, ingest.CsvLayout(time_column=0)),
        (3.0, 0.5, ingest.CsvLayout(delimiter=";", has_header=False, time_column=30)),
        (1.5, 0.0, ingest.CsvLayout()),
        (0.002, 0.0, ingest.CsvLayout()),
        (0.002, 0.0, ingest.CsvLayout(time_column=4)),
        # two and a half 4 s periods
        (10.0, 0.0, ingest.CsvLayout()),
    ])
    def test_joined_chunks_are_the_written_bytes(self, montage, duration, noise_floor, layout):
        rec = synth_recording(montage, duration, noise_floor)
        one = synth_recording(montage, duration, noise_floor, one_period=True)
        n = rec.n_samples
        csv = ingest.write_csv(one, layout, n)
        assert joined(csv) == joined(ingest.write_csv(rec, layout)) == write_csv_reference(rec, layout)
        periodic = noise_floor == 0.0 and layout.time_column is None
        assert rows_formatted(csv) == (min(n, 2000) if periodic else n)
        edf = ingest.write_edf(one, n)
        assert joined(edf) == joined(ingest.write_edf(rec))

    def test_periodic_120s_spec(self, montage):
        rec = synth_recording(montage, 120.0)
        period = synth_recording(montage, 120.0, one_period=True)
        chunks = ingest.write_csv(period, ingest.CsvLayout(), rec.n_samples)
        blob = joined(chunks)
        assert blob == joined(ingest.write_csv(rec))
        # one 4 s period formatted once, then every period a slice of it
        head, body = ingest.write_csv(period)
        assert blob == head + bytes(body) * 30
        assert len(chunks) == 31 and [len(s) for s in chunk_sources(chunks).values()] == [len(body)]

    def test_unrepeated_text_held_once(self, montage):
        rec = synth_recording(montage, 20.0, noise_floor=0.5)
        chunks = ingest.write_csv(rec)
        sources = chunk_sources(chunks)
        assert len(sources) == -(-rec.n_samples // ingest._CSV_BLOCK_ROWS)
        assert sum(map(len, sources.values())) == len(joined(chunks)) - len(chunks[0])

    @pytest.mark.parametrize("block_rows", [13, 1000])
    @pytest.mark.parametrize("noise_floor", [0.0, 0.5])
    def test_runs_cut_at_block_boundaries(self, montage, monkeypatch, block_rows, noise_floor):
        rec = synth_recording(montage, 5.0, noise_floor)
        one = synth_recording(montage, 5.0, noise_floor, one_period=True)
        layout = ingest.CsvLayout(time_column=1) if noise_floor else ingest.CsvLayout()
        monkeypatch.setattr(ingest, "_CSV_BLOCK_ROWS", block_rows)
        chunks = ingest.write_csv(one, layout, rec.n_samples)
        assert joined(chunks) == write_csv_reference(rec, layout)
        distinct = 2000 if noise_floor == 0.0 else rec.n_samples
        assert len(chunk_sources(chunks)) == -(-distinct // block_rows)
        # one slice or more of each block's text, each ending on a line end
        assert all(bytes(c).endswith(b"\n") for c in chunks[1:])

    def test_written_without_sorting(self, montage, monkeypatch):
        recs = [synth_recording(montage, 20.0, one_period=True),
                synth_recording(montage, 20.0, noise_floor=0.5, one_period=True)]

        def refuse(*args, **kwargs):
            raise AssertionError("write_csv sorted")

        for name in ("unique", "sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, refuse)
        for rec in recs:
            ingest.write_csv(rec, ingest.CsvLayout(), 10000)

    @pytest.mark.parametrize("shape", ["signed_zero", "constant", "long", "noisy"])
    def test_edf_buffers_hold_one_period(self, shape):
        m = small_montage("A", "B", "C")
        period, n = periodic_samples(shape)
        one = core.Recording(samples=period, sampling_rate=500.0, channels=m.electrodes)
        rec = core.Recording(samples=repeated(period, n), sampling_rate=500.0, channels=m.electrodes)
        head, *body = ingest.write_edf(one, n)
        assert relay_records(head + joined(body), n) == write_edf_reference(rec)
        # views of one buffer, never copied into a joined bytes object
        assert all(isinstance(c, memoryview) for c in body)
        (digital,) = chunk_sources([head, *body]).values()
        assert isinstance(digital, np.ndarray) and digital.dtype == np.dtype("<i2")
        # a period that is not a whole number of 1 s records is the recording
        whole = one.n_samples % 500 == 0 and n % 500 == 0
        assert digital.nbytes == 2 * 3 * (one.n_samples if whole else n)

    @pytest.mark.parametrize("write", [ingest.write_csv, ingest.write_edf], ids=["csv", "edf"])
    @pytest.mark.parametrize("columns, n", [
        pytest.param(20, -5, id="negative"),
        pytest.param(20, -20, id="minus-the-length"),
        pytest.param(0, 10, id="from-no-samples"),
    ])
    def test_length_checked_before_writing(self, write, columns, n):
        m = small_montage("A", "B")
        rec = core.Recording(samples=np.ones((2, columns)), sampling_rate=10.0, channels=m.electrodes)
        with pytest.raises(InvalidSampleCount, match=f"^cannot write {n} samples of a recording of {columns}$"):
            write(rec, n_samples=n)


class TestParseEdfHeader:
    def test_parses_hand_built_file(self):
        sig = simple_signal("C3", [[0, 100, -100, 32767]])
        hdr = ingest.parse_edf_header(edf_bytes([sig]))
        assert hdr.signal_count == 1
        assert hdr.record_count == 1
        assert hdr.record_duration == 1.0
        assert hdr.labels == ("C3",)
        assert hdr.physical_max == (100.0,)
        assert hdr.digital_min == (-32768,)
        assert hdr.samples_per_record == (4,)

    def test_short_file(self):
        with pytest.raises(TruncatedHeader):
            ingest.parse_edf_header(b"0       too short")

    def test_bad_magic(self):
        sig = simple_signal("C3", [[0]])
        blob = edf_bytes([sig], version=b"1       ")
        with pytest.raises(BadMagic):
            ingest.parse_edf_header(blob)

    def test_truncated_signal_headers(self):
        sig = simple_signal("C3", [[0]])
        blob = edf_bytes([sig])[:300]
        with pytest.raises(TruncatedHeader):
            ingest.parse_edf_header(blob)

    def test_header_size_mismatch(self):
        sig = simple_signal("C3", [[0]])
        with pytest.raises(InvalidHeaderField):
            ingest.parse_edf_header(edf_bytes([sig], header_bytes=999))

    def test_unknown_record_count_rejected(self):
        sig = simple_signal("C3", [[0]])
        with pytest.raises(InvalidHeaderField):
            ingest.parse_edf_header(edf_bytes([sig], record_count=-1))

    def test_non_numeric_duration(self):
        sig = simple_signal("C3", [[0]])
        with pytest.raises(InvalidHeaderField):
            ingest.parse_edf_header(edf_bytes([sig], record_duration="fast"))

    def test_degenerate_digital_range(self):
        sig = simple_signal("C3", [[0]], dig=(5, 5))
        with pytest.raises(DigitalRangeDegenerate):
            ingest.parse_edf_header(edf_bytes([sig]))

    def test_degenerate_physical_range(self):
        sig = simple_signal("C3", [[0]], phys=(7, 7))
        with pytest.raises(DigitalRangeDegenerate):
            ingest.parse_edf_header(edf_bytes([sig]))

    def test_digital_range_outside_int16(self):
        sig = simple_signal("C3", [[0]], dig=(-40000, 40000))
        with pytest.raises(InvalidHeaderField):
            ingest.parse_edf_header(edf_bytes([sig]))

    # Each named header field after the version: its name in error
    # messages, its byte offset, its width and how its text is read. A
    # signal field's offset is its first signal's in a two-signal header,
    # 256 + 2 * (the widths of the signal fields before it).
    FIELDS = [
        ("patient id", 8, 80, "text"),
        ("recording id", 88, 80, "text"),
        ("start date", 168, 8, "text"),
        ("start time", 176, 8, "text"),
        ("header size", 184, 8, "integer"),
        ("record count", 236, 8, "integer"),
        ("record duration", 244, 8, "number"),
        ("signal count", 252, 4, "integer"),
        ("label", 256, 16, "text"),
        ("transducer", 256 + 2 * 16, 80, "text"),
        ("unit", 256 + 2 * 96, 8, "text"),
        ("physical min", 256 + 2 * 104, 8, "number"),
        ("physical max", 256 + 2 * 112, 8, "number"),
        ("digital min", 256 + 2 * 120, 8, "integer"),
        ("digital max", 256 + 2 * 128, 8, "integer"),
        ("prefilter", 256 + 2 * 136, 80, "text"),
        ("samples per record", 256 + 2 * 216, 8, "integer"),
    ]

    @staticmethod
    def planted(blob, at, size, kind):
        """blob with a non-ASCII byte at the start of the text field at
        byte at, or 'x' as the whole numeric field there."""
        raw = b"\xff" if kind == "text" else b"x".ljust(size)
        return blob[:at] + raw + blob[at + len(raw):]

    def two_signals(self):
        return edf_bytes([simple_signal("C3", [[0, 1]]), simple_signal("C4", [[2, 3]], phys=(-5, 7))])

    @pytest.mark.parametrize("name, at, size, kind", FIELDS, ids=[f[0] for f in FIELDS])
    def test_bad_field_is_named(self, name, at, size, kind):
        # a signal field is planted in the second signal
        at += size if at >= 256 else 0
        blob = self.planted(self.two_signals(), at, size, kind)
        want = f"{name} is not ASCII" if kind == "text" else f"{name} is not an? {kind}: 'x'"
        with pytest.raises(InvalidHeaderField, match=f"^{want}$"):
            ingest.parse_edf_header(blob)

    def test_two_bad_signal_fields_report_the_first_in_the_file(self):
        # signal 0's unit comes before signal 1's label by signal, after it
        # in the file, where every label precedes every unit
        blob = self.planted(self.two_signals(), 256 + 2 * 96, 8, "text")
        blob = self.planted(blob, 256 + 16, 16, "text")
        with pytest.raises(InvalidHeaderField, match="^label is not ASCII$"):
            ingest.parse_edf_header(blob)

    def test_written_header_parses_back_field_for_field(self, montage):
        # three channels of peaks 100, 2.5 and 0 (framed as 1), 5 Hz, one
        # 2 s period written as 25 samples: five 1 s records of 5 samples
        samples = np.zeros((3, 10))
        samples[0, 3], samples[1, 7] = -100.0, 2.5
        rec = core.Recording(channels=montage.electrodes[:3], samples=samples, sampling_rate=5.0)
        head = ingest.write_edf(rec, 25)[0]
        assert ingest.parse_edf_header(head) == ingest.EdfHeader(
            version="0",
            patient="X",
            recording_id="X",
            startdate="01.01.00",
            starttime="00.00.00",
            header_bytes=256 * 4,
            record_count=5,
            record_duration=1.0,
            signal_count=3,
            labels=tuple(e.label for e in montage.electrodes[:3]),
            transducers=("",) * 3,
            units=("uV",) * 3,
            physical_min=(-100.0, -2.5, -1.0),
            physical_max=(100.0, 2.5, 1.0),
            digital_min=(-32768,) * 3,
            digital_max=(32767,) * 3,
            prefilters=("",) * 3,
            samples_per_record=(5,) * 3,
        )


class TestReadEdf:
    def test_linear_map_endpoints(self):
        m = small_montage("C3")
        sig = simple_signal(
            "C3", [[32767, -32768, 0]], phys=(-200, 200), dig=(-32768, 32767)
        )
        rec = ingest.read_edf(edf_bytes([sig]), m)
        assert rec.samples[0, 0] == pytest.approx(200.0)
        assert rec.samples[0, 1] == pytest.approx(-200.0)
        assert rec.sampling_rate == pytest.approx(3.0)

    def test_records_concatenate_in_order(self):
        m = small_montage("C3")
        sig = simple_signal(
            "C3", [[0, 1], [2, 3], [4, 5]], phys=(-32768, 32767)
        )
        rec = ingest.read_edf(edf_bytes([sig], records=3), m)
        np.testing.assert_allclose(rec.samples[0], [0, 1, 2, 3, 4, 5], atol=1.0)

    def test_mixed_sampling_rates(self):
        a = simple_signal("A", [[0, 0]])
        b = simple_signal("B", [[0, 0, 0]])
        with pytest.raises(MixedSamplingRates):
            ingest.read_edf(edf_bytes([a, b]), small_montage("A", "B"))

    def test_truncated_payload(self):
        m = small_montage("C3")
        sig = simple_signal("C3", [[1, 2, 3, 4]])
        blob = edf_bytes([sig])
        with pytest.raises(TruncatedData):
            ingest.read_edf(blob[:-3], m)

    def test_montage_mapping(self):
        m = small_montage("A", "B")
        sb = simple_signal("B", [[100]], phys=(-32768, 32767))
        sa = simple_signal("A", [[200]], phys=(-32768, 32767))
        rec = ingest.read_edf(edf_bytes([sb, sa]), m)
        assert rec.labels == ("A", "B")
        assert rec.samples[0, 0] == pytest.approx(200.0, abs=1.0)


def random_edf(records, spr, record_duration, seed=0):
    """Three signals, stored out of montage order, with random digital
    values that include both ends of the 16-bit range."""
    rng = np.random.default_rng(seed)
    signals = []
    for label, phys in (("C", (-50, 250)), ("A", (-200, 200)), ("B", (0.5, 3.25))):
        data = rng.integers(-32768, 32768, size=(records, spr))
        data[0, 0], data[-1, -1] = -32768, 32767
        signals.append(simple_signal(label, data.tolist(), phys=phys))
    return edf_bytes(signals, record_duration=record_duration, records=records)


def window_epoch(blob, montage, t, window_len):
    """The epoch at t cut from a windowed read and from the full decode."""
    proto = core.SessionProtocol(phase="baseline", epoch_times=(t,))
    part = ingest.read_edf(blob, montage, window=(t, t + window_len))
    (got,) = core.slice_epochs(part, proto, window_len)
    (want,) = core.slice_epochs(ingest.read_edf(blob, montage), proto, window_len)
    return part, got, want


# 500 Hz throughout; the 0.001 s steps are half a sample.
WINDOWS = [
    (3.0, 2.0),  # record boundary
    (4.3, 2.0),  # mid-record
    (5.001, 2.0),  # half-sample time
    (6.503, 1.5),
    (18.0, 2.0),  # ends on the last sample
    (19.998, 0.002),  # the last sample alone
]


class TestReadEdfWindow:
    montage = small_montage("A", "B", "C")

    @pytest.mark.parametrize("records, spr, duration", [(20, 500, "1"), (40, 250, "0.5")])
    @pytest.mark.parametrize("t, window_len", WINDOWS)
    def test_epoch_bit_identical_to_full_decode(self, records, spr, duration, t, window_len):
        blob = random_edf(records, spr, duration)
        part, got, want = window_epoch(blob, self.montage, t, window_len)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.channels == want.channels
        assert (got.t_start, got.t_end) == (want.t_start, want.t_end)
        first_record = int(round(t * 500.0)) // spr
        assert part.start_offset == first_record * float(duration)
        assert part.n_samples <= (int(round(window_len * 500.0)) // spr + 2) * spr

    def test_every_half_sample_start(self):
        blob = random_edf(4, 50, "0.1")
        full = ingest.read_edf(blob, self.montage)
        for k in range(0, 2 * (200 - 75)):
            t = k / 1000.0
            proto = core.SessionProtocol(phase="baseline", epoch_times=(t,))
            part = ingest.read_edf(blob, self.montage, window=(t, t + 0.15))
            (got,) = core.slice_epochs(part, proto, 0.15)
            (want,) = core.slice_epochs(full, proto, 0.15)
            assert got.samples.tobytes() == want.samples.tobytes(), t

    @pytest.mark.parametrize("t, window_len", [(0.0, 10.0), (1.5, 3.0), (6.001, 2.0), (8.0, 2.0)])
    def test_single_record_file(self, montage, t, window_len):
        rng = np.random.default_rng(3)
        rec = core.Recording(
            samples=rng.normal(scale=30.0, size=(30, 5000)),
            sampling_rate=500.0,
            channels=montage.electrodes,
        )
        blob = relay_records(joined(ingest.write_edf(rec)), 5000)
        part, got, want = window_epoch(blob, montage, t, window_len)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert part.start_offset == 0.0 and part.n_samples == 5000

    def test_memory_map_reads_like_bytes(self, tmp_path):
        blob = random_edf(20, 500, "1")
        path = tmp_path / "r.edf"
        path.write_bytes(blob)
        with path.open("rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            mapped = ingest.read_edf(mm, self.montage, window=(4.3, 6.3))
        direct = ingest.read_edf(blob, self.montage, window=(4.3, 6.3))
        assert mapped.samples.tobytes() == direct.samples.tobytes()
        assert mapped.start_offset == direct.start_offset == 4.0

    @pytest.mark.parametrize("window", [None, (4.3, 6.3)])
    def test_samples_handed_over_without_copy(self, window):
        rec, handed = handed_samples(
            ingest, ingest.read_edf, random_edf(20, 50, "1"), self.montage, window
        )
        assert rec.samples is handed

    @pytest.mark.parametrize("window", [(0.0, 1.0), (19.0, 20.0), (50.0, 60.0), None])
    def test_truncated_payload_whatever_the_window(self, window):
        blob = random_edf(20, 500, "1")
        with pytest.raises(TruncatedData):
            ingest.read_edf(blob[:-3], self.montage, window=window)

    @pytest.mark.parametrize("t", [15.0, 19.5, 25.0])
    def test_past_end_reports_session_indices(self, t):
        blob = random_edf(20, 500, "1")
        proto = core.SessionProtocol(phase="baseline", epoch_times=(t,))
        part = ingest.read_edf(blob, self.montage, window=(t, t + 10.0))
        with pytest.raises(EpochOutOfRange) as windowed:
            core.slice_epochs(part, proto, 10.0)
        with pytest.raises(EpochOutOfRange) as whole:
            core.slice_epochs(ingest.read_edf(blob, self.montage), proto, 10.0)
        start = int(round(t * 500.0))
        assert str(windowed.value) == str(whole.value) == (
            f"epoch at {t} s needs samples [{start}, {start + 5000}) "
            "but recording has 10000"
        )

    @pytest.mark.parametrize("window", [(-1.0, 2.0), (3.0, 2.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_window_rejected(self, window):
        with pytest.raises(EpochOutOfRange):
            ingest.read_edf(random_edf(2, 500, "1"), self.montage, window=window)


class TestReadEdfWindows:
    montage = small_montage("A", "B", "C")
    # Overlapping windows, one that ends on the last sample, one that runs
    # past the end and one after it, out of order.
    WINDOWS = [
        (3.0, 5.0), (4.3, 6.3), (5.001, 7.001), (18.0, 20.0), (19.5, 29.5), (25.0, 27.0), (1.0, 2.0)
    ]

    @pytest.mark.parametrize("records, spr, duration", [(20, 500, "1"), (40, 250, "0.5")])
    def test_same_as_the_whole_decode(self, records, spr, duration):
        blob = random_edf(records, spr, duration)
        with mock.patch.object(ingest, "parse_edf_header", wraps=ingest.parse_edf_header) as parse:
            recs = ingest.read_edf_windows(blob, self.montage, self.WINDOWS)
        assert parse.call_count == 1
        whole = ingest.read_edf(blob, self.montage)
        for rec, (t0, t1) in zip(recs, self.WINDOWS, strict=True):
            first_record = min(int(round(t0 * 500.0)) // spr, records)
            assert rec.start_offset == first_record * float(duration)
            lo = first_record * spr
            assert rec.samples.tobytes() == whole.samples[:, lo : lo + rec.n_samples].tobytes()
            assert epoch_outcome(lambda: rec, t0, t1 - t0) == epoch_outcome(lambda: whole, t0, t1 - t0)
        assert recs[5].n_samples == 0
        assert epoch_outcome(lambda: recs[4], 19.5, 10.0) == (
            EpochOutOfRange, "epoch at 19.5 s needs samples [9750, 14750) but recording has 10000"
        )

    def test_none_is_the_whole_decode(self):
        blob = random_edf(20, 500, "1")
        recs = ingest.read_edf_windows(blob, self.montage, [None, (4.3, 6.3), None])
        whole = ingest.read_edf(blob, self.montage).samples.tobytes()
        assert recs[0].samples.tobytes() == recs[2].samples.tobytes() == whole
        assert recs[1].start_offset == 4.0

    def test_whole_read_error(self):
        blob = random_edf(20, 500, "1")[:-3]
        with pytest.raises(TruncatedData) as whole:
            ingest.read_edf(blob, self.montage)
        with pytest.raises(TruncatedData) as windowed:
            ingest.read_edf_windows(blob, self.montage, self.WINDOWS)
        assert str(windowed.value) == str(whole.value)


class TestWriteEdf:
    def test_round_trip_within_one_quantum(self, montage):
        rng = np.random.default_rng(7)
        data = rng.normal(scale=40.0, size=(30, 500))
        rec = core.Recording(samples=data, sampling_rate=250.0, channels=montage.electrodes)
        blob = joined(ingest.write_edf(rec))
        hdr = ingest.parse_edf_header(blob)
        back = ingest.read_edf(blob, montage)
        assert back.sampling_rate == rec.sampling_rate
        for i in range(30):
            # written range is symmetric; error bounded by half a quantum of it
            assert hdr.physical_min[i] == -hdr.physical_max[i]
            quantum = 2.0 * hdr.physical_max[i] / 65535.0
            err = np.max(np.abs(back.samples[i] - rec.samples[i]))
            assert err <= quantum / 2.0 + 1e-12

    def test_round_trip_via_own_header(self):
        m = small_montage("A")
        rec = core.Recording(
            samples=np.array([[0.25, -0.75, 0.5]]),
            sampling_rate=3.0,
            channels=m.electrodes,
        )
        back = ingest.read_edf(joined(ingest.write_edf(rec)), m)
        np.testing.assert_allclose(back.samples, rec.samples, atol=1e-4)

    def test_zero_samples_rejected(self):
        m = small_montage("A")
        rec = core.Recording(
            samples=np.empty((1, 0)), sampling_rate=10.0, channels=m.electrodes
        )
        with pytest.raises(InvalidHeaderField):
            ingest.write_edf(rec)

    def test_inexpressible_duration_rejected(self):
        m = small_montage("A")
        rec = core.Recording(
            samples=np.ones((1, 1000)), sampling_rate=3.0, channels=m.electrodes
        )
        with pytest.raises(InvalidHeaderField):
            ingest.write_edf(rec)

    @pytest.mark.parametrize("duration, fs", [(120.0, 500.0), (1.0, 3.0), (7.0, 250.0)])
    def test_whole_seconds_written_in_1s_records(self, montage, duration, fs):
        rng = np.random.default_rng(5)
        n = int(duration * fs)
        rec = core.Recording(samples=rng.normal(size=(30, n)), sampling_rate=fs, channels=montage.electrodes)
        hdr = ingest.parse_edf_header(joined(ingest.write_edf(rec)))
        assert (hdr.record_count, hdr.record_duration) == (duration, 1.0)
        assert hdr.samples_per_record == (int(fs),) * 30

    @pytest.mark.parametrize("n, fs, duration", [
        (1250, 500.0, 2.5),  # not a whole number of seconds
        (501, 250.5, 2.0),  # one second is not a whole number of samples
        (3, 0.5, 6.0),
    ])
    def test_otherwise_one_record(self, n, fs, duration):
        m = small_montage("A", "B")
        rng = np.random.default_rng(6)
        rec = core.Recording(samples=rng.normal(size=(2, n)), sampling_rate=fs, channels=m.electrodes)
        blob = joined(ingest.write_edf(rec))
        hdr = ingest.parse_edf_header(blob)
        assert (hdr.record_count, hdr.record_duration, hdr.samples_per_record) == (1, duration, (n, n))
        assert blob == write_edf_reference(rec)

    @pytest.mark.parametrize("duration, noise_floor", [
        (120.0, 0.0),
        (20.0, 0.5),
        # 30 whole periods and half of the next
        (122.0, 0.0),
    ])
    def test_same_samples_as_one_record(self, montage, duration, noise_floor):
        rec = synth_recording(montage, duration, noise_floor)
        blob = joined(ingest.write_edf(rec))
        one = write_edf_reference(rec)
        assert relay_records(blob, rec.n_samples) == one
        back = ingest.read_edf(blob, montage).samples
        assert back.tobytes() == ingest.read_edf(one, montage).samples.tobytes()

    def test_window_decodes_only_its_records(self, montage):
        blob = joined(ingest.write_edf(synth_recording(montage, 20.0)))
        with mock.patch.object(ingest, "_decode_records", wraps=ingest._decode_records) as decode:
            part, got, want = window_epoch(blob, montage, 4.3, 2.0)
        # samples [2150, 3150) lie in the 1 s records 4, 5 and 6
        assert decode.call_args_list[0].args[2:4] == (4, 7)
        assert (part.start_offset, part.n_samples) == (4.0, 1500)
        assert got.samples.tobytes() == want.samples.tobytes()


def write_edf_reference(recording):
    """write_edf as one data record, each signal quantized on its own."""
    ns, n = recording.samples.shape
    phys = []
    for x in recording.samples:
        peak = float(np.max(np.abs(x)))
        target = peak if peak > 0 else 1.0
        while not peak <= float(ingest._fit_decimal(target, 7)) > 0:
            target *= 1.01
        phys.append(ingest._fit_decimal(target, 7))
    fields = [
        ("0", 8), ("X", 80), ("X", 80), ("01.01.00", 8), ("00.00.00", 8),
        (str(256 * (ns + 1)), 8), ("", 44), ("1", 8),
        (ingest._fit_decimal(n / recording.sampling_rate, 8), 8), (str(ns), 4),
    ]
    for values, size in [
        (recording.labels, 16), ([""] * ns, 80), (["uV"] * ns, 8),
        (["-" + p for p in phys], 8), (phys, 8), (["-32768"] * ns, 8), (["32767"] * ns, 8),
        ([""] * ns, 80), ([str(n)] * ns, 8), ([""] * ns, 32),
    ]:
        fields += [(v, size) for v in values]
    head = b"".join(v.encode("ascii").ljust(size) for v, size in fields)
    digital = np.empty((ns, n), dtype="<i2")
    for i, (x, p) in enumerate(zip(recording.samples, phys)):
        a = float(p)
        q = np.rint((x + a) * (65535 / (2.0 * a))) - 32768
        digital[i] = np.clip(q, -32768, 32767).astype("<i2")
    return head + digital.tobytes()


def montage_json(montage):
    """The JSON document montage_from_json reads back as montage."""
    return json.dumps({
        "name": montage.name,
        "electrodes": [
            {"label": e.label, "x": e.position[0], "y": e.position[1], "kind": e.kind}
            for e in montage.electrodes
        ],
    })


class TestMontageAssets:
    def test_bundled_by_name(self):
        m = ingest.load_montage("standard-30")
        assert len(m.electrodes) == 30

    def test_json_round_trip(self, montage):
        back = ingest.montage_from_json(montage_json(montage))
        assert back.name == montage.name
        assert back.electrodes == montage.electrodes

    def test_load_by_path(self, tmp_path, montage):
        p = tmp_path / "custom.json"
        p.write_text(montage_json(montage), encoding="utf-8")
        assert ingest.load_montage(str(p)).electrodes == montage.electrodes

    def test_env_dir_override(self, tmp_path, montage, monkeypatch):
        (tmp_path / "mine.json").write_text(montage_json(montage), encoding="utf-8")
        monkeypatch.setenv(ingest.MONTAGE_DIR_ENV, str(tmp_path))
        assert ingest.load_montage("mine").name == montage.name

    def test_unknown_name(self):
        with pytest.raises(InvalidMontage):
            ingest.load_montage("atlantis-7")

    def test_non_utf8_file(self, tmp_path, monkeypatch):
        (tmp_path / "latin.json").write_bytes('{"name": "\xe9"}'.encode("latin-1"))
        with pytest.raises(InvalidMontage, match="latin.json"):
            ingest.load_montage(str(tmp_path / "latin.json"))
        monkeypatch.setenv(ingest.MONTAGE_DIR_ENV, str(tmp_path))
        with pytest.raises(InvalidMontage, match="latin.json"):
            ingest.load_montage("latin")

    def test_malformed_json(self):
        with pytest.raises(InvalidMontage):
            ingest.montage_from_json("{not json")
        with pytest.raises(InvalidMontage):
            ingest.montage_from_json('{"electrodes": "nope"}')


# Parsers must map arbitrary input to Recording-or-typed-error, never crash.
@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048))
def test_edf_parser_total_on_arbitrary_bytes(blob):
    m = small_montage("A", "B")
    try:
        rec = ingest.read_edf(blob, m)
        assert rec.sampling_rate > 0
    except IngestError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=2048),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
)
def test_windowed_edf_parser_total_on_arbitrary_bytes(blob, a, b):
    m = small_montage("A", "B")
    try:
        rec = ingest.read_edf(blob, m, window=(min(a, b), max(a, b)))
        assert rec.sampling_rate > 0
    except IngestError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=1024))
def test_csv_parser_total_on_arbitrary_bytes(blob):
    m = small_montage("A", "B")
    try:
        ingest.read_csv(blob, ingest.CsvLayout(), 100.0, m)
    except PipelineError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=1024),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    SCAN_BYTES,
)
def test_windowed_csv_parser_total_on_arbitrary_bytes(blob, a, b, scan_bytes):
    m = small_montage("A", "B")
    with mock.patch.object(ingest, "_SCAN_BYTES", scan_bytes):
        try:
            ingest.read_csv(blob, ingest.CsvLayout(), 100.0, m, window=(min(a, b), max(a, b)))
        except PipelineError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512), st.lists(st.integers(0, 63), max_size=16))
def test_csv_parser_total_on_repeated_lines_of_arbitrary_bytes(blob, repeats):
    lines = blob.splitlines(keepends=True)
    blob += b"".join(lines[i % len(lines)] for i in repeats) if lines else b""
    m = small_montage("A", "B")
    try:
        ingest.read_csv(blob, ingest.CsvLayout(), 100.0, m)
    except PipelineError:
        pass


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=6000),
    st.binary(min_size=1, max_size=4),
)
def test_edf_parser_total_under_targeted_mutation(offset, junk):
    sig_a = simple_signal("A", [[0, 1, 2]])
    sig_b = simple_signal("B", [[3, 4, 5]])
    blob = bytearray(edf_bytes([sig_a, sig_b]))
    end = min(offset, len(blob))
    blob[end : end + len(junk)] = junk
    m = small_montage("A", "B")
    try:
        ingest.read_edf(bytes(blob), m)
    except IngestError:
        pass


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=6000),
    st.binary(min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_windowed_edf_parser_total_under_targeted_mutation(offset, junk, a, b):
    sig_a = simple_signal("A", [[0, 1, 2], [3, 4, 5]])
    sig_b = simple_signal("B", [[6, 7, 8], [9, 10, 11]])
    blob = bytearray(edf_bytes([sig_a, sig_b], records=2))
    end = min(offset, len(blob))
    blob[end : end + len(junk)] = junk
    m = small_montage("A", "B")
    try:
        rec = ingest.read_edf(bytes(blob), m, window=(min(a, b), max(a, b)))
        assert rec.sampling_rate > 0
    except IngestError:
        pass
