import json
import math
import mmap
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barstress import core, ingest
from barstress.errors import (
    BadMagic,
    DigitalRangeDegenerate,
    EpochOutOfRange,
    IngestError,
    InvalidHeaderField,
    InvalidMontage,
    MalformedRow,
    MixedSamplingRates,
    NonNumericSample,
    PipelineError,
    TruncatedData,
    TruncatedHeader,
    UnknownChannelLabel,
)
from handover import handed_samples


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
        assert ingest.write_csv(rec) == b"A,B\n"

    def test_single_value(self):
        m = small_montage("A")
        rec = core.Recording(
            samples=np.array([[1.5]]), sampling_rate=10.0, channels=m.electrodes
        )
        assert ingest.write_csv(rec) == b"A\n1.5\n"

    def test_round_trip_exact(self):
        m = small_montage("w", "x", "y", "z")
        data = np.random.default_rng(5).normal(scale=37.0, size=(4, 1000))
        rec = core.Recording(samples=data, sampling_rate=500.0, channels=m.electrodes)
        back = ingest.read_csv(ingest.write_csv(rec), ingest.CsvLayout(), 500.0, m)
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_time_column_round_trip(self):
        m = small_montage("A")
        rec = core.Recording(
            samples=np.array([[1.0, 2.0, 3.0]]),
            sampling_rate=10.0,
            channels=m.electrodes,
        )
        layout = ingest.CsvLayout(time_column=0)
        blob = ingest.write_csv(rec, layout)
        assert blob.startswith(b"time_s,A\n")
        back = ingest.read_csv(blob, layout, 10.0, m)
        np.testing.assert_array_equal(back.samples, rec.samples)


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
        assert expanded_lines(blob.decode("utf-8")) == whole_text_lines(blob)

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


def write_csv_reference(recording, layout):
    """write_csv as one repr per value, row by row."""
    lines = []
    labels = list(recording.labels)
    if layout.time_column is not None:
        labels.insert(min(layout.time_column, len(labels)), "time_s")
    if layout.has_header:
        lines.append(layout.delimiter.join(labels))
    for i, row in enumerate(recording.samples.T):
        fields = [repr(float(v)) for v in row]
        if layout.time_column is not None:
            fields.insert(
                min(layout.time_column, len(fields)), repr(i / recording.sampling_rate)
            )
        lines.append(layout.delimiter.join(fields))
    return "".join(line + "\n" for line in lines).encode("utf-8")


LAYOUTS = [
    ingest.CsvLayout(),
    ingest.CsvLayout(time_column=0),
    ingest.CsvLayout(delimiter=";", time_column=1),
    ingest.CsvLayout(delimiter="%", has_header=False, time_column=9),
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
        assert ingest.write_csv(rec, layout) == write_csv_reference(rec, layout)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_periodic_recording(self, layout):
        # a 2000-row period, which does not divide the block size, whose
        # rows 0 and 1 differ only in the sign of a zero
        m = small_montage("A", "B", "C")
        period = np.random.default_rng(3).normal(scale=40.0, size=(3, 2000))
        period[:, 0] = [0.0, 1.5, -2.0]
        period[:, 1] = [-0.0, 1.5, -2.0]
        samples = np.tile(period, 2 * ingest._CSV_BLOCK_ROWS // 2000 + 1)[:, :-7]
        assert ingest._CSV_BLOCK_ROWS % 2000
        rec = core.Recording(samples=samples, sampling_rate=500.0, channels=m.electrodes)
        blob = ingest.write_csv(rec, layout)
        assert blob == write_csv_reference(rec, layout)
        if layout.time_column is None:
            keep, inverse = ingest._row_classes(list(rec.samples), rec.n_samples)
            assert len(keep) == 2000 and inverse[0] != inverse[1]


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
        blob = ingest.write_edf(rec)
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


class TestWriteEdf:
    def test_round_trip_within_one_quantum(self, montage):
        rng = np.random.default_rng(7)
        data = rng.normal(scale=40.0, size=(30, 500))
        rec = core.Recording(samples=data, sampling_rate=250.0, channels=montage.electrodes)
        blob = ingest.write_edf(rec)
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
        back = ingest.read_edf(ingest.write_edf(rec), m)
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
