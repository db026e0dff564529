"""Parsers and writers for recordings: CSV, a strict EDF subset, montages.

Parsers are pure functions over byte buffers and either return validated
domain values or raise a typed IngestError; they must survive arbitrary
bytes without crashing. The EDF subset keeps the standard 256-byte header
and field-major signal header layout, little-endian 16-bit records, one
sampling rate for every signal, no annotation channels.

CSV text is handled one distinct line at a time: write_csv formats each
distinct row once and read_csv parses each distinct line once, and every
repeat is copied from its first occurrence. A recording that repeats, as
a noise-free synthetic one does every 4 s, costs one period of text work.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ChannelInfo, Montage, Recording, standard_montage
from .errors import (
    BadMagic,
    DigitalRangeDegenerate,
    EpochOutOfRange,
    InvalidHeaderField,
    InvalidMontage,
    MalformedRow,
    MixedSamplingRates,
    NonNumericSample,
    TruncatedData,
    TruncatedHeader,
    UnknownChannelLabel,
)

MONTAGE_DIR_ENV = "BARSTRESS_MONTAGE_DIR"

# Rows write_csv formats per block: large enough to amortise the per-block
# numpy calls, small enough that the block's Python floats and strings stay
# a few MB.
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class CsvLayout:
    """Shape of a recording CSV: delimiter, header row, optional time column."""

    delimiter: str = ","
    has_header: bool = True
    time_column: int | None = None

    def __post_init__(self):
        d = self.delimiter
        if len(d) != 1 or not d.isprintable():
            raise MalformedRow(f"delimiter must be one printable character, got {d!r}")
        if self.time_column is not None and self.time_column < 0:
            raise MalformedRow("time_column index must be >= 0")


@dataclass(frozen=True)
class EdfHeader:
    """Parsed fixed + per-signal EDF header fields."""

    version: str
    patient: str
    recording_id: str
    startdate: str
    starttime: str
    header_bytes: int
    record_count: int
    record_duration: float
    signal_count: int
    labels: tuple[str, ...]
    transducers: tuple[str, ...]
    units: tuple[str, ...]
    physical_min: tuple[float, ...]
    physical_max: tuple[float, ...]
    digital_min: tuple[int, ...]
    digital_max: tuple[int, ...]
    prefilters: tuple[str, ...]
    samples_per_record: tuple[int, ...]


# --------------------------------------------------------------------- CSV

def _decode_text(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"input is not valid UTF-8: {exc}") from None


def _map_columns(labels: list[str], montage: Montage) -> list[tuple[int, ChannelInfo]]:
    """Column index per montage electrode, montage order; subset allowed."""
    by_label = {e.label: e for e in montage.electrodes}
    unknown = [lab for lab in labels if lab not in by_label]
    if unknown:
        raise UnknownChannelLabel(
            f"labels not in montage {montage.name!r}: {unknown[:5]}"
        )
    if len(set(labels)) != len(labels):
        raise UnknownChannelLabel("duplicate channel labels in header")
    col_of = {lab: i for i, lab in enumerate(labels)}
    order = [e.label for e in montage.electrodes if e.label in col_of]
    return [(col_of[lab], by_label[lab]) for lab in order]


def _parse_rows(
    lines: list[str], delim: str, header_labels: list[str] | None
) -> np.ndarray:
    """(rows, columns) float64 values of the data lines, or a typed error.

    The reference parser: every field goes through float(), and the first
    offending row or field is named in the error.
    """
    rows = [ln.split(delim) for ln in lines]
    width = len(rows[0]) if rows else (len(header_labels) if header_labels else 0)
    for i, r in enumerate(rows):
        if len(r) != width:
            raise MalformedRow(
                f"row {i} has {len(r)} fields, expected {width}"
            )
    if header_labels is not None and rows and len(header_labels) != width:
        raise MalformedRow(
            f"header has {len(header_labels)} fields but rows have {width}"
        )

    if not rows:
        return np.empty((0, width), dtype=np.float64)
    try:
        values = np.asarray(rows, dtype=object).astype(np.float64)
    except (ValueError, TypeError):
        for i, r in enumerate(rows):
            for j, f in enumerate(r):
                try:
                    float(f)
                except ValueError:
                    raise NonNumericSample(
                        f"row {i} column {j}: {f.strip()!r}"
                    ) from None
        raise NonNumericSample("unparseable numeric field")
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise NonNumericSample(f"row {i} column {j} is not finite")
    return values


def _load_rows(
    lines: list[str] | list[bytes], delim: str, header_labels: list[str] | None
) -> np.ndarray | None:
    """The values of the data lines from numpy's C parser, or None when
    _parse_rows must decide.

    loadtxt rejects some fields float() accepts (1_0, non-ASCII digits)
    and skips lines it sees as blank, but accepts no field float()
    rejects, so a result of the right shape holds the same values. Lines
    may be ASCII bytes, which loadtxt decodes to the same text.
    """
    if not lines:
        return None
    try:
        values = np.loadtxt(
            lines,
            delimiter=delim,
            max_rows=len(lines),  # lets the reader allocate the result once
            comments=None,
            quotechar=None,
            dtype=np.float64,
            ndmin=2,
        )
    except ValueError:
        return None
    if (
        len(values) != len(lines)
        or (header_labels is not None and len(header_labels) != values.shape[1])
        or not np.isfinite(values).all()
    ):
        return None
    return values


# The ASCII bytes at which str.splitlines breaks a line, or that str.isspace
# counts as space, and bytes.splitlines or bytes.isspace does not.
_STR_ONLY_ASCII = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_ascii(data: bytes) -> bool:
    """Whether data is ASCII without any of _STR_ONLY_ASCII: then the lines
    bytes.splitlines finds are those str.splitlines finds in its text, and
    bytes.isspace finds the same blank lines as str.isspace.

    Checked a cache-sized chunk at a time, so the seven scans of each
    chunk read memory once.
    """
    for start in range(0, len(data), 1 << 18):
        chunk = data[start : start + (1 << 18)]
        if not chunk.isascii() or any(b in chunk for b in _STR_ONLY_ASCII):
            return False
    return True


def _text(line: bytes | str) -> str:
    return line.decode("ascii") if isinstance(line, bytes) else line


def _distinct_lines(data: bytes | str) -> tuple[list, np.ndarray]:
    """The distinct non-blank lines of the input, in order of first
    occurrence, and the index in that list of every non-blank line of the
    file, in file order. So the file's first non-blank line has index 0,
    and every index occurs.

    Plain ASCII bytes (see _plain_ascii) are split and kept as bytes, each
    line one object, and never decoded whole; numpy's loadtxt reads them
    as it reads their text. Any other input is decoded and split as text.
    """
    if isinstance(data, bytes) and _plain_ascii(data):
        raw = data.splitlines()
        isspace = bytes.isspace
    else:
        raw = _decode_text(data).splitlines()
        isspace = str.isspace
    first: dict = {}
    # The position of each line's first occurrence, then its index among them.
    order = np.fromiter(map(first.setdefault, raw, itertools.count()), np.intp, len(raw))
    order = np.unique(order, return_inverse=True)[1]
    del raw
    lines = list(first)
    nonblank = np.fromiter(map(bool, lines), bool, len(lines))
    nonblank &= ~np.fromiter(map(isspace, lines), bool, len(lines))
    order = (np.cumsum(nonblank) - 1)[order[nonblank[order]]]
    return list(itertools.compress(lines, nonblank)), order


def read_csv(
    data: bytes | str,
    layout: CsvLayout,
    sampling_rate: float,
    montage: Montage,
) -> Recording:
    """Parse a delimited text recording into a Recording.

    Values are microvolts. A time column, when declared, is checked for
    strict monotonicity and then dropped; sampling_rate is authoritative.
    Columns are reordered to montage order using the header when present,
    otherwise they are taken to already be in montage order.

    Lines are those of the decoded text's str.splitlines; blank and
    whitespace-only lines are skipped. Each distinct line is parsed once
    and its repeats take its values, so a periodic recording costs one
    period. The distinct data lines are parsed by numpy's C loadtxt; when
    it fails, skips a line, finds a non-finite value or a width other than
    the header's, every data line of the file is parsed again field by
    field with float(), which returns the values or raises the typed error
    naming the first bad row or field.
    """
    lines, order = _distinct_lines(data)
    delim = layout.delimiter

    header_labels: list[str] | None = None
    if layout.has_header:
        if not len(order):
            raise MalformedRow("empty input but layout declares a header")
        header_labels = [f.strip() for f in _text(lines[0]).split(delim)]
        order = order[1:]

    # Every line but a header that never repeats is a data line, so the
    # data's distinct lines are lines[base:].
    base = int(order.min()) if len(order) else len(lines)
    values = _load_rows(lines[base:], delim, header_labels)
    if values is None:
        values = _parse_rows([_text(lines[k]) for k in order.tolist()], delim, header_labels)
    else:
        values = values[order - base]
    width = values.shape[1]

    col_labels = header_labels
    data_cols = list(range(width))
    if layout.time_column is not None:
        t = layout.time_column
        if t >= width:
            raise MalformedRow(f"time_column {t} outside {width} columns")
        times = values[:, t]
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise MalformedRow("time column is not strictly increasing")
        del data_cols[t]
        if col_labels is not None:
            col_labels = col_labels[:t] + col_labels[t + 1 :]

    if col_labels is not None:
        mapping = _map_columns(col_labels, montage)
    else:
        if len(data_cols) != len(montage.electrodes):
            raise MalformedRow(
                f"{len(data_cols)} data columns but montage "
                f"{montage.name!r} has {len(montage.electrodes)} electrodes"
            )
        mapping = list(enumerate(montage.electrodes))

    channels = tuple(info for _, info in mapping)
    samples = values.T[[data_cols[col] for col, _ in mapping]]
    samples.flags.writeable = False
    return Recording(channels=channels, samples=samples, sampling_rate=sampling_rate)


# Odd 64-bit multiplier of the row hash (the golden-ratio constant).
_ROW_HASH = np.uint64(0x9E3779B97F4A7C15)


def _row_classes(cols: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each class of bit-identical rows, in row order,
    and every row's class.

    Rows are hashed by a multiply-xor fold of their 64-bit patterns over
    the columns. A row whose bits differ from the first row of its hash is
    its own class, so a collision costs a format, never a wrong row. Bits,
    not floats, are compared: -0.0 == 0.0, yet they print apart.
    """
    bits = [c.view(np.uint64) for c in cols]
    h = np.zeros(n, np.uint64)
    for b in bits:
        h = (h ^ b) * _ROW_HASH
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    rep = first[inverse]
    same = np.ones(n, dtype=bool)
    for b in bits:
        same &= b[rep] == b
    return np.unique(np.where(same, rep, np.arange(n)), return_inverse=True)


def write_csv(recording: Recording, layout: CsvLayout = CsvLayout()) -> bytes:
    """Serialize a Recording as delimited text; read_csv inverts it.

    Floats are printed with repr, which round-trips exactly. Each distinct
    row is formatted once, a block of them at a time, and every repeat
    copies its text: a periodic recording costs one period.
    """
    delim = layout.delimiter
    n = recording.n_samples
    tcol = layout.time_column
    labels = list(recording.labels)
    cols = list(recording.samples)
    if tcol is not None:
        tcol = min(tcol, len(labels))
        labels.insert(tcol, "time_s")
        times = np.arange(n) / recording.sampling_rate
        cols.insert(tcol, times)
    head = (delim.join(labels) + "\n").encode("utf-8") if layout.has_header else b""
    keep, inverse = _row_classes(cols, n)

    # One %-template per row, repeated over a block: "%r" is repr.
    row_format = delim.replace("%", "%%").join(["%r"] * len(labels)) + "\n"
    blocks = []
    row_ends = [np.zeros(1, dtype=np.intp)]
    for start in range(0, len(keep), _CSV_BLOCK_ROWS):
        idx = keep[start : start + _CSV_BLOCK_ROWS]
        block = recording.samples[:, idx].T
        if tcol is not None:
            block = np.insert(block, tcol, times[idx], axis=1)
        text = (row_format * len(block) % tuple(block.ravel().tolist())).encode("utf-8")
        row_ends.append(np.flatnonzero(np.frombuffer(text, np.uint8) == 10) + 1 + row_ends[-1][-1])
        blocks.append(text)
    body = memoryview(b"".join(blocks))
    del blocks
    row_ends = np.concatenate(row_ends)

    # Runs of rows whose classes follow each other copy one slice of body.
    bounds = np.flatnonzero(np.diff(inverse, prepend=-2, append=-2) != 1)
    starts = row_ends[inverse[bounds[:-1]]].tolist()
    stops = row_ends[inverse[bounds[1:] - 1] + 1].tolist()
    return b"".join([head, *map(body.__getitem__, map(slice, starts, stops))])


# --------------------------------------------------------------------- EDF

_EDF_MAGIC = b"0       "


def _ascii(buf: bytes, what: str) -> str:
    try:
        return buf.decode("ascii")
    except UnicodeDecodeError:
        raise InvalidHeaderField(f"{what} is not ASCII") from None


def _parse_int(buf: bytes, what: str) -> int:
    s = _ascii(buf, what).strip()
    try:
        return int(s)
    except ValueError:
        raise InvalidHeaderField(f"{what} is not an integer: {s!r}") from None


def _parse_float(buf: bytes, what: str) -> float:
    s = _ascii(buf, what).strip()
    try:
        v = float(s)
    except ValueError:
        raise InvalidHeaderField(f"{what} is not a number: {s!r}") from None
    if not math.isfinite(v):
        raise InvalidHeaderField(f"{what} is not finite: {s!r}")
    return v


def parse_edf_header(data: bytes) -> EdfHeader:
    """Parse and validate the 256-byte fixed header plus signal headers."""
    if len(data) < 256:
        raise TruncatedHeader(f"need 256 header bytes, got {len(data)}")
    if data[0:8] != _EDF_MAGIC:
        raise BadMagic(f"bad version field {data[0:8]!r}")
    patient = _ascii(data[8:88], "patient id").rstrip()
    rec_id = _ascii(data[88:168], "recording id").rstrip()
    startdate = _ascii(data[168:176], "start date").rstrip()
    starttime = _ascii(data[176:184], "start time").rstrip()
    header_bytes = _parse_int(data[184:192], "header size")
    record_count = _parse_int(data[236:244], "record count")
    record_duration = _parse_float(data[244:252], "record duration")
    ns = _parse_int(data[252:256], "signal count")

    if ns < 1:
        raise InvalidHeaderField(f"signal count must be >= 1, got {ns}")
    if header_bytes != 256 * (ns + 1):
        raise InvalidHeaderField(
            f"header size {header_bytes} != 256*(ns+1) = {256 * (ns + 1)}"
        )
    if record_count == -1:
        raise InvalidHeaderField("unknown record count (-1) is not supported")
    if record_count < 1:
        raise InvalidHeaderField(f"record count must be >= 1, got {record_count}")
    if record_duration <= 0:
        raise InvalidHeaderField(
            f"record duration must be > 0, got {record_duration}"
        )
    if len(data) < header_bytes:
        raise TruncatedHeader(
            f"declared header of {header_bytes} bytes, got {len(data)}"
        )

    def signal_field(base: int, size: int, i: int) -> bytes:
        off = 256 + base * ns + size * i
        return data[off : off + size]

    labels, transducers, units, prefilters = [], [], [], []
    pmin, pmax, dmin, dmax, spr = [], [], [], [], []
    for i in range(ns):
        labels.append(_ascii(signal_field(0, 16, i), "label").rstrip())
        transducers.append(_ascii(signal_field(16, 80, i), "transducer").rstrip())
        units.append(_ascii(signal_field(96, 8, i), "unit").rstrip())
        pmin.append(_parse_float(signal_field(104, 8, i), "physical min"))
        pmax.append(_parse_float(signal_field(112, 8, i), "physical max"))
        dmin.append(_parse_int(signal_field(120, 8, i), "digital min"))
        dmax.append(_parse_int(signal_field(128, 8, i), "digital max"))
        prefilters.append(_ascii(signal_field(136, 80, i), "prefilter").rstrip())
        spr.append(_parse_int(signal_field(216, 8, i), "samples per record"))

    for i in range(ns):
        if dmin[i] >= dmax[i]:
            raise DigitalRangeDegenerate(
                f"signal {i}: digital range [{dmin[i]}, {dmax[i]}]"
            )
        if not (-32768 <= dmin[i] and dmax[i] <= 32767):
            raise InvalidHeaderField(
                f"signal {i}: digital range outside 16-bit integers"
            )
        if pmin[i] == pmax[i]:
            raise DigitalRangeDegenerate(
                f"signal {i}: physical range is a single point {pmin[i]}"
            )
        if spr[i] < 1:
            raise InvalidHeaderField(
                f"signal {i}: samples per record must be >= 1, got {spr[i]}"
            )
    if len(set(spr)) > 1:
        raise MixedSamplingRates(f"samples per record differ: {sorted(set(spr))}")

    return EdfHeader(
        version=_ascii(data[0:8], "version").rstrip(),
        patient=patient,
        recording_id=rec_id,
        startdate=startdate,
        starttime=starttime,
        header_bytes=header_bytes,
        record_count=record_count,
        record_duration=record_duration,
        signal_count=ns,
        labels=tuple(labels),
        transducers=tuple(transducers),
        units=tuple(units),
        physical_min=tuple(pmin),
        physical_max=tuple(pmax),
        digital_min=tuple(dmin),
        digital_max=tuple(dmax),
        prefilters=tuple(prefilters),
        samples_per_record=tuple(spr),
    )


def _decode_records(
    data, hdr: EdfHeader, first: int, stop: int, signals: list[int]
) -> np.ndarray:
    """Physical values of data records [first, stop), one row per signal
    index in signals, decoded from their byte offsets into a new read-only
    array.

    Kept apart from read_edf so that no view into data outlives this call;
    a memory-mapped file can then be closed while an error propagates.
    """
    ns, spr = hdr.signal_count, hdr.samples_per_record[0]
    out = np.empty((len(signals), (stop - first) * spr))
    digital = np.frombuffer(
        data,
        dtype="<i2",
        count=(stop - first) * ns * spr,
        offset=hdr.header_bytes + first * ns * spr * 2,
    ).reshape(stop - first, ns, spr)
    for row, i in enumerate(signals):
        scale = (hdr.physical_max[i] - hdr.physical_min[i]) / (
            hdr.digital_max[i] - hdr.digital_min[i]
        )
        # Cast before subtracting: int16 minus a digital_min of -32768 wraps.
        values = out[row].reshape(stop - first, spr)
        values[...] = digital[:, i, :]
        values -= hdr.digital_min[i]
        values *= scale
        values += hdr.physical_min[i]
    out.flags.writeable = False
    return out


def read_edf(data, montage: Montage, window: tuple[float, float] | None = None) -> Recording:
    """Parse EDF bytes into a Recording in physical units (microvolts).

    data is any byte buffer: bytes, or a read-only mmap of the file.
    Digital values map linearly onto [physical_min, physical_max]; records
    concatenate in order. All signals must share one sampling rate.

    window=(t_start, t_end), in seconds from the first sample, decodes only
    the data records that hold the samples core.slice_epochs cuts for an
    epoch of t_end - t_start seconds at t_start, clipped to the file; the
    Recording's start_offset is the first decoded record's time. Header
    and payload-length checks cover the whole file whatever the window.
    """
    hdr = parse_edf_header(data)
    ns = hdr.signal_count
    spr = hdr.samples_per_record[0]
    expected = hdr.record_count * ns * spr * 2
    if len(data) - hdr.header_bytes < expected:
        raise TruncatedData(
            f"need {expected} data bytes, got {len(data) - hdr.header_bytes}"
        )
    mapping = _map_columns(list(hdr.labels), montage)
    fs = spr / hdr.record_duration

    first, stop = 0, hdr.record_count
    if window is not None:
        t_start, t_end = window
        if not (math.isfinite(t_start) and math.isfinite(t_end) and 0 <= t_start <= t_end):
            raise EpochOutOfRange(f"window {window} needs 0 <= t_start <= t_end")
        lo = int(round(t_start * fs))
        # Round half up with slack for the round-off in t_end - t_start, so
        # the window covers slice_epochs' round(window_len * fs) samples.
        hi = lo + math.floor((t_end - t_start) * fs + 0.5 + 1e-6)
        first = min(lo // spr, hdr.record_count)
        stop = min(-(-hi // spr), hdr.record_count)

    samples = _decode_records(data, hdr, first, stop, [col for col, _ in mapping])
    return Recording(
        channels=tuple(info for _, info in mapping),
        samples=samples,
        sampling_rate=fs,
        start_offset=first * hdr.record_duration,
    )


def _fit_decimal(value: float, size: int) -> str:
    """Shortest decimal for a size-char EDF numeric field."""
    for prec in range(10, 0, -1):
        s = f"{value:.{prec}g}"
        if len(s) <= size:
            return s
    raise InvalidHeaderField(f"value {value!r} does not fit in {size} characters")


def _field(text: str, size: int, what: str) -> bytes:
    raw = text.encode("ascii", errors="strict") if text.isascii() else None
    if raw is None or len(raw) > size:
        raise InvalidHeaderField(f"{what} {text!r} does not fit {size} ASCII bytes")
    return raw.ljust(size)


def write_edf(recording: Recording, patient: str = "X", recording_id: str = "X") -> bytes:
    """Serialize a Recording as a single-record EDF byte string.

    Each signal gets a symmetric physical range just above its peak value,
    so the 16-bit quantization error stays below one digital quantum of
    that range. The written physical range is the parsed-back value of its
    8-character decimal form, keeping read_edf(write_edf(r)) consistent.
    """
    ns = len(recording.channels)
    n = recording.n_samples
    if n < 1:
        raise InvalidHeaderField("cannot write an EDF with zero samples")
    duration = _fit_decimal(n / recording.sampling_rate, 8)
    if n / float(duration) != recording.sampling_rate:
        raise InvalidHeaderField(
            f"record duration {n / recording.sampling_rate!r} has no exact "
            "8-character decimal form"
        )
    dmin, dmax = -32768, 32767

    # Physical max strings are held to 7 chars so the negated min fits 8,
    # keeping the written range exactly symmetric after parse-back.
    phys: list[tuple[float, str]] = []
    for i in range(ns):
        peak = float(np.max(np.abs(recording.samples[i]))) if n else 0.0
        target = peak if peak > 0 else 1.0
        for _ in range(64):
            s = _fit_decimal(target, 7)
            a = float(s)
            if a >= peak and a > 0:
                break
            target = (target if target > 0 else 1.0) * 1.01
        else:
            raise InvalidHeaderField(f"cannot frame physical range for {peak}")
        phys.append((a, s))

    head = io.BytesIO()
    head.write(_EDF_MAGIC)
    head.write(_field(patient, 80, "patient id"))
    head.write(_field(recording_id, 80, "recording id"))
    head.write(_field("01.01.00", 8, "start date"))
    head.write(_field("00.00.00", 8, "start time"))
    head.write(_field(str(256 * (ns + 1)), 8, "header size"))
    head.write(_field("", 44, "reserved"))
    head.write(_field("1", 8, "record count"))
    head.write(_field(duration, 8, "record duration"))
    head.write(_field(str(ns), 4, "signal count"))

    def column(values: list[str], size: int, what: str) -> bytes:
        return b"".join(_field(v, size, what) for v in values)

    labels = [c.label for c in recording.channels]
    head.write(column(labels, 16, "label"))
    head.write(column([""] * ns, 80, "transducer"))
    head.write(column(["uV"] * ns, 8, "unit"))
    head.write(column(["-" + s for _, s in phys], 8, "physical min"))
    head.write(column([s for _, s in phys], 8, "physical max"))
    head.write(column([str(dmin)] * ns, 8, "digital min"))
    head.write(column([str(dmax)] * ns, 8, "digital max"))
    head.write(column([""] * ns, 80, "prefilter"))
    head.write(column([str(n)] * ns, 8, "samples per record"))
    head.write(column([""] * ns, 32, "reserved"))

    digital = np.empty((ns, n), dtype="<i2")
    for i in range(ns):
        a, _ = phys[i]
        scale = (dmax - dmin) / (2.0 * a)
        q = np.rint((recording.samples[i] + a) * scale) + dmin
        digital[i] = np.clip(q, dmin, dmax).astype("<i2")
    return head.getvalue() + digital.reshape(1, ns, n).tobytes()


# ----------------------------------------------------------------- montage

def montage_from_json(text: str) -> Montage:
    try:
        doc = json.loads(text)
        electrodes = tuple(
            ChannelInfo(
                label=str(e["label"]),
                position=(float(e["x"]), float(e["y"])),
                kind=str(e.get("kind", "eeg")),
            )
            for e in doc["electrodes"]
        )
        name = str(doc.get("name", "custom"))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InvalidMontage(f"bad montage document: {exc}") from None
    return Montage(name=name, electrodes=electrodes)


def load_montage(name_or_path: str, montage_dir: str | None = None) -> Montage:
    """Resolve a montage by file path, by name in the montage directory
    (BARSTRESS_MONTAGE_DIR by default), or from the bundled set."""
    p = Path(name_or_path)
    if p.suffix != ".json" and not p.is_file():
        directory = montage_dir if montage_dir is not None else os.environ.get(MONTAGE_DIR_ENV)
        p = Path(directory) / f"{name_or_path}.json" if directory else None
        if p is None or not p.is_file():
            if name_or_path == "standard-30":
                return standard_montage()
            raise InvalidMontage(f"unknown montage {name_or_path!r}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidMontage(f"cannot read montage {str(p)!r}: {exc}") from None
    return montage_from_json(text)
