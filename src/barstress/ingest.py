"""Parsers and writers for recordings: CSV, a strict EDF subset, montages.

Parsers are pure functions over byte buffers and either return validated
domain values or raise a typed IngestError; they must survive arbitrary
bytes without crashing. The EDF subset keeps the standard 256-byte header
and field-major signal header layout, little-endian 16-bit records, one
sampling rate for every signal, no annotation channels.

The writers, write_csv and write_edf, take a recording and a length n,
write sample r as the recording's column r mod its length, and return the
file's bytes as a list of chunks to write in order: the header, then
memoryviews of the formatted text or of the 16-bit data records. Given one
period P of a repeating signal, as synth_eeg(spec, one_period=True) renders
a noise-free one (4 s), they format or quantize those P samples once and
repeat them, so neither the full-length samples nor a second copy of the
text is held; a caller that writes the chunks one after another holds each
file's text once. read_csv parses each distinct line once and copies every
repeat from its first occurrence. read_csv_windows and read_edf_windows
read all the epoch windows of a file in one call, with one line scan or
header parse, and only the rows or data records under them, so an epoch's
cost does not grow with the file's length; read_csv and read_edf read one
window.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ChannelInfo, Montage, Recording, standard_montage
from .errors import (
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
    TruncatedData,
    TruncatedHeader,
    UnknownChannelLabel,
)
from .floattext import join_rows

MONTAGE_DIR_ENV = "BARSTRESS_MONTAGE_DIR"

# Rows write_csv formats per block: large enough to amortise the per-block
# numpy calls, small enough that the block's copy and its text stay a few MB.
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


def _window_samples(window: tuple[float, float], fs: float) -> tuple[int, int]:
    """Sample indices [lo, hi) that hold the samples core.slice_epochs cuts
    for an epoch of t_end - t_start seconds at t_start."""
    t_start, t_end = window
    if not (math.isfinite(t_start) and math.isfinite(t_end) and 0 <= t_start <= t_end):
        raise EpochOutOfRange(f"window {window} needs 0 <= t_start <= t_end")
    start, length = t_start * fs, (t_end - t_start) * fs
    if not (math.isfinite(start) and math.isfinite(length)):
        raise EpochOutOfRange(f"epoch at {t_start} s to {t_end} s has no sample index at {fs} Hz")
    # Round half up with slack for the round-off in t_end - t_start, so
    # the window covers slice_epochs' round(window_len * fs) samples.
    lo = int(round(start))
    return lo, lo + math.floor(length + 0.5 + 1e-6)


# --------------------------------------------------------------------- CSV

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


def _distinct_lines(data: bytes) -> tuple[list, np.ndarray]:
    """The distinct non-blank lines of the input, in order of first
    occurrence, and the index in that list of every non-blank line of the
    file, in file order. So the file's first non-blank line has index 0,
    and every index occurs.

    Plain ASCII bytes (see _plain_ascii) are split and kept as bytes, each
    line one object, and never decoded whole; numpy's loadtxt reads them
    as it reads their text. Other bytes are decoded and split as text.
    """
    if isinstance(data, bytes) and _plain_ascii(data):
        raw = data.splitlines()
        isspace = bytes.isspace
    else:
        try:
            raw = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise MalformedRow(f"input is not valid UTF-8: {exc}") from None
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


def _plain_lines(text: bytes, ends: np.ndarray) -> bool:
    """Whether text, whole lines from a line start that end at the offsets
    ends, is plain ASCII (see _plain_ascii), ends its lines in \\n or \\r\\n
    only, and has no line that is empty or only spaces and tabs. Then its
    lines are the non-blank lines _distinct_lines finds in it.
    """
    if not _plain_ascii(text):
        return False
    codes = np.frombuffer(text, np.uint8)
    if b"\r" in text:
        after_cr = np.flatnonzero(codes == 13) + 1
        if after_cr[-1] == len(text) or (codes[after_cr] != 10).any():
            return False
    # Only a line that starts with a space, a control byte or its end can be blank.
    if codes[0] > 32 and (codes[ends[:-1]] > 32).all():
        return True
    return _BLANK_LINE.search(text, 0, len(text) - text.endswith(b"\n")) is None


_BLANK_LINE = re.compile(rb"(?m)^[ \t]*\r?$")

# Bytes the windowed CSV read scans at a time for line ends.
_SCAN_BYTES = 1 << 20


def _release(data, end: int) -> None:
    """Unmap the pages of data before end when data is a memory map, so
    the pages already read do not count in the process's memory; the file
    stays in the page cache."""
    if isinstance(data, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
        data.madvise(mmap.MADV_DONTNEED, 0, end)


def _window_texts(data, spans: list[tuple[int, int]], header: bool):
    """For each line span (first, stop), in order: line 0 when header is
    set, then lines [first, stop) of data, as one bytes object; None when
    data has fewer than stop lines or its lines before stop are not all
    plain (see _plain_lines).

    One scan counts lines by \\n, a chunk of whole lines at a time, and
    goes on from the last plain line it reached, so spans in increasing
    order scan a plain file's bytes once and no byte after the last stop.
    The pages of a memory map are released once scanned, so memory does
    not grow with the prefix.
    """
    ends = {}  # end offset of line j, for each j in wanted
    wanted = {j for span in spans for j in (span[0] - 1, span[1] - 1)} | {0 if header else -1}
    pos = line = 0
    for first, stop in spans:
        while line < stop:
            n = _SCAN_BYTES
            while True:  # grow the chunk until it holds a whole line
                chunk = data[pos : pos + n]
                eof = pos + len(chunk) >= len(data)
                cut = chunk.rfind(b"\n") + 1
                if cut or eof:
                    break
                n *= 2
            if not chunk:
                break
            # From the start, not from pos: a page fault may map again the
            # earlier pages of a large page-cache folio.
            _release(data, pos + len(chunk))
            if not eof:
                chunk = chunk[:cut]
            line_ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10) + 1
            if not chunk.endswith(b"\n"):
                line_ends = np.append(line_ends, len(chunk))
            if stop - line <= len(line_ends):
                line_ends = line_ends[: stop - line]
                chunk = chunk[: line_ends[-1]]
            ends.update((j, pos + int(line_ends[j - line])) for j in wanted if 0 <= j - line < len(line_ends))
            if not _plain_lines(chunk, line_ends):
                break
            pos += len(chunk)
            line += len(line_ends)
        chunk = None  # not held while the caller parses the window
        head = data[: ends.get(0, 0)] if header else b""
        yield (head + data[ends.get(first - 1, 0) : ends[stop - 1]]) if line >= stop else None


def read_csv(
    data, layout: CsvLayout, sampling_rate: float, montage: Montage, window: tuple[float, float] | None = None
) -> Recording:
    """The Recording read_csv_windows reads for one window."""
    return read_csv_windows(data, layout, sampling_rate, montage, [window])[0]


def read_csv_windows(
    data, layout: CsvLayout, sampling_rate: float, montage: Montage, windows: list[tuple[float, float] | None]
) -> list[Recording]:
    """Parse a delimited text recording into one Recording per window.

    data is a byte buffer: bytes, or a read-only mmap of the file.
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

    A window of None reads every line. A window (t_start, t_end), in
    seconds from the first sample, parses the header line and only the
    rows that hold the samples core.slice_epochs cuts for an epoch of
    t_end - t_start seconds at t_start, if the lines up to its last row
    are plain (see _plain_lines); start_offset is its first row's time.
    An empty window, a file that breaks this rule or ends before the
    window, and a window whose rows fail to parse take the whole read,
    made once per call at most, so every error is the whole read's.
    """
    # A bad sampling rate is the Recording's to report, from the whole read.
    fs_ok = math.isfinite(sampling_rate) and sampling_rate > 0
    spans = [_window_samples(w, sampling_rate) if fs_ok and w is not None else None for w in windows]
    spans = [s if s and s[0] < s[1] else None for s in spans]
    skip = int(layout.has_header)
    texts = _window_texts(data, [(skip + lo, skip + hi) for lo, hi in filter(None, spans)], layout.has_header)
    whole, out = None, []
    for span in spans:
        rec = None
        if span and (text := next(texts)):
            try:
                rec = _parse_csv(text, layout, sampling_rate, montage, span[0] / sampling_rate)
            except IngestError:
                pass  # the whole read names the file's first defect
            del text  # not held while the next window is scanned
        if rec is None and whole is None:
            raw = data if isinstance(data, bytes) else bytes(data)
            _release(data, len(raw))
            whole = _parse_csv(raw, layout, sampling_rate, montage)
        out.append(whole if rec is None else rec)
    return out


def _parse_csv(
    data: bytes,
    layout: CsvLayout,
    sampling_rate: float,
    montage: Montage,
    start_offset: float = 0.0,
) -> Recording:
    """read_csv of every line of data."""
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
    return Recording(
        channels=channels, samples=samples, sampling_rate=sampling_rate, start_offset=start_offset
    )


def _repeated_columns(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Columns [start, stop) of x repeated along its last axis, column r
    being x's column r mod its width, as a new array: a slice copy per
    repeat, with no index array."""
    width = x.shape[1]
    out = np.empty((x.shape[0], stop - start))
    at = 0
    while at < stop - start:
        col = (start + at) % width
        run = min(width - col, stop - start - at)
        out[:, at : at + run] = x[:, col : col + run]
        at += run
    return out


def _written_length(recording: Recording, n_samples: int | None) -> int:
    """The samples per channel a writer writes: n_samples, or the
    recording's length when it is None. Sample r is column r mod the
    recording's length, so a recording with no samples can write none."""
    n = recording.n_samples if n_samples is None else n_samples
    if n < 0 or (n > 0 and recording.n_samples == 0):
        raise InvalidSampleCount(f"cannot write {n} samples of a recording of {recording.n_samples}")
    return n


def write_csv(
    recording: Recording, layout: CsvLayout = CsvLayout(), n_samples: int | None = None
) -> list:
    """Serialize a Recording as delimited text of n_samples rows (the
    recording's length by default); read_csv inverts it. The text is
    returned as a list of byte chunks, in order: the header, then
    memoryviews of the formatted text. Row r holds sample column
    r mod recording.n_samples, so a recording of one period P of a
    repeating signal writes that signal at any length.

    Each float is written as repr writes it, which round-trips exactly;
    floattext.join_rows computes the texts of a whole block of rows. The
    P rows are formatted once, _CSV_BLOCK_ROWS at a time; the body is
    that text n // P times, then the first n % P rows of it as slices, so
    the text is held once. A time column makes every row distinct: its
    rows are formatted block by block, each block's samples gathered from
    columns r mod P.
    """
    n = _written_length(recording, n_samples)
    delim = layout.delimiter
    x = recording.samples[:, :n]
    period = x.shape[1]
    tcol = layout.time_column
    labels = list(recording.labels)
    if tcol is not None:
        if tcol > len(labels):
            raise MalformedRow(f"time_column {tcol} outside {len(labels) + 1} columns")
        labels.insert(tcol, "time_s")
    head = (delim.join(labels) + "\n").encode("utf-8") if layout.has_header else b""
    span = n if tcol is not None else period

    texts = []
    for start in range(0, span, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, span)
        block = _repeated_columns(x, start, stop).T
        if tcol is not None:
            times = np.arange(start, stop) / recording.sampling_rate
            block = np.insert(block, tcol, times, axis=1)
        texts.append(memoryview(join_rows(block, delim)))
    reps, tail = divmod(n, span or 1)  # span is 0 only when n is
    blocks, lines = divmod(tail, _CSV_BLOCK_ROWS)
    chunks = [head, *texts * reps, *texts[:blocks]]
    if lines:
        ends = np.flatnonzero(np.frombuffer(texts[blocks], np.uint8) == 10)
        chunks.append(texts[blocks][: ends[lines - 1] + 1])
    return chunks


# --------------------------------------------------------------------- EDF

_EDF_MAGIC = b"0       "

# Samples write_edf quantizes per block: its float64 scratch stays near
# the size of a core's cache.
_EDF_BLOCK_SAMPLES = 1 << 18


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


def _parse_text(buf: bytes, what: str) -> str:
    return _ascii(buf, what).rstrip()


# The EDF header layout, stated once for parse_edf_header and write_edf.
# A row is (EdfHeader field, or None for a reserved field; width in bytes;
# the field's name in error messages; how its ASCII text is read). The
# fixed part fills the first 256 bytes. In the signal part each row is
# signal_count fields of its width, one per signal, before the next row.
_EDF_FIXED = (
    ("version", 8, "version", _parse_text),
    ("patient", 80, "patient id", _parse_text),
    ("recording_id", 80, "recording id", _parse_text),
    ("startdate", 8, "start date", _parse_text),
    ("starttime", 8, "start time", _parse_text),
    ("header_bytes", 8, "header size", _parse_int),
    (None, 44, "reserved", None),
    ("record_count", 8, "record count", _parse_int),
    ("record_duration", 8, "record duration", _parse_float),
    ("signal_count", 4, "signal count", _parse_int),
)
_EDF_SIGNAL = (
    ("labels", 16, "label", _parse_text),
    ("transducers", 80, "transducer", _parse_text),
    ("units", 8, "unit", _parse_text),
    ("physical_min", 8, "physical min", _parse_float),
    ("physical_max", 8, "physical max", _parse_float),
    ("digital_min", 8, "digital min", _parse_int),
    ("digital_max", 8, "digital max", _parse_int),
    ("prefilters", 80, "prefilter", _parse_text),
    ("samples_per_record", 8, "samples per record", _parse_int),
    (None, 32, "reserved", None),
)


def parse_edf_header(data: bytes) -> EdfHeader:
    """Parse and validate the 256-byte fixed header plus signal headers, in
    file order: of two bad signal fields the error names the earlier one."""
    if len(data) < 256:
        raise TruncatedHeader(f"need 256 header bytes, got {len(data)}")
    if data[0:8] != _EDF_MAGIC:
        raise BadMagic(f"bad version field {data[0:8]!r}")
    fields, offset = {}, 0
    for name, size, what, parse in _EDF_FIXED:
        if name is not None:
            fields[name] = parse(data[offset : offset + size], what)
        offset += size

    ns, header_bytes = fields["signal_count"], fields["header_bytes"]
    record_count, record_duration = fields["record_count"], fields["record_duration"]
    if ns < 1:
        raise InvalidHeaderField(f"signal count must be >= 1, got {ns}")
    if header_bytes != 256 * (ns + 1):
        raise InvalidHeaderField(f"header size {header_bytes} != 256*(ns+1) = {256 * (ns + 1)}")
    if record_count == -1:
        raise InvalidHeaderField("unknown record count (-1) is not supported")
    if record_count < 1:
        raise InvalidHeaderField(f"record count must be >= 1, got {record_count}")
    if record_duration <= 0:
        raise InvalidHeaderField(f"record duration must be > 0, got {record_duration}")
    if len(data) < header_bytes:
        raise TruncatedHeader(f"declared header of {header_bytes} bytes, got {len(data)}")

    for name, size, what, parse in _EDF_SIGNAL:
        if name is not None:
            fields[name] = tuple(
                parse(data[offset + size * i : offset + size * (i + 1)], what) for i in range(ns)
            )
        offset += size * ns

    hdr = EdfHeader(**fields)
    pmin, pmax, dmin, dmax = hdr.physical_min, hdr.physical_max, hdr.digital_min, hdr.digital_max
    spr = hdr.samples_per_record
    for i in range(ns):
        if dmin[i] >= dmax[i]:
            raise DigitalRangeDegenerate(f"signal {i}: digital range [{dmin[i]}, {dmax[i]}]")
        if not (-32768 <= dmin[i] and dmax[i] <= 32767):
            raise InvalidHeaderField(f"signal {i}: digital range outside 16-bit integers")
        if pmin[i] == pmax[i]:
            raise DigitalRangeDegenerate(f"signal {i}: physical range is a single point {pmin[i]}")
        if spr[i] < 1:
            raise InvalidHeaderField(f"signal {i}: samples per record must be >= 1, got {spr[i]}")
    if len(set(spr)) > 1:
        raise MixedSamplingRates(f"samples per record differ: {sorted(set(spr))}")
    return hdr


def _decode_records(
    data, hdr: EdfHeader, first: int, stop: int, signals: list[int]
) -> np.ndarray:
    """Physical values of data records [first, stop), one row per signal
    index in signals, decoded from their byte offsets into a new read-only
    array.

    Kept apart from its caller so that no view into data outlives this call;
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
    """The Recording read_edf_windows reads for one window."""
    return read_edf_windows(data, montage, [window])[0]


def read_edf_windows(data, montage: Montage, windows: list[tuple[float, float] | None]) -> list[Recording]:
    """Parse EDF bytes into one Recording per window, in microvolts.

    data is any byte buffer: bytes, or a read-only mmap of the file.
    Digital values map linearly onto [physical_min, physical_max]; records
    concatenate in order. All signals must share one sampling rate. The
    header and payload-length checks run once and cover the whole file.

    A window of None decodes every data record. A window (t_start, t_end),
    in seconds from the first sample, decodes only the data records that
    hold the samples core.slice_epochs cuts for an epoch of t_end - t_start
    seconds at t_start, clipped to the file; the Recording's start_offset
    is the first decoded record's time.
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
    channels, signals = tuple(info for _, info in mapping), [col for col, _ in mapping]
    fs = spr / hdr.record_duration

    out = []
    for window in windows:
        first, stop = 0, hdr.record_count
        if window is not None:
            lo, hi = _window_samples(window, fs)
            first = min(lo // spr, hdr.record_count)
            stop = min(-(-hi // spr), hdr.record_count)
        samples = _decode_records(data, hdr, first, stop, signals)
        start = first * hdr.record_duration
        out.append(Recording(channels=channels, samples=samples, sampling_rate=fs, start_offset=start))
    return out


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


def write_edf(recording: Recording, n_samples: int | None = None) -> list:
    """Serialize a Recording as EDF of n_samples samples per signal (the
    recording's length by default), returned as a list of chunks, in
    order: the header, then memoryviews of the 16-bit data records.
    Sample r is column r mod recording.n_samples, so a recording of one
    period P of a repeating signal writes that signal at any length.

    Data records are 1 s long when one second is a whole number of
    samples that divides n_samples, as the EDF spec recommends; otherwise
    the whole recording is one data record. The P samples, or all
    n_samples when P is not a whole number of records, are quantized once
    into one record-major buffer, _EDF_BLOCK_SAMPLES samples at a time;
    the body is that buffer n // P times, then a slice of it for the
    n % P samples left over. The buffer is never copied.

    Each signal gets a symmetric physical range just above its peak value,
    so the 16-bit quantization error stays below one digital quantum of
    that range. The written physical range is the parsed-back value of its
    8-character decimal form, so the reader decodes with the range the
    samples were quantized to.
    """
    ns = len(recording.channels)
    n = _written_length(recording, n_samples)
    if n < 1:
        raise InvalidHeaderField("cannot write an EDF with zero samples")
    fs = recording.sampling_rate
    spr = int(fs) if float(fs).is_integer() and n % int(fs) == 0 else n
    duration = _fit_decimal(spr / fs, 8)
    if spr / float(duration) != fs:
        raise InvalidHeaderField(
            f"record duration {spr / fs!r} has no exact 8-character decimal form"
        )
    x = recording.samples[:, :n]
    period = x.shape[1] if x.shape[1] % spr == 0 else n
    dmin, dmax = -32768, 32767

    # Physical max strings are held to 7 chars so the negated min fits 8,
    # keeping the written range exactly symmetric after parse-back. Every
    # column of x is written, so the peak of x is the written signal's.
    phys: list[tuple[float, str]] = []
    for peak in np.maximum(x.max(axis=1), -x.min(axis=1)).tolist():
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

    # Each named field's text, in the signal part one text per signal;
    # reserved fields are blank.
    texts = {
        "version": _EDF_MAGIC.decode(), "patient": "X", "recording_id": "X",
        "startdate": "01.01.00", "starttime": "00.00.00",
        "header_bytes": str(256 * (ns + 1)), "record_count": str(n // spr),
        "record_duration": duration, "signal_count": str(ns),
        "labels": [c.label for c in recording.channels],
        "transducers": [""] * ns,
        "units": ["uV"] * ns,
        "physical_min": ["-" + s for _, s in phys],
        "physical_max": [s for _, s in phys],
        "digital_min": [str(dmin)] * ns,
        "digital_max": [str(dmax)] * ns,
        "prefilters": [""] * ns,
        "samples_per_record": [str(spr)] * ns,
    }
    head = b"".join(
        [_field(texts[name] if name else "", size, what) for name, size, what, _ in _EDF_FIXED]
        + [
            _field(text, size, what)
            for name, size, what, _ in _EDF_SIGNAL
            for text in (texts[name] if name else [""] * ns)
        ]
    )

    # Blocks of whole records of every signal; a record longer than a
    # block is quantized a few signals at a time.
    amp = np.array([a for a, _ in phys])[:, None]
    scale = (dmax - dmin) / (2.0 * amp)
    records = period // spr
    digital = np.empty((records, ns, spr), dtype="<i2")
    step = max(1, _EDF_BLOCK_SAMPLES // (max(ns, 1) * spr))
    width = max(1, _EDF_BLOCK_SAMPLES // (step * spr))
    for first in range(0, records, step):
        stop = min(first + step, records)
        for lo in range(0, ns, width):
            hi = min(lo + width, ns)
            q = _repeated_columns(x[lo:hi], first * spr, stop * spr)
            q += amp[lo:hi]
            q *= scale[lo:hi]
            np.rint(q, out=q)
            q += dmin
            np.clip(q, dmin, dmax, out=q)
            digital[first:stop, lo:hi] = q.reshape(hi - lo, stop - first, spr).swapaxes(0, 1)
    body = memoryview(digital).cast("B")
    reps, tail = divmod(n, period)
    chunks = [head, *[body] * reps]
    if tail:
        chunks.append(body[: tail * ns * 2])
    return chunks


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


def load_montage(name_or_path: str) -> Montage:
    """Resolve a montage by file path, by name in the directory that
    BARSTRESS_MONTAGE_DIR names, or from the bundled set."""
    p = Path(name_or_path)
    if p.suffix != ".json" and not p.is_file():
        directory = os.environ.get(MONTAGE_DIR_ENV)
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
