"""Re-lay an EDF of one sampling rate, as ingest.write_edf writes it, into
data records of another length."""

import numpy as np

from barstress import ingest


def relay_records(blob: bytes, record_samples: int) -> bytes:
    """blob re-laid as data records of record_samples samples per signal,
    from records of any length; record_samples may be the whole recording.

    The digital samples and the calibration stay as they are; only the
    record count, record duration and samples-per-record fields and the
    order of the payload change, so the file decodes to the same values.
    The record duration is written as write_edf writes it.
    """
    hdr = ingest.parse_edf_header(blob)
    ns, spr, count = hdr.signal_count, hdr.samples_per_record[0], hdr.record_count
    n = count * spr
    assert n % record_samples == 0
    records = n // record_samples
    fs = spr / hdr.record_duration
    duration = ingest._fit_decimal(record_samples / fs, 8)
    assert record_samples / float(duration) == fs

    def field(value, size):
        return str(value).encode("ascii").ljust(size)

    head = bytearray(blob[: hdr.header_bytes])
    head[236:244] = field(records, 8)
    head[244:252] = field(duration, 8)
    spr_at = 256 + 216 * ns
    head[spr_at : spr_at + 8 * ns] = field(record_samples, 8) * ns
    digital = np.frombuffer(blob, dtype="<i2", count=n * ns, offset=hdr.header_bytes)
    signals = digital.reshape(count, ns, spr).transpose(1, 0, 2).reshape(ns, n)
    payload = signals.reshape(ns, records, record_samples).transpose(1, 0, 2)
    return bytes(head) + payload.tobytes()
