"""Cut a single-record EDF, as ingest.write_edf writes it, into data records."""

import numpy as np

from barstress import ingest


def split_records(blob: bytes, record_samples: int) -> bytes:
    """blob re-laid as data records of record_samples samples per signal.

    The digital samples and the calibration stay as they are; only the
    record count, record duration and samples-per-record fields and the
    order of the payload change, so the file decodes to the same values.
    """
    hdr = ingest.parse_edf_header(blob)
    ns, n = hdr.signal_count, hdr.samples_per_record[0]
    assert hdr.record_count == 1 and n % record_samples == 0
    records = n // record_samples
    fs = n / hdr.record_duration
    duration = f"{record_samples / fs:g}"
    assert record_samples / float(duration) == fs

    def field(value, size):
        return str(value).encode("ascii").ljust(size)

    head = bytearray(blob[: hdr.header_bytes])
    head[236:244] = field(records, 8)
    head[244:252] = field(duration, 8)
    spr_at = 256 + 216 * ns
    head[spr_at : spr_at + 8 * ns] = field(record_samples, 8) * ns
    digital = np.frombuffer(blob, dtype="<i2", offset=hdr.header_bytes)
    payload = digital.reshape(ns, records, record_samples).transpose(1, 0, 2)
    return bytes(head) + payload.tobytes()
