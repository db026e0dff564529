"""The bytes of a file that ingest's writers return as a list of chunks."""


def joined(chunks) -> bytes:
    """The file ingest.write_csv or ingest.write_edf returns as chunks."""
    return b"".join(chunks)
