"""Exception taxonomy for the pipeline.

Every error raised on purpose by this package derives from PipelineError, so
callers (and the fuzzing harness) can catch one base type. ValidationError
covers bad user input or bad data; anything else escaping a parser is a bug.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Invalid input data, configuration, or arguments."""


# ---------------------------------------------------------------- recordings

class InvalidRecording(ValidationError):
    """Recording constraints violated (NaN samples, ragged channels, ...)."""


class InvalidMontage(ValidationError):
    """Montage constraints violated (duplicate labels, no EEG electrodes)."""


class InvalidProtocol(ValidationError):
    """Session protocol constraints violated."""


class EpochOutOfRange(ValidationError):
    """An epoch window extends past the end of the recording."""


class EmptyProtocol(ValidationError):
    """Protocol has no epoch times to slice."""


class InvalidSampleCount(ValidationError):
    """A writer asked for a negative length, or for samples of an empty recording."""


# ---------------------------------------------------------------- ingest

class IngestError(ValidationError):
    """Base class for parse failures in CSV/EDF/montage readers."""


class MalformedRow(IngestError):
    """CSV row with the wrong number of fields."""


class NonNumericSample(IngestError):
    """CSV field that does not parse as a finite number."""


class UnknownChannelLabel(IngestError):
    """Header labels do not line up with the montage."""


class BadMagic(IngestError):
    """EDF version field is not the expected magic value."""


class TruncatedHeader(IngestError):
    """Byte stream ends before the declared header does."""


class TruncatedData(IngestError):
    """Byte stream ends before the declared data records do."""


class MixedSamplingRates(IngestError):
    """EDF signals disagree on samples per record."""


class DigitalRangeDegenerate(IngestError):
    """EDF digital or physical calibration range is empty or inverted."""


class InvalidHeaderField(IngestError):
    """EDF header field failed to parse or holds a nonsensical value."""


# ---------------------------------------------------------------- spectral

class InvalidConfig(ValidationError):
    """Spectral configuration violates its invariants."""


class EmptySegment(ValidationError):
    """Periodogram requested for a zero-length segment."""


class SegmentTooLong(ValidationError):
    """Epoch too short for the configured segmentation."""


class BandOutOfRange(ValidationError):
    """Band edges fall outside [0, Nyquist] for the given spectrum."""


class ZeroDenominatorPower(ValidationError):
    """Band ratio denominator integrates to zero power."""


class NonPositiveCurrent(ValidationError):
    """Relative increase undefined for current ratio <= 0."""


# ---------------------------------------------------------------- topo

class LengthMismatch(ValidationError):
    """Vector length does not match the montage or the partner vector."""


class ZeroVector(ValidationError):
    """Cosine similarity undefined for a zero-magnitude vector."""


class DegenerateRange(ValidationError):
    """Palette range has min >= max."""


# ---------------------------------------------------------------- regress

class UndefinedAtZero(ValidationError):
    """Sigmoid evaluation at x = 0 with a non-positive slope."""


class TooFewPoints(ValidationError):
    """Not enough points for the requested model."""


class DegenerateX(ValidationError):
    """All x values identical; no curve is identifiable."""


class NonPositiveRss(ValidationError):
    """AIC undefined for RSS <= 0; exact fits use the sentinel path."""


class MismatchedData(ValidationError):
    """Model comparison across fits of different data."""


# ---------------------------------------------------------------- synth

class BandAboveNyquist(ValidationError):
    """Synthesis band extends past half the sampling rate."""


# ---------------------------------------------------------------- cli

class MissingArtifacts(ValidationError):
    """Report requested but no prior command outputs were found."""


class MalformedArtifact(ValidationError):
    """A prior command's output file is not shaped as that command writes it."""
