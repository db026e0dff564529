"""Domain types shared by the whole pipeline.

Recordings, montages, frequency bands, session protocol metadata, and epoch
slicing. Everything here is immutable after construction and safe to share
across workers; numpy sample buffers are frozen read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyProtocol,
    EpochOutOfRange,
    InvalidMontage,
    InvalidProtocol,
    InvalidRecording,
)

CHANNEL_KINDS = frozenset({"eeg", "reference"})
PHASES = frozenset({"baseline", "during_gameplay", "after_gameplay"})
GAME_TYPES = frozenset({"puzzle", "strategic", "combinational", "none"})
GAMER_TYPES = frozenset({"gamer", "non_gamer"})
MUSIC_TYPES = frozenset({"low_pitch", "medium_pitch", "high_pitch", "no_music", "none"})

# Epoch start times in seconds from phase start, used when a protocol does not
# name its own. Gameplay is probed every 15 minutes; relaxation every 3.
DEFAULT_EPOCH_TIMES = {
    "baseline": (0.0,),
    "during_gameplay": (900.0, 1800.0, 2700.0, 3600.0),
    "after_gameplay": (0.0, 180.0, 360.0, 540.0, 720.0),
}


@dataclass(frozen=True)
class ChannelInfo:
    """One electrode: 10-20 label, projected scalp position, and kind.

    position is an (x, y) point in the closed unit disc, nose toward +y,
    left ear toward -x.
    """

    label: str
    position: tuple[float, float]
    kind: str = "eeg"

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise InvalidMontage(f"unknown channel kind {self.kind!r}")
        x, y = self.position
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidMontage(f"non-finite position for {self.label!r}")
        if math.hypot(x, y) > 1.0 + 1e-9:
            raise InvalidMontage(
                f"electrode {self.label!r} lies outside the unit disc"
            )


@dataclass(frozen=True)
class Montage:
    """Named set of electrodes. Analysis operates on the eeg-kind subset."""

    name: str
    electrodes: tuple[ChannelInfo, ...]

    def __post_init__(self):
        object.__setattr__(self, "electrodes", tuple(self.electrodes))
        labels = [e.label for e in self.electrodes]
        if len(set(labels)) != len(labels):
            raise InvalidMontage(f"duplicate electrode labels in {self.name!r}")
        if not any(e.kind == "eeg" for e in self.electrodes):
            raise InvalidMontage(f"montage {self.name!r} has no EEG electrodes")

    @property
    def eeg_electrodes(self) -> tuple[ChannelInfo, ...]:
        return tuple(e for e in self.electrodes if e.kind == "eeg")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.electrodes)

    def positions(self) -> np.ndarray:
        """(n_eeg, 2) array of unit-disc coordinates, montage order."""
        return np.array([e.position for e in self.eeg_electrodes], dtype=np.float64)


@dataclass(frozen=True)
class BandDefinition:
    """Named frequency band [f_low, f_high] in Hz."""

    name: str
    f_low: float
    f_high: float

    def __post_init__(self):
        if not (
            math.isfinite(self.f_low)
            and math.isfinite(self.f_high)
            and 0.0 <= self.f_low < self.f_high
        ):
            raise InvalidProtocol(
                f"band {self.name!r} needs 0 <= f_low < f_high, "
                f"got [{self.f_low}, {self.f_high}]"
            )


DEFAULT_BANDS: dict[str, BandDefinition] = {
    "delta": BandDefinition("delta", 0.5, 4.0),
    "theta": BandDefinition("theta", 4.0, 8.0),
    "alpha": BandDefinition("alpha", 8.0, 13.0),
    "beta": BandDefinition("beta", 13.0, 30.0),
}


@dataclass(frozen=True)
class SessionProtocol:
    """Where in the session a recording sits and when to probe it.

    epoch_times are seconds from phase start; None picks the phase default.
    Music only applies to the relaxation phase, so any other phase must
    carry music_type="none".
    """

    phase: str
    game_type: str = "none"
    gamer_type: str = "non_gamer"
    music_type: str = "none"
    epoch_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.phase not in PHASES:
            raise InvalidProtocol(f"unknown phase {self.phase!r}")
        if self.game_type not in GAME_TYPES:
            raise InvalidProtocol(f"unknown game_type {self.game_type!r}")
        if self.gamer_type not in GAMER_TYPES:
            raise InvalidProtocol(f"unknown gamer_type {self.gamer_type!r}")
        if self.music_type not in MUSIC_TYPES:
            raise InvalidProtocol(f"unknown music_type {self.music_type!r}")
        if self.music_type != "none" and self.phase != "after_gameplay":
            raise InvalidProtocol(
                "music_type applies only to the after_gameplay phase"
            )
        times = self.epoch_times
        if times is None:
            times = DEFAULT_EPOCH_TIMES[self.phase]
        times = tuple(float(t) for t in times)
        for t in times:
            if not math.isfinite(t) or t < 0:
                raise InvalidProtocol(f"epoch time {t!r} must be finite and >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidProtocol("epoch_times must be strictly increasing")
        object.__setattr__(self, "epoch_times", times)


@dataclass(frozen=True)
class Recording:
    """Multichannel voltage trace in microvolts.

    samples is a read-only (n_channels, n_samples) float64 array; row order
    matches channels. start_offset is seconds from session start to the
    first sample.

    samples is copied unless it already is a read-only, C-contiguous
    float64 ndarray that owns its data, which no caller can write through
    a view; a producer that builds such an array hands it over without a
    second full-size copy.
    """

    channels: tuple[ChannelInfo, ...]
    samples: np.ndarray
    sampling_rate: float
    start_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        arr = self.samples
        if not (
            type(arr) is np.ndarray
            and arr.dtype == np.float64
            and arr.flags.c_contiguous
            and not arr.flags.writeable
            and arr.base is None
        ):
            arr = np.array(arr, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise InvalidRecording(f"samples must be 2-D, got shape {arr.shape}")
        if arr.shape[0] != len(self.channels):
            raise InvalidRecording(
                f"{len(self.channels)} channels but {arr.shape[0]} sample rows"
            )
        if arr.size and not np.isfinite(arr).all():
            raise InvalidRecording("samples contain NaN or infinite values")
        labels = [c.label for c in self.channels]
        if len(set(labels)) != len(labels):
            raise InvalidRecording("duplicate channel labels")
        if not (math.isfinite(self.sampling_rate) and self.sampling_rate > 0):
            raise InvalidRecording(f"sampling_rate must be > 0, got {self.sampling_rate}")
        if not math.isfinite(self.start_offset) or self.start_offset < 0:
            raise InvalidRecording(f"start_offset must be finite and >= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.n_samples / self.sampling_rate

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.channels)


@dataclass(frozen=True)
class Epoch:
    """One analysis window cut from a Recording."""

    samples: np.ndarray
    t_start: float
    t_end: float
    sampling_rate: float
    channels: tuple[ChannelInfo, ...] = field(default=())

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.channels)


def slice_epochs(
    recording: Recording,
    protocol: SessionProtocol,
    window_len: float = 10.0,
) -> list[Epoch]:
    """Cut one window of window_len seconds per protocol epoch time.

    Epoch times are seconds from phase start. Sample indices count from
    session start: an epoch at t starts at round(t * fs), and the recording
    holds samples from round(start_offset * fs) on. Rounding t and the
    offset separately cuts the same samples from a recording that starts
    mid-session as from one that starts at zero. Windows must fit entirely
    inside the recording.
    """
    if not protocol.epoch_times:
        raise EmptyProtocol("protocol has no epoch times")
    if window_len <= 0:
        raise EpochOutOfRange(f"window_len must be > 0, got {window_len}")
    fs = recording.sampling_rate
    win = int(round(window_len * fs))
    first = int(round(recording.start_offset * fs))
    end = first + recording.n_samples
    epochs = []
    for t in protocol.epoch_times:
        start = int(round(t * fs))
        if start < first:
            raise EpochOutOfRange(
                f"epoch at {t} s starts at sample {start}, before the "
                f"recording's first sample {first}"
            )
        if start + win > end:
            raise EpochOutOfRange(
                f"epoch at {t} s needs samples [{start}, {start + win}) "
                f"but recording has {end}"
            )
        epochs.append(
            Epoch(
                samples=recording.samples[:, start - first : start - first + win],
                t_start=t,
                t_end=t + window_len,
                sampling_rate=fs,
                channels=recording.channels,
            )
        )
    return epochs


# ----------------------------------------------------------------- montage

# Rows of the adapted 10-20 layout as (arc fraction nasion->inion, electrodes).
# Each electrode carries its left-right arc fraction; z sits on the midline.
# T7/T8 are the full-lateral temporal sites of the classic scheme.
_ROWS: tuple[tuple[float, tuple[tuple[str, float], ...]], ...] = (
    (0.10, (("Fp1", 0.10), ("Fp2", 0.90))),
    (0.30, (("F7", 0.10), ("F3", 0.30), ("Fz", 0.50), ("F4", 0.70), ("F8", 0.90))),
    (0.40, (("FT7", 0.10), ("FC3", 0.30), ("FCz", 0.50), ("FC4", 0.70), ("FT8", 0.90))),
    (0.50, (("T7", 0.00), ("C3", 0.30), ("Cz", 0.50), ("C4", 0.70), ("T8", 1.00))),
    (0.60, (("TP7", 0.10), ("CP3", 0.30), ("CPz", 0.50), ("CP4", 0.70), ("TP8", 0.90))),
    (0.70, (("P7", 0.10), ("P3", 0.30), ("Pz", 0.50), ("P4", 0.70), ("P8", 0.90))),
    (0.90, (("O1", 0.10), ("Oz", 0.50), ("O2", 0.90))),
)


def _project(theta_frac: float, phi_frac: float) -> tuple[float, float]:
    """Spherical scalp position to unit disc, azimuthal equidistant.

    theta_frac: 0 at nasion, 1 at inion, along the midline arc.
    phi_frac: 0 full left, 0.5 midline, 1 full right, along the row arc.
    The disc radius is the vertex angle over a right angle, so the
    ear-level ring lands exactly on the rim.
    """
    theta = theta_frac * math.pi
    phi = (phi_frac - 0.5) * math.pi
    x3 = math.sin(theta) * math.sin(phi)
    y3 = math.cos(theta)
    z3 = math.sin(theta) * math.cos(phi)
    r = math.acos(max(-1.0, min(1.0, z3))) / (math.pi / 2.0)
    horiz = math.hypot(x3, y3)
    if horiz < 1e-12:
        return (0.0, 0.0)
    return (r * x3 / horiz, r * y3 / horiz)


def standard_montage() -> Montage:
    """The bundled 30-electrode adapted 10-20 montage."""
    electrodes = []
    for theta_frac, row in _ROWS:
        for label, phi_frac in row:
            electrodes.append(ChannelInfo(label, _project(theta_frac, phi_frac)))
    return Montage(name="standard-30", electrodes=tuple(electrodes))
