"""Welch power spectral density, band power, and band power ratios.

The estimator follows the averaged-modified-periodogram construction: an
epoch is cut into overlapping tapered segments, each segment's squared DFT
magnitude is normalized by segment length and window power, and the
segment spectra are averaged. Output is a one-sided density in microvolts
squared per hertz, so interior bins carry the doubled two-sided mass while
DC and Nyquist do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BandDefinition, ChannelInfo, Epoch
from .errors import (
    BandOutOfRange,
    EmptySegment,
    InvalidConfig,
    NonPositiveCurrent,
    SegmentTooLong,
    ZeroDenominatorPower,
)

TAPERS = ("hamming", "hann", "rectangular")


@dataclass(frozen=True)
class WelchConfig:
    """Segmentation and tapering parameters for the PSD estimator.

    window_len is the epoch length in seconds; segment_count and
    overlap_fraction fix the segment length M as
    floor(window_samples / (1 + (segment_count - 1) * (1 - overlap_fraction))),
    and the hop as floor(M * (1 - overlap_fraction)). Residual samples at
    the window end are discarded. fft_size of None means M (no padding).
    """

    window_len: float = 10.0
    segment_count: int = 4
    overlap_fraction: float = 0.5
    taper: str = "hamming"
    fft_size: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.window_len) and self.window_len > 0):
            raise InvalidConfig(f"window_len must be > 0, got {self.window_len}")
        if self.segment_count < 1:
            raise InvalidConfig(f"segment_count must be >= 1, got {self.segment_count}")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise InvalidConfig(
                f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}"
            )
        if self.taper not in TAPERS:
            raise InvalidConfig(f"taper must be one of {TAPERS}, got {self.taper!r}")
        if self.fft_size is not None and self.fft_size < 1:
            raise InvalidConfig(f"fft_size must be >= 1, got {self.fft_size}")

    def segment_plan(self, sampling_rate: float) -> tuple[int, int, int]:
        """(window_samples, segment_length, hop) for a given rate."""
        win = int(round(self.window_len * sampling_rate))
        denom = 1.0 + (self.segment_count - 1) * (1.0 - self.overlap_fraction)
        m = int(win / denom)
        if m < 1:
            raise InvalidConfig(
                f"segmentation leaves no samples per segment (window {win}, "
                f"count {self.segment_count}, overlap {self.overlap_fraction})"
            )
        if self.fft_size is not None and self.fft_size < m:
            raise InvalidConfig(f"fft_size {self.fft_size} < segment length {m}")
        hop = int(m * (1.0 - self.overlap_fraction)) if self.segment_count > 1 else m
        return win, m, hop


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided PSD per channel: frequencies in Hz, power in uV^2/Hz."""

    frequencies: np.ndarray
    power: np.ndarray
    config: WelchConfig
    channels: tuple[ChannelInfo, ...] = ()

    @property
    def df(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.channels)


def taper_window(taper: str, m: int) -> np.ndarray:
    """Periodic taper of length m: w(n) for n = 0..m-1 over a full period."""
    if m < 1:
        raise EmptySegment(f"taper length must be >= 1, got {m}")
    if taper == "rectangular":
        return np.ones(m)
    n = np.arange(m)
    if taper == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / m)
    if taper == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / m)
    raise InvalidConfig(f"taper must be one of {TAPERS}, got {taper!r}")


def window_power_norm(taper: str, m: int) -> float:
    """Mean squared taper value U = (1/M) sum |w(n)|^2."""
    return _mean_square(taper_window(taper, m))


def _mean_square(w: np.ndarray) -> float:
    return float(np.mean(w * w))


def periodogram_segment(
    segment: np.ndarray,
    taper: str,
    u: float,
    fft_size: int,
    sampling_rate: float,
) -> np.ndarray:
    """One-sided modified periodogram of a single segment.

    |DFT(x * w)|^2 / (M * U), doubled on interior bins, scaled by the
    sampling rate to a density. The result has fft_size//2 + 1 bins.
    """
    x = np.asarray(segment, dtype=np.float64)
    m = x.shape[-1]
    _check_segment(m, u, fft_size)
    return _periodogram(x, taper_window(taper, m), u, fft_size, sampling_rate)


def _check_segment(m: int, u: float, fft_size: int) -> None:
    if m < 1:
        raise EmptySegment("empty segment")
    if u <= 0:
        raise InvalidConfig(f"window power norm must be > 0, got {u}")
    if fft_size < m:
        raise InvalidConfig(f"fft_size {fft_size} < segment length {m}")


def _periodogram(
    x: np.ndarray, w: np.ndarray, u: float, fft_size: int, sampling_rate: float
) -> np.ndarray:
    """periodogram_segment of x with the taper w, squared and scaled in place.

    Interior bins, all but DC and an even fft_size's Nyquist, are doubled.
    """
    spec = np.fft.rfft(x * w, n=fft_size)
    p = np.square(spec.real)
    p += np.square(spec.imag)
    p /= x.shape[-1] * u * sampling_rate
    p[..., 1 : (fft_size + 1) // 2] *= 2.0
    return p


def welch_psd(epoch: Epoch, config: WelchConfig = WelchConfig()) -> PsdEstimate:
    """Averaged modified periodogram over the epoch's overlapped segments."""
    fs = epoch.sampling_rate
    win, m, hop = config.segment_plan(fs)
    if epoch.n_samples < win:
        raise SegmentTooLong(
            f"epoch has {epoch.n_samples} samples but the configured window "
            f"needs {win}"
        )
    nfft = config.fft_size if config.fft_size is not None else m
    w = taper_window(config.taper, m)
    u = _mean_square(w)
    _check_segment(m, u, nfft)
    power = None
    for d in range(config.segment_count):
        p = _periodogram(epoch.samples[:, d * hop : d * hop + m], w, u, nfft, fs)
        if power is None:
            power = p
        else:
            power += p
    power /= config.segment_count
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    freqs.flags.writeable = False
    power.flags.writeable = False
    return PsdEstimate(frequencies=freqs, power=power, config=config, channels=epoch.channels)


def _interp_rows(f: np.ndarray, power: np.ndarray, x: float) -> np.ndarray:
    """np.interp(x, f, row) for every row of power, in np.interp's arithmetic."""
    j = int(np.searchsorted(f, x, side="right")) - 1
    if j == f.size - 1 or f[j] == x:
        return power[:, j]
    left, right = power[:, j], power[:, j + 1]
    slope = (right - left) / (f[j + 1] - f[j])
    # On a NaN, np.interp retries from the right node, then takes a flat pair's value.
    y = slope * (x - f[j]) + left
    y = np.where(np.isnan(y), slope * (x - f[j + 1]) + right, y)
    return np.where(np.isnan(y) & (left == right), left, y)


def band_power_per_channel(psd: PsdEstimate, band: BandDefinition) -> np.ndarray:
    """Trapezoidal band-power integral per channel, in uV^2.

    Band edges off the grid are handled by linear interpolation of the
    density at the exact edge frequencies. All channels share one trapezoid
    over a C-ordered (channels, nodes) array, so each row sums its terms in
    the order a one-row trapezoid would.
    """
    f = np.asarray(psd.frequencies, dtype=np.float64)
    lo, hi = band.f_low, band.f_high
    if lo < f[0] or hi > f[-1] * (1.0 + 1e-12):
        raise BandOutOfRange(
            f"band {band.name!r} [{lo}, {hi}] outside spectrum [{f[0]}, {f[-1]}]"
        )
    # The nodes: both edges and the grid points between; f_high just past
    # the last frequency repeats it.
    inner = (f > lo) & (f < hi)
    xs = np.concatenate(([lo], f[inner], [min(hi, f[-1])]))
    power = np.asarray(psd.power, dtype=np.float64)
    ys = np.empty((power.shape[0], xs.size))
    ys[:, 0] = _interp_rows(f, power, xs[0])
    ys[:, 1:-1] = power[:, inner]
    ys[:, -1] = _interp_rows(f, power, xs[-1])
    return np.sum((ys[:, 1:] + ys[:, :-1]) * np.diff(xs), axis=1) * 0.5


def _select_rows(psd: PsdEstimate, channels) -> list[int]:
    if channels is not None:
        wanted = list(channels)
        labels = list(psd.labels)
        missing = [c for c in wanted if c not in labels]
        if missing:
            raise BandOutOfRange(f"channels not in spectrum: {missing}")
        return [labels.index(c) for c in wanted]
    if psd.channels:
        rows = [i for i, c in enumerate(psd.channels) if c.kind == "eeg"]
        if rows:
            return rows
    return list(range(psd.power.shape[0]))


def band_power(psd: PsdEstimate, band: BandDefinition, channels=None) -> float:
    """Band power averaged over the selected channels (default: all EEG)."""
    per = band_power_per_channel(psd, band)
    rows = _select_rows(psd, channels)
    return float(np.mean(per[rows]))


def band_ratio(
    psd: PsdEstimate,
    numerator: BandDefinition,
    denominator: BandDefinition,
    channels=None,
) -> float:
    """band_power(numerator) / band_power(denominator)."""
    den = band_power(psd, denominator, channels)
    if den <= 0:
        raise ZeroDenominatorPower(
            f"denominator band {denominator.name!r} has power {den}"
        )
    return band_power(psd, numerator, channels) / den


def relative_increase(current: float, baseline: float) -> float:
    """Fractional change of the ratio against baseline: (c - b) / c."""
    if not (current > 0):
        raise NonPositiveCurrent(f"current ratio must be > 0, got {current}")
    return (current - baseline) / current
