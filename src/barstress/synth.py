"""Deterministic synthetic EEG generation.

Signals are sums of random-phase oscillator banks, one bank per target
band, with amplitudes chosen analytically so the integrated band power
hits the target. Oscillators sit on a 0.25 Hz grid inset half a hertz
from the band edges, which keeps their energy inside the band under the
default segmentation's spectral smearing. Channels draw independent
phases from per-channel child seeds, so output is reproducible sample
for sample given the spec.

Oscillators on the 0.25 Hz grid make the noiseless signal repeat exactly
every 4 s. Channels differ only in their phases, and
sin(2 pi f t + phi) = sin(2 pi f t) cos(phi) + cos(2 pi f t) sin(phi), so
the sines and cosines of every oscillator are evaluated once per sample
time, as one table shared by all channels. Each channel's samples are
then its weights (amp cos(phi), amp sin(phi)) times that table, one
matrix product for all channels. The table covers at most one 4 s grid
period of columns at a time: a periodic signal is one table and one
product over its first period, tiled to the full length before the noise
is added; a signal that does not repeat (4 s not a whole number of
samples, or a band too narrow for the grid that falls back to an off-grid
center frequency) is built one 4 s block of columns after another.

A noise-free periodic signal repeats bit for bit every P = 4 fs samples,
so synth_eeg(spec, one_period=True) renders only its first P samples:
sample r of the whole recording is sample r mod P of that one, which is
how write_csv and write_edf write it at any length. Any other signal
is its own period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BandDefinition, Montage, Recording
from .errors import BandAboveNyquist, ValidationError

RNG_ALGORITHM = "numpy default_rng (PCG64), child seed [seed, channel_index]"

_MAX_BYTES = np.iinfo(np.intp).max  # of one numpy array
_OSC_SPACING = 0.25
_OSC_INSET = 0.5


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic recording.

    band_targets maps bands to integrated power in uV^2; noise_floor is a
    white density in uV^2/Hz added on top.
    """

    duration: float
    sampling_rate: float
    montage: Montage
    band_targets: tuple[tuple[BandDefinition, float], ...]
    noise_floor: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValidationError(f"duration must be > 0, got {self.duration}")
        if not (math.isfinite(self.sampling_rate) and self.sampling_rate > 0):
            raise ValidationError(f"sampling_rate must be > 0, got {self.sampling_rate}")
        # Every channel's samples, as float64, must be one array numpy can index.
        if not self.duration * self.sampling_rate * len(self.montage.electrodes) * 8 <= _MAX_BYTES:
            raise ValidationError(
                "duration x sampling_rate must be finite and within numpy's index range, "
                f"got {self.duration} s at {self.sampling_rate} Hz"
            )
        targets = tuple((band, float(power)) for band, power in self.band_targets)
        if any(p < 0 or not math.isfinite(p) for _, p in targets):
            raise ValidationError("band target powers must be finite and >= 0")
        if not (math.isfinite(self.noise_floor) and self.noise_floor >= 0):
            raise ValidationError(f"noise_floor must be >= 0, got {self.noise_floor}")
        object.__setattr__(self, "band_targets", targets)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_samples(self) -> int:
        """Samples per channel of the rendered recording."""
        return int(round(self.duration * self.sampling_rate))


def oscillator_frequencies(band: BandDefinition) -> np.ndarray:
    """Oscillator grid for a band: 0.25 Hz spacing, half-hertz inset.

    Bands too narrow for the inset collapse to their center frequency.
    """
    lo = band.f_low + _OSC_INSET
    hi = band.f_high - _OSC_INSET
    if lo > hi:
        return np.array([(band.f_low + band.f_high) / 2.0])
    start = math.ceil(lo / _OSC_SPACING) * _OSC_SPACING
    freqs = np.arange(start, hi + 1e-9, _OSC_SPACING)
    if len(freqs) == 0:
        return np.array([(band.f_low + band.f_high) / 2.0])
    return freqs


def synth_eeg(spec: SynthSpec, *, one_period: bool = False) -> Recording:
    """Render the spec to a Recording covering every montage electrode.

    With one_period, the Recording holds only the first P samples, where
    P is the number of samples after which the signal repeats bit for
    bit: 4 fs for a noise-free signal whose oscillators all sit on the
    0.25 Hz grid, when 4 fs is a whole number, and spec.n_samples
    otherwise. P is never more than spec.n_samples.
    """
    nyquist = spec.sampling_rate / 2.0
    for band, _ in spec.band_targets:
        if band.f_high > nyquist:
            raise BandAboveNyquist(
                f"band {band.name!r} reaches {band.f_high} Hz, Nyquist is {nyquist}"
            )
    n = spec.n_samples
    if n < 1:
        raise ValidationError("duration shorter than one sample")
    bands = [(oscillator_frequencies(band), power) for band, power in spec.band_targets]
    grid_period = spec.sampling_rate / _OSC_SPACING
    periodic = grid_period.is_integer() and all(
        np.all(freqs % _OSC_SPACING == 0) for freqs, _ in bands
    )
    # The one rule for P: a periodic signal repeats every span samples
    # until noise is added to it.
    span = min(n, int(grid_period)) if periodic else n
    if one_period and spec.noise_floor == 0:
        n = span
    electrodes = spec.montage.electrodes
    rngs = [np.random.default_rng([spec.seed, ch]) for ch in range(len(electrodes))]
    # One draw of every oscillator's phase per channel: the same numbers as
    # one draw per band in band order.
    phases = np.empty((len(electrodes), sum(len(freqs) for freqs, _ in bands)))
    for row, rng in zip(phases, rngs):
        row[:] = rng.uniform(0.0, 2.0 * np.pi, len(row))
    samples = _render(bands, phases, n, span, spec.sampling_rate)
    if spec.noise_floor > 0:
        sd = math.sqrt(spec.noise_floor * spec.sampling_rate / 2.0)
        for row, rng in zip(samples, rngs):
            row += rng.normal(0.0, sd, n)
    samples.flags.writeable = False
    return Recording(
        channels=electrodes, samples=samples, sampling_rate=spec.sampling_rate
    )


def _render(bands, phases: np.ndarray, n: int, span: int, fs: float) -> np.ndarray:
    """Every channel's noiseless signal: its first span samples from the
    shared table, at most one grid period of columns at a time, tiled to n
    samples."""
    freqs = np.concatenate([np.empty(0), *(f for f, _ in bands)])
    sizes = [len(f) for f, _ in bands]
    amps = np.repeat([math.sqrt(2.0 * power / len(f)) for f, power in bands], sizes)
    weights = np.concatenate([amps * np.cos(phases), amps * np.sin(phases)], axis=1)
    # Allocated before the table, so that the freed table does not stay
    # behind as a hole below the samples in the heap and raise peak RSS.
    samples = np.empty((len(phases), n))
    block = max(1, int(fs / _OSC_SPACING))
    k = len(freqs)
    table = np.empty((2 * k, min(block, span)))
    part = np.empty((len(phases), table.shape[1]))
    for start in range(0, span, block):
        cols = min(block, span - start)
        sines, cosines, product = table[:k, :cols], table[k:, :cols], part[:, :cols]
        # Sines over cosines, computed in place from the angles 2 pi f t.
        np.multiply(2.0 * np.pi * freqs[:, None], np.arange(start, start + cols) / fs, out=sines)
        np.cos(sines, out=cosines)
        np.sin(sines, out=sines)
        np.matmul(weights, table[:, :cols], out=product)
        samples[:, start : start + cols] = product
    if span < n:
        # Only a periodic signal repeats, and then its span is one block,
        # the one product in part.
        whole = n - n % span
        samples[:, span:whole].reshape(len(phases), -1, span)[:] = part[:, None, :]
        samples[:, whole:] = part[:, : n - whole]
    return samples


def spec_metadata(spec: SynthSpec) -> dict:
    """Reproducibility sidecar content for a synthesis run."""
    return {
        "rng": RNG_ALGORITHM,
        "seed": spec.seed,
        "duration_s": spec.duration,
        "sampling_rate": spec.sampling_rate,
        "montage": spec.montage.name,
        "noise_floor": spec.noise_floor,
        "bands": [
            {"name": b.name, "f_low": b.f_low, "f_high": b.f_high, "power": p}
            for b, p in spec.band_targets
        ],
    }
