"""Deterministic synthetic EEG generation.

Signals are sums of random-phase oscillator banks, one bank per target
band, with amplitudes chosen analytically so the integrated band power
hits the target. Oscillators sit on a 0.25 Hz grid inset half a hertz
from the band edges, which keeps their energy inside the band under the
default segmentation's spectral smearing. Channels draw independent
phases from per-channel child seeds, so output is reproducible sample
for sample given the spec.

Oscillators on the 0.25 Hz grid make the noiseless signal repeat exactly
every 4 s, so the oscillator banks are evaluated over one 4 s period and
tiled to the full length before the noise is added. The banks are
evaluated over the whole length instead when 4 s is not a whole number
of samples, or when a band too narrow for the grid falls back to an
off-grid center frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BandDefinition, Montage, Recording
from .errors import BandAboveNyquist, ValidationError

RNG_ALGORITHM = "numpy default_rng (PCG64), child seed [seed, channel_index]"

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
        targets = tuple((band, float(power)) for band, power in self.band_targets)
        if any(p < 0 or not math.isfinite(p) for _, p in targets):
            raise ValidationError("band target powers must be finite and >= 0")
        if not (math.isfinite(self.noise_floor) and self.noise_floor >= 0):
            raise ValidationError(f"noise_floor must be >= 0, got {self.noise_floor}")
        object.__setattr__(self, "band_targets", targets)
        object.__setattr__(self, "seed", int(self.seed))


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


def synth_eeg(spec: SynthSpec) -> Recording:
    """Render the spec to a Recording covering every montage electrode."""
    nyquist = spec.sampling_rate / 2.0
    for band, _ in spec.band_targets:
        if band.f_high > nyquist:
            raise BandAboveNyquist(
                f"band {band.name!r} reaches {band.f_high} Hz, Nyquist is {nyquist}"
            )
    n = int(round(spec.duration * spec.sampling_rate))
    if n < 1:
        raise ValidationError("duration shorter than one sample")
    bands = [(oscillator_frequencies(band), power) for band, power in spec.band_targets]
    period = spec.sampling_rate / _OSC_SPACING
    on_grid = all(np.all(freqs % _OSC_SPACING == 0) for freqs, _ in bands)
    span = min(n, int(period)) if on_grid and period.is_integer() else n
    t = np.arange(span) / spec.sampling_rate
    electrodes = spec.montage.electrodes
    samples = np.empty((len(electrodes), n))
    for ch in range(len(electrodes)):
        rng = np.random.default_rng([spec.seed, ch])
        sig = np.zeros(span)
        for freqs, power in bands:
            phases = rng.uniform(0.0, 2.0 * np.pi, len(freqs))
            if power > 0:
                amp = math.sqrt(2.0 * power / len(freqs))
                sig += amp * np.sum(
                    np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]),
                    axis=0,
                )
        samples[ch] = np.resize(sig, n)
        if spec.noise_floor > 0:
            sd = math.sqrt(spec.noise_floor * spec.sampling_rate / 2.0)
            samples[ch] += rng.normal(0.0, sd, n)
    samples.flags.writeable = False
    return Recording(
        channels=electrodes, samples=samples, sampling_rate=spec.sampling_rate
    )


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
