import math
from dataclasses import replace

import numpy as np
import pytest

from barstress import core, spectral, synth
from barstress.errors import BandAboveNyquist, ValidationError
from handover import handed_samples

ALPHA = core.DEFAULT_BANDS["alpha"]
BETA = core.DEFAULT_BANDS["beta"]


def ten_second_spec(montage, alpha_power=4.329, beta_power=3.034, seed=0, **kw):
    return synth.SynthSpec(
        duration=10.0,
        sampling_rate=500.0,
        montage=montage,
        band_targets=((ALPHA, alpha_power), (BETA, beta_power)),
        seed=seed,
        **kw,
    )


def direct_reference(spec):
    """synth_eeg's signal with every oscillator evaluated over the whole
    length, no tiling: phases band by band, then the noise."""
    n = int(round(spec.duration * spec.sampling_rate))
    t = np.arange(n) / spec.sampling_rate
    out = np.zeros((len(spec.montage.electrodes), n))
    for ch in range(len(out)):
        rng = np.random.default_rng([spec.seed, ch])
        for band, power in spec.band_targets:
            freqs = synth.oscillator_frequencies(band)
            phases = rng.uniform(0.0, 2.0 * np.pi, len(freqs))
            if power > 0:
                amp = math.sqrt(2.0 * power / len(freqs))
                out[ch] += amp * np.sum(
                    np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]),
                    axis=0,
                )
        if spec.noise_floor > 0:
            sd = math.sqrt(spec.noise_floor * spec.sampling_rate / 2.0)
            out[ch] += rng.normal(0.0, sd, n)
    return out


def first_epoch(recording):
    proto = core.SessionProtocol(phase="baseline", epoch_times=(0.0,))
    return core.slice_epochs(recording, proto)[0]


class TestOscillatorGrid:
    def test_quarter_hertz_alignment(self):
        freqs = synth.oscillator_frequencies(ALPHA)
        assert freqs[0] == 8.5
        assert freqs[-1] == 12.5
        np.testing.assert_allclose(np.diff(freqs), 0.25)

    def test_inset_keeps_clear_of_edges(self):
        freqs = synth.oscillator_frequencies(BETA)
        assert freqs.min() >= BETA.f_low + 0.5
        assert freqs.max() <= BETA.f_high - 0.5

    def test_narrow_band_falls_back_to_center(self):
        narrow = core.BandDefinition("sliver", 10.0, 10.6)
        np.testing.assert_array_equal(
            synth.oscillator_frequencies(narrow), [10.3]
        )


class TestSynthEeg:
    def test_band_power_closure(self, montage):
        rec = synth.synth_eeg(ten_second_spec(montage))
        est = spectral.welch_psd(first_epoch(rec))
        got_alpha = spectral.band_power(est, ALPHA)
        got_beta = spectral.band_power(est, BETA)
        assert got_alpha == pytest.approx(4.329, rel=0.02)
        assert got_beta == pytest.approx(3.034, rel=0.02)

    def test_ratio_closure(self, montage):
        rec = synth.synth_eeg(ten_second_spec(montage))
        est = spectral.welch_psd(first_epoch(rec))
        bar = spectral.band_ratio(est, BETA, ALPHA)
        assert bar == pytest.approx(0.701, rel=0.05)

    def test_energy_stays_inside_bands(self, montage):
        rec = synth.synth_eeg(ten_second_spec(montage))
        est = spectral.welch_psd(first_epoch(rec))
        outside = spectral.band_power(est, core.BandDefinition("lo", 0.5, 7.0))
        outside += spectral.band_power(est, core.BandDefinition("hi", 31.0, 45.0))
        inside = spectral.band_power(est, core.BandDefinition("wide", 8.0, 30.0))
        assert outside < 0.01 * inside

    def test_same_seed_is_byte_identical(self, montage):
        a = synth.synth_eeg(ten_second_spec(montage, seed=7))
        b = synth.synth_eeg(ten_second_spec(montage, seed=7))
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_different_seeds_differ(self, montage):
        a = synth.synth_eeg(ten_second_spec(montage, seed=1))
        b = synth.synth_eeg(ten_second_spec(montage, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_channels_mutually_independent(self, montage):
        rec = synth.synth_eeg(ten_second_spec(montage))
        assert not np.array_equal(rec.samples[0], rec.samples[1])

    def test_zero_targets_zero_signal(self, montage):
        spec = synth.SynthSpec(
            duration=2.0, sampling_rate=500.0, montage=montage,
            band_targets=((ALPHA, 0.0),),
        )
        rec = synth.synth_eeg(spec)
        np.testing.assert_array_equal(rec.samples, 0.0)
        assert rec.samples.shape == (30, 1000)

    def test_noise_floor_density(self, montage):
        spec = synth.SynthSpec(
            duration=10.0, sampling_rate=500.0, montage=montage,
            band_targets=(), noise_floor=0.5, seed=3,
        )
        rec = synth.synth_eeg(spec)
        est = spectral.welch_psd(first_epoch(rec))
        mid = (est.frequencies > 50) & (est.frequencies < 200)
        assert np.mean(est.power[:, mid]) == pytest.approx(0.5, rel=0.05)

    def test_band_above_nyquist(self, montage):
        spec_kw = dict(
            duration=1.0, sampling_rate=40.0, montage=montage,
            band_targets=((BETA, 1.0),),
        )
        with pytest.raises(BandAboveNyquist):
            synth.synth_eeg(synth.SynthSpec(**spec_kw))

    def test_spec_validation(self, montage):
        with pytest.raises(ValidationError):
            synth.SynthSpec(duration=0.0, sampling_rate=500.0, montage=montage,
                            band_targets=())
        with pytest.raises(ValidationError):
            synth.SynthSpec(duration=1.0, sampling_rate=-5.0, montage=montage,
                            band_targets=())
        with pytest.raises(ValidationError):
            synth.SynthSpec(duration=1.0, sampling_rate=500.0, montage=montage,
                            band_targets=((ALPHA, -1.0),))
        with pytest.raises(ValidationError):
            synth.SynthSpec(duration=1.0, sampling_rate=500.0, montage=montage,
                            band_targets=(), noise_floor=-0.1)

    def test_subsample_duration_rejected(self, montage):
        with pytest.raises(ValidationError):
            synth.synth_eeg(
                synth.SynthSpec(duration=1e-4, sampling_rate=500.0,
                                montage=montage, band_targets=())
            )


class TestPeriodicSynthesis:
    def test_tiled_matches_direct_reference(self, montage):
        # Three 4 s periods and a partial one.
        spec = replace(ten_second_spec(montage, seed=11), duration=12.5)
        rec = synth.synth_eeg(spec)
        assert rec.samples.shape == (30, 6250)
        np.testing.assert_allclose(rec.samples, direct_reference(spec), rtol=0, atol=1e-9)
        np.testing.assert_array_equal(rec.samples[:, :2000], rec.samples[:, 2000:4000])
        np.testing.assert_array_equal(rec.samples[:, 250:2250], rec.samples[:, 6250 - 2000:])

    def test_noise_added_after_tiling(self, montage):
        spec = synth.SynthSpec(
            duration=12.5, sampling_rate=500.0, montage=montage,
            band_targets=((ALPHA, 4.329), (BETA, 3.034)), noise_floor=0.2, seed=3,
        )
        np.testing.assert_allclose(
            synth.synth_eeg(spec).samples, direct_reference(spec), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize(
        "bands, fs",
        [
            # 8.0-8.9 Hz is too narrow for the grid: one oscillator at 8.45 Hz.
            (((core.BandDefinition("sliver", 8.0, 8.9), 1.0), (ALPHA, 4.329)), 500.0),
            # 4 s is 1000.4 samples at 250.1 Hz.
            (((ALPHA, 4.329), (BETA, 3.034)), 250.1),
        ],
    )
    def test_aperiodic_signal_is_direct_reference(self, montage, bands, fs):
        spec = synth.SynthSpec(
            duration=12.5, sampling_rate=fs, montage=montage, band_targets=bands, seed=5,
        )
        np.testing.assert_array_equal(synth.synth_eeg(spec).samples, direct_reference(spec))

    def test_samples_handed_over_without_copy(self, montage):
        rec, handed = handed_samples(synth, synth.synth_eeg, ten_second_spec(montage))
        assert rec.samples is handed

    def test_rng_draw_order(self, montage):
        spec = synth.SynthSpec(
            duration=3.0, sampling_rate=500.0, montage=montage,
            band_targets=((ALPHA, 0.0), (BETA, 0.0)), noise_floor=0.5, seed=8,
        )
        sd = math.sqrt(0.5 * 500.0 / 2.0)
        expected = []
        for ch in range(len(montage.electrodes)):
            rng = np.random.default_rng([8, ch])
            rng.uniform(0.0, 2.0 * np.pi, len(synth.oscillator_frequencies(ALPHA)))
            rng.uniform(0.0, 2.0 * np.pi, len(synth.oscillator_frequencies(BETA)))
            expected.append(rng.normal(0.0, sd, 1500))
        np.testing.assert_array_equal(synth.synth_eeg(spec).samples, expected)


class TestMetadata:
    def test_records_generator_and_recipe(self, montage):
        spec = ten_second_spec(montage, seed=42, noise_floor=0.01)
        meta = synth.spec_metadata(spec)
        assert meta["seed"] == 42
        assert meta["rng"] == synth.RNG_ALGORITHM
        assert "PCG64" in meta["rng"]
        assert meta["duration_s"] == 10.0
        assert meta["sampling_rate"] == 500.0
        assert meta["montage"] == "standard-30"
        assert meta["noise_floor"] == 0.01
        assert meta["bands"] == [
            {"name": "alpha", "f_low": 8.0, "f_high": 13.0, "power": 4.329},
            {"name": "beta", "f_low": 13.0, "f_high": 30.0, "power": 3.034},
        ]
