import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barstress import core, spectral
from barstress.errors import (
    BandOutOfRange,
    EmptySegment,
    InvalidConfig,
    NonPositiveCurrent,
    SegmentTooLong,
    ZeroDenominatorPower,
)

ALPHA = core.DEFAULT_BANDS["alpha"]
BETA = core.DEFAULT_BANDS["beta"]


def one_channel_epoch(x, fs):
    x = np.asarray(x, dtype=np.float64)
    ch = (core.ChannelInfo("Cz", (0.0, 0.0), "eeg"),)
    return core.Epoch(
        samples=x[None, :], t_start=0.0, t_end=len(x) / fs,
        sampling_rate=fs, channels=ch,
    )


def reference_welch(x, fs, cfg):
    """Independent re-derivation: explicit DFT matrix, loop segmentation.

    Mirrors the documented estimator definition without sharing any code
    with the implementation under test.
    """
    win = int(round(cfg.window_len * fs))
    m = math.floor(win / (1 + (cfg.segment_count - 1) * (1 - cfg.overlap_fraction)))
    hop = math.floor(m * (1 - cfg.overlap_fraction))
    if cfg.taper == "hamming":
        w = np.array([0.54 - 0.46 * math.cos(2 * math.pi * k / m) for k in range(m)])
    elif cfg.taper == "hann":
        w = np.array([0.5 - 0.5 * math.cos(2 * math.pi * k / m) for k in range(m)])
    else:
        w = np.ones(m)
    u = sum(v * v for v in w) / m
    nfft = m if cfg.fft_size is None else cfg.fft_size
    bins = nfft // 2 + 1
    dft = np.exp(
        -2j * math.pi * np.outer(np.arange(bins), np.arange(nfft)) / nfft
    )
    acc = np.zeros(bins)
    for d in range(cfg.segment_count):
        seg = np.zeros(nfft)
        seg[:m] = x[d * hop : d * hop + m] * w
        amp = np.abs(dft @ seg) ** 2 / (m * u * fs)
        if nfft % 2 == 0:
            amp[1:-1] *= 2.0
        else:
            amp[1:] *= 2.0
        acc += amp
    return np.arange(bins) * fs / nfft, acc / cfg.segment_count


def window_power(taper, m):
    """The mean square of the taper welch_psd divides by."""
    w = spectral.taper_window(taper, m)
    return float(np.mean(w * w))


def single_segment_psd(x, fs, taper):
    """welch_psd's power for x as one segment, no padding."""
    cfg = spectral.WelchConfig(window_len=len(x) / fs, segment_count=1, taper=taper)
    return spectral.welch_psd(one_channel_epoch(x, fs), cfg).power[0]


class TestWindowPowerNorm:
    def test_rectangular_is_unity(self):
        for m in (1, 7, 2000):
            assert window_power("rectangular", m) == 1.0

    def test_hann_m4_periodic(self):
        # w = [0, 0.5, 1, 0.5] -> mean square 1.5/4
        assert window_power("hann", 4) == pytest.approx(0.375, abs=1e-15)

    def test_hamming_matches_direct_summation(self):
        m = 2000
        direct = (
            sum((0.54 - 0.46 * math.cos(2 * math.pi * n / m)) ** 2 for n in range(m))
            / m
        )
        assert window_power("hamming", m) == pytest.approx(direct, rel=1e-12)

    def test_unknown_taper(self):
        with pytest.raises(InvalidConfig):
            spectral.taper_window("kaiser", 16)

    def test_empty(self):
        with pytest.raises(EmptySegment):
            spectral.taper_window("hann", 0)

    def test_zero_power_taper_rejected(self):
        # a Hann taper of one sample is [0]
        assert window_power("hann", 1) == 0.0
        with pytest.raises(InvalidConfig):
            single_segment_psd(np.ones(1), 1.0, "hann")


class TestPeriodogramSegment:
    def test_zero_in_zero_out(self):
        p = single_segment_psd(np.zeros(64), 100.0, "hamming")
        assert p.shape == (33,)
        np.testing.assert_array_equal(p, 0.0)

    def test_bin_aligned_sinusoid_single_line(self):
        fs, m = 100.0, 200
        t = np.arange(m) / fs
        x = np.sin(2 * np.pi * 10.0 * t)  # bin 20 of 200
        p = single_segment_psd(x, fs, "rectangular")
        hot = np.argmax(p)
        assert hot == 20
        others = np.delete(p, hot)
        assert np.max(others) < 1e-22 * p[hot]

    def test_white_noise_total_power_near_variance(self):
        rng = np.random.default_rng(3)
        fs, m = 100.0, 4096
        x = rng.normal(size=m)
        p = single_segment_psd(x, fs, "rectangular")
        assert p.shape == (m // 2 + 1,)
        total = np.sum(p) * fs / m
        assert total == pytest.approx(np.mean(x**2), rel=0.05)


class TestWelchPsd:
    def test_default_segmentation_plan(self):
        cfg = spectral.WelchConfig()
        assert cfg.segment_plan(500.0) == (5000, 2000, 1000)

    def test_grid_spacing(self):
        fs = 500.0
        epoch = one_channel_epoch(np.random.default_rng(0).normal(size=5000), fs)
        est = spectral.welch_psd(epoch)
        assert est.df == pytest.approx(0.25)
        assert est.frequencies[0] == 0.0
        assert est.frequencies[-1] == pytest.approx(250.0)
        assert est.power.shape == (1, 1001)

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(11)
        fs = 100.0
        for cfg in [
            spectral.WelchConfig(),
            spectral.WelchConfig(taper="hann"),
            spectral.WelchConfig(taper="rectangular", overlap_fraction=0.0),
            spectral.WelchConfig(segment_count=3, overlap_fraction=0.25),
            spectral.WelchConfig(fft_size=512),
        ]:
            x = rng.normal(size=1000)
            freqs, want = reference_welch(x, fs, cfg)
            est = spectral.welch_psd(one_channel_epoch(x, fs), cfg)
            np.testing.assert_allclose(est.frequencies, freqs, atol=1e-12)
            sup = np.max(np.abs(est.power[0] - want)) / np.max(want)
            assert sup < 1e-10

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=5000) * 50
        est = spectral.welch_psd(one_channel_epoch(x, 500.0))
        assert np.all(est.power >= 0.0)

    def test_parseval_rectangular_nonoverlapping(self):
        # discrete integral of the PSD == mean segment mean square, exactly
        rng = np.random.default_rng(4)
        fs = 250.0
        cfg = spectral.WelchConfig(window_len=4.0, segment_count=4, overlap_fraction=0.0,
                                   taper="rectangular")
        x = rng.normal(size=1000)
        est = spectral.welch_psd(one_channel_epoch(x, fs), cfg)
        integral = np.sum(est.power[0]) * est.df
        win, m, hop = cfg.segment_plan(fs)
        segs = [x[d * hop : d * hop + m] for d in range(4)]
        mean_square = np.mean([np.mean(s**2) for s in segs])
        assert integral == pytest.approx(mean_square, rel=1e-9)

    def test_pure_alpha_tone_localized(self):
        fs = 500.0
        t = np.arange(5000) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        est = spectral.welch_psd(one_channel_epoch(x, fs))
        in_band = spectral.band_power(est, ALPHA)
        broad = spectral.band_power(est, core.BandDefinition("broad", 0.5, 45.0))
        assert in_band >= 0.99 * broad

    def test_identical_segments_equal_single_periodogram(self):
        rng = np.random.default_rng(6)
        block = rng.normal(size=250)
        fs = 100.0
        cfg = spectral.WelchConfig(window_len=10.0, segment_count=4,
                                   overlap_fraction=0.0, taper="rectangular")
        est = spectral.welch_psd(one_channel_epoch(np.tile(block, 4), fs), cfg)
        single = single_segment_psd(block, fs, "rectangular")
        np.testing.assert_allclose(est.power[0], single, rtol=1e-12, atol=1e-15)

    def test_epoch_too_short(self):
        with pytest.raises(SegmentTooLong):
            spectral.welch_psd(one_channel_epoch(np.zeros(4999), 500.0))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=5000)
        k = 3.7
        a = spectral.welch_psd(one_channel_epoch(x, 500.0))
        b = spectral.welch_psd(one_channel_epoch(k * x, 500.0))
        np.testing.assert_allclose(b.power, k * k * a.power, rtol=1e-12)
        ra = spectral.band_ratio(a, BETA, ALPHA)
        rb = spectral.band_ratio(b, BETA, ALPHA)
        assert rb == pytest.approx(ra, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            spectral.WelchConfig(overlap_fraction=1.0)
        with pytest.raises(InvalidConfig):
            spectral.WelchConfig(segment_count=0)
        with pytest.raises(InvalidConfig):
            spectral.WelchConfig(taper="flattop")
        with pytest.raises(InvalidConfig):
            spectral.welch_psd(
                one_channel_epoch(np.zeros(5000), 500.0),
                spectral.WelchConfig(fft_size=100),
            )


def reference_periodogram(x, taper, u, nfft, fs):
    """spectral._periodogram as a fresh taper, then new arrays at every step."""
    m = x.shape[-1]
    spec = np.fft.rfft(x * spectral.taper_window(taper, m), n=nfft)
    p = (spec.real**2 + spec.imag**2) / (m * u * fs)
    if nfft % 2 == 0:
        p[..., 1:-1] *= 2.0
    else:
        p[..., 1:] *= 2.0
    return p


def per_segment_welch(samples, fs, cfg):
    """welch_psd's power as one reference periodogram per segment, summed
    into new arrays and divided by the segment count."""
    win, m, hop = cfg.segment_plan(fs)
    nfft = m if cfg.fft_size is None else cfg.fft_size
    u = window_power(cfg.taper, m)
    acc = None
    for d in range(cfg.segment_count):
        p = reference_periodogram(samples[:, d * hop : d * hop + m], cfg.taper, u, nfft, fs)
        acc = p if acc is None else acc + p
    return acc / cfg.segment_count


class TestWelchBitIdentical:
    # 1000 samples at 100 Hz: four half-overlapping segments of 400, three
    # disjoint segments of 333, or one of 1000; fft_size even and odd, with
    # and without padding
    PLANS = [
        dict(),
        dict(fft_size=401),
        dict(fft_size=512),
        dict(segment_count=3, overlap_fraction=0.0),
        dict(segment_count=3, overlap_fraction=0.0, fft_size=334),
        dict(segment_count=3, overlap_fraction=0.0, fft_size=999),
        dict(segment_count=1),
    ]

    @pytest.mark.parametrize("taper", spectral.TAPERS)
    @pytest.mark.parametrize("plan", PLANS)
    def test_matches_per_segment_reference(self, taper, plan):
        fs = 100.0
        cfg = spectral.WelchConfig(taper=taper, **plan)
        samples = np.random.default_rng(17).normal(scale=20.0, size=(3, 1000))
        ch = tuple(core.ChannelInfo(f"C{i}", (0.1 * i, 0.0), "eeg") for i in range(3))
        epoch = core.Epoch(
            samples=samples, t_start=0.0, t_end=10.0, sampling_rate=fs, channels=ch
        )
        want = per_segment_welch(samples, fs, cfg)
        got = spectral.welch_psd(epoch, cfg).power
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

        _, m, _ = cfg.segment_plan(fs)
        nfft = m if cfg.fft_size is None else cfg.fft_size
        u = window_power(taper, m)
        one = spectral._periodogram(samples[:, :m], spectral.taper_window(taper, m), u, nfft, fs)
        assert one.tobytes() == reference_periodogram(samples[:, :m], taper, u, nfft, fs).tobytes()


def flat_psd(value=1.0, fs=500.0, nfft=2000):
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    power = np.full((1, len(freqs)), float(value))
    ch = (core.ChannelInfo("Cz", (0.0, 0.0), "eeg"),)
    return spectral.PsdEstimate(
        frequencies=freqs, power=power, config=spectral.WelchConfig(), channels=ch
    )


class TestBandPower:
    def test_zero_psd(self):
        est = flat_psd(0.0)
        assert spectral.band_power(est, ALPHA) == 0.0

    def test_flat_density_exact_area(self):
        # 1 uV^2/Hz across 8-13 Hz integrates to exactly 5
        est = flat_psd(1.0)
        assert spectral.band_power(est, ALPHA) == pytest.approx(5.0, abs=1e-12)

    def test_edges_off_grid_interpolated(self):
        est = flat_psd(2.0, fs=100.0, nfft=300)  # df = 1/3 Hz, band edges off-grid
        assert spectral.band_power(est, ALPHA) == pytest.approx(10.0, abs=1e-12)

    def test_band_outside_grid(self):
        est = flat_psd(1.0, fs=100.0)
        with pytest.raises(BandOutOfRange):
            spectral.band_power(est, core.BandDefinition("hf", 40.0, 60.0))

    def test_reference_channels_excluded_from_average(self):
        freqs = np.fft.rfftfreq(2000, d=1.0 / 500.0)
        power = np.vstack([np.full(len(freqs), 1.0), np.full(len(freqs), 100.0)])
        chans = (
            core.ChannelInfo("Cz", (0.0, 0.0), "eeg"),
            core.ChannelInfo("M1", (0.9, 0.0), "reference"),
        )
        est = spectral.PsdEstimate(
            frequencies=freqs, power=power, config=spectral.WelchConfig(), channels=chans
        )
        assert spectral.band_power(est, ALPHA) == pytest.approx(5.0)
        picked = spectral.band_power(est, ALPHA, channels=["M1"])
        assert picked == pytest.approx(500.0)


def reference_band_power(psd, band):
    """Per-channel np.interp at the band nodes, then a one-row trapezoid."""
    f = psd.frequencies
    lo, hi = band.f_low, band.f_high
    xs = np.concatenate(([lo], f[(f > lo) & (f < hi)], [min(hi, f[-1])]))
    out = np.empty(psd.power.shape[0])
    for i, row in enumerate(psd.power):
        ys = np.interp(xs, f, row)
        out[i] = float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) * 0.5)
    return out


# Values that take np.interp's special paths: zeros of both signs, the
# smallest subnormal, huge values, infinities and NaN.
SPECIAL_DENSITIES = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]


@st.composite
def psd_and_band(draw):
    nfft = draw(st.integers(2, 400))
    fs = draw(st.sampled_from([100.0, 250.0, 500.0, 512.0]))
    f = np.fft.rfftfreq(nfft, d=1.0 / fs)
    channels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    power = rng.uniform(0.0, 1e3, size=(channels, f.size))
    cell = st.tuples(st.integers(0, channels - 1), st.integers(0, f.size - 1))
    for (i, j), v in draw(st.lists(st.tuples(cell, st.sampled_from(SPECIAL_DENSITIES)), max_size=8)):
        power[i, j] = v
    # edges on the grid, between grid points, and f_high just above the last
    # frequency, where the last node repeats
    edge = st.one_of(
        st.sampled_from(list(f)),
        st.floats(0.0, float(f[-1])),
        st.just(float(f[-1]) * (1.0 + 5e-13)),
    )
    lo, hi = sorted((draw(edge), draw(edge)))
    assume(lo < hi)
    return spectral.PsdEstimate(f, power, spectral.WelchConfig()), core.BandDefinition("b", lo, hi)


class TestBandPowerPerChannel:
    @settings(max_examples=150, deadline=None)
    @given(psd_and_band())
    def test_bytes_equal_per_channel_reference(self, data):
        psd, band = data
        with np.errstate(all="ignore"):
            got = spectral.band_power_per_channel(psd, band)
            want = reference_band_power(psd, band)
        assert got.tobytes() == want.tobytes()

    def test_infinite_neighbours_at_an_edge(self):
        # np.interp gives inf, not inf - inf = NaN, between two equal infinities
        power = np.array([[math.inf, math.inf, 1.0, 1.0], [1.0, math.inf, math.inf, 1.0],
                          [-math.inf, -math.inf, 0.0, 0.0], [math.nan, 1.0, 1.0, math.inf]])
        psd = spectral.PsdEstimate(np.arange(4.0), power, spectral.WelchConfig())
        band = core.BandDefinition("b", 0.5, 1.5)
        with np.errstate(all="ignore"):
            got = spectral.band_power_per_channel(psd, band)
            assert got.tobytes() == reference_band_power(psd, band).tobytes()
        assert list(got[:3]) == [math.inf, math.inf, -math.inf]

    @pytest.mark.parametrize("cfg", [
        spectral.WelchConfig(),
        spectral.WelchConfig(taper="hann", segment_count=7, overlap_fraction=0.3),
        spectral.WelchConfig(fft_size=4096),
        spectral.WelchConfig(window_len=3.3, segment_count=2),
    ])
    def test_welch_spectra_bytes_equal(self, cfg):
        x = np.random.default_rng(7).normal(size=(31, 5000))
        chans = tuple(core.ChannelInfo(f"E{i}", (0.0, 0.0)) for i in range(31))
        psd = spectral.welch_psd(core.Epoch(x, 0.0, 10.0, 500.0, chans), cfg)
        bands = [*core.DEFAULT_BANDS.values(), core.BandDefinition("odd", 7.31, 12.77)]
        for band in bands:
            got = spectral.band_power_per_channel(psd, band)
            assert got.tobytes() == reference_band_power(psd, band).tobytes()


class TestBandRatio:
    def test_reference_band_powers(self):
        # piecewise-linear plateaus integrate exactly to the target powers
        freqs = np.arange(0, 250.25, 0.25)
        dens = np.zeros_like(freqs)
        for lo, hi, total in [(9.0, 12.0, 4.329), (14.0, 29.0, 3.034)]:
            dens[(freqs >= lo) & (freqs <= hi)] = total / (hi - lo + 0.25)
        ch = (core.ChannelInfo("Cz", (0.0, 0.0), "eeg"),)
        est = spectral.PsdEstimate(
            frequencies=freqs, power=dens[None, :],
            config=spectral.WelchConfig(), channels=ch,
        )
        assert spectral.band_power(est, ALPHA) == pytest.approx(4.329, abs=1e-12)
        assert spectral.band_power(est, BETA) == pytest.approx(3.034, abs=1e-12)
        bar = spectral.band_ratio(est, BETA, ALPHA)
        assert bar == pytest.approx(0.7009, abs=1e-4)

    def test_equal_bands_give_unity(self):
        est = flat_psd(3.0)
        assert spectral.band_ratio(est, ALPHA, ALPHA) == 1.0

    def test_zero_denominator(self):
        est = flat_psd(0.0)
        with pytest.raises(ZeroDenominatorPower):
            spectral.band_ratio(est, BETA, ALPHA)


class TestRelativeIncrease:
    def test_reference_points(self):
        assert spectral.relative_increase(0.729, 0.701) == pytest.approx(0.0384, abs=5e-4)
        assert spectral.relative_increase(2.403, 0.701) == pytest.approx(0.7083, abs=5e-4)

    def test_no_change_is_zero(self):
        assert spectral.relative_increase(1.3, 1.3) == 0.0

    def test_nonpositive_current(self):
        with pytest.raises(NonPositiveCurrent):
            spectral.relative_increase(0.0, 0.7)
        with pytest.raises(NonPositiveCurrent):
            spectral.relative_increase(-1.0, 0.7)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_monotone_in_current(self, c, b, step):
        # strictly larger current ratio -> strictly larger increase
        assert spectral.relative_increase(c + step, b) > spectral.relative_increase(c, b)
