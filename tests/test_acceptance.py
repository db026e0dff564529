"""Acceptance gate: one test per release criterion.

Each criterion is a single test function so the verbose run prints one
pass/fail line per criterion. Tolerances are stated inline; reference
numbers live in published_series.
"""

import json
import time

import numpy as np
import pytest

from barstress import cli, core, ingest, regress, spectral, synth, topo
from barstress.errors import PipelineError
from published_series import (
    BASELINE_ALPHA_POWER,
    BASELINE_BAR,
    BASELINE_BETA_POWER,
    EXCLUDED_RELAXATION_ROWS,
    GAMEPLAY_QUARTIC_PUZZLE_GAMER,
    GAMEPLAY_SERIES,
    GAMEPLAY_SIGMOID,
    RELAXATION_SIGMOID_R2,
    gameplay_points,
    relaxation_points,
)
from profiled_oracle import profiled_grid_optimum
from written import joined

ALPHA = core.DEFAULT_BANDS["alpha"]
BETA = core.DEFAULT_BANDS["beta"]

# The printed sigmoid R^2 of this row, 0.9989, is out of reach of the stated
# model y = d + (a - d)/(1 + (x/c)^b): the profiled-grid optimum is R^2
# 0.9914346 (RSS 3.76557039e-3 at b 2.358, c 4.002), below the 0.9939 that
# the 0.005 slack allows. Other readings of the model do no better: x + 3
# gives 0.99028, x + 1 gives 0.99091, an index 1..5 gives 0.99027, hours
# give 0.99143 and a logistic in x gives 0.98809. The neighbouring row
# (non-gamer) is printed as 0.0009 against an attainable 0.999995, so both
# printed rows look garbled. Criterion 5 checks the fit on this row against
# the oracle instead, and asserts that the printed value is still out of
# reach, so the row must leave here if the reference is ever corrected.
UNREACHABLE_SIGMOID_R2_ROW = ("puzzle", "high_pitch", "gamer")


def one_channel_epoch(x, fs):
    ch = (core.ChannelInfo("Cz", (0.0, 0.0), "eeg"),)
    return core.Epoch(
        samples=np.asarray(x, dtype=np.float64)[None, :],
        t_start=0.0, t_end=len(x) / fs, sampling_rate=fs, channels=ch,
    )


def test_criterion_1_quartic_interpolation():
    points = gameplay_points("puzzle", "gamer")
    t0 = time.perf_counter()
    fit = regress.fit_quartic(points)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"quartic fit took {elapsed:.3f}s, limit 1s"
    assert fit.rss < 1e-9, f"rss {fit.rss:.3e} not an interpolation"
    assert fit.r_squared == 1.0
    reference = regress.QuarticModel(*GAMEPLAY_QUARTIC_PUZZLE_GAMER)
    for x in (15.0, 30.0, 45.0, 60.0):
        got = regress.eval_quartic(fit.model, x)
        want = regress.eval_quartic(reference, x)
        assert got == pytest.approx(want, abs=0.02), (
            f"prediction at {x} min: {got:.4f} vs reference {want:.4f}"
        )


def test_criterion_2_sigmoid_reproduction():
    t0 = time.perf_counter()
    puzzle = regress.fit_4pl(gameplay_points("puzzle", "gamer"))
    strategic = regress.fit_4pl(gameplay_points("strategic", "non_gamer"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"two sigmoid fits took {elapsed:.3f}s, limit 5s"
    # reference values carry four decimals; compare at that resolution
    want_r2, want_aic = GAMEPLAY_SIGMOID[("puzzle", "gamer")][4:]
    assert round(puzzle.r_squared, 4) >= want_r2, (
        f"puzzle/gamer R^2 {puzzle.r_squared:.6f} below {want_r2}"
    )
    assert puzzle.aic == pytest.approx(want_aic, abs=0.5), (
        f"puzzle/gamer AIC {puzzle.aic:.4f} not within 0.5 of {want_aic}"
    )
    want_strat = GAMEPLAY_SIGMOID[("strategic", "non_gamer")][4]
    assert round(strategic.r_squared, 4) >= want_strat, (
        f"strategic/non-gamer R^2 {strategic.r_squared:.6f} below {want_strat}"
    )


def test_criterion_3_relative_increase_table():
    worst = 0.0
    for series in GAMEPLAY_SERIES.values():
        for bar, want in series:
            got = spectral.relative_increase(bar, BASELINE_BAR)
            worst = max(worst, abs(got - want))
            assert got == pytest.approx(want, abs=5e-4)
    assert worst < 5e-4


def test_criterion_4_baseline_ratio():
    # piecewise-linear plateaus whose trapezoid areas equal the published
    # band powers exactly, on the default analysis grid
    freqs = np.arange(0, 250.25, 0.25)
    dens = np.zeros_like(freqs)
    for lo, hi, total in [
        (9.0, 12.0, BASELINE_ALPHA_POWER),
        (14.0, 29.0, BASELINE_BETA_POWER),
    ]:
        dens[(freqs >= lo) & (freqs <= hi)] = total / (hi - lo + 0.25)
    est = spectral.PsdEstimate(
        frequencies=freqs,
        power=dens[None, :],
        config=spectral.WelchConfig(),
        channels=(core.ChannelInfo("Cz", (0.0, 0.0), "eeg"),),
    )
    assert spectral.band_power(est, ALPHA) == pytest.approx(BASELINE_ALPHA_POWER, abs=1e-12)
    assert spectral.band_power(est, BETA) == pytest.approx(BASELINE_BETA_POWER, abs=1e-12)
    bar = spectral.band_ratio(est, BETA, ALPHA)
    assert bar == pytest.approx(0.7009, abs=1e-4), f"BAR {bar:.6f} not 0.7009 +- 1e-4"


def test_criterion_5_relaxation_fit_sweep():
    t0 = time.perf_counter()
    shortfalls = []
    for key, printed in RELAXATION_SIGMOID_R2.items():
        points = relaxation_points(*key)
        quartic = regress.fit_quartic(points)
        assert quartic.r_squared == 1.0, f"quartic not exact on {key}"
        sigmoid = regress.fit_4pl(points)
        floor = printed - 0.005
        if key in EXCLUDED_RELAXATION_ROWS or key == UNREACHABLE_SIGMOID_R2_ROW:
            # the printed R^2 is unusable; the fit must reach the optimum
            oracle_rss, oracle_r2 = profiled_grid_optimum(points)
            if sigmoid.rss > oracle_rss * (1.0 + 1e-6):
                shortfalls.append(
                    f"{key}: fit RSS {sigmoid.rss:.9e} above the oracle optimum "
                    f"{oracle_rss:.9e} (R^2 {sigmoid.r_squared:.6f} vs {oracle_r2:.6f})"
                )
            if key == UNREACHABLE_SIGMOID_R2_ROW and not oracle_r2 < floor:
                shortfalls.append(
                    f"{key}: oracle optimum R^2 = {oracle_r2:.6f} reaches {floor:.4f} "
                    f"(reference {printed}); remove UNREACHABLE_SIGMOID_R2_ROW"
                )
        elif sigmoid.r_squared < floor:
            _, oracle_r2 = profiled_grid_optimum(points)
            shortfalls.append(
                f"{key}: fit R^2 = {sigmoid.r_squared:.6f}, oracle optimum "
                f"R^2 = {oracle_r2:.6f}, needs >= {floor:.4f} (reference {printed})"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s, limit 30s"
    assert not shortfalls, "sigmoid quality below reference on: " + "; ".join(shortfalls)


def test_criterion_6_spectral_properties():
    fs = 500.0
    rng = np.random.default_rng(606)

    # Parseval: rectangular taper, non-overlapping segments; the discrete
    # spectrum integral equals the mean segment mean square
    cfg = spectral.WelchConfig(taper="rectangular", overlap_fraction=0.0)
    x = rng.normal(size=5000)
    est = spectral.welch_psd(one_channel_epoch(x, fs), cfg)
    win, m, hop = cfg.segment_plan(fs)
    mean_square = np.mean(
        [np.mean(x[d * hop : d * hop + m] ** 2) for d in range(cfg.segment_count)]
    )
    integral = float(np.sum(est.power[0]) * est.df)
    assert abs(integral - mean_square) <= 1e-9 * mean_square

    # sinusoid localization: >= 95% of total power inside the band
    t = np.arange(5000) / fs
    tone = spectral.welch_psd(one_channel_epoch(np.sin(2 * np.pi * 10.0 * t), fs))
    in_band = spectral.band_power(tone, ALPHA)
    total = spectral.band_power(tone, core.BandDefinition("all", 0.0, 250.0))
    assert in_band >= 0.95 * total

    # scale equivariance of the PSD, scale invariance of the ratio
    base = rng.normal(size=5000)
    k = 12.5
    a = spectral.welch_psd(one_channel_epoch(base, fs))
    b = spectral.welch_psd(one_channel_epoch(k * base, fs))
    np.testing.assert_allclose(b.power, k * k * a.power, rtol=1e-12)
    assert spectral.band_ratio(b, BETA, ALPHA) == pytest.approx(
        spectral.band_ratio(a, BETA, ALPHA), rel=1e-12
    )

    # estimator vs an explicit-DFT re-derivation on 100 random epochs
    win, m, hop = spectral.WelchConfig().segment_plan(fs)
    w = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(m) / m)
    u = float(np.mean(w * w))
    bins = m // 2 + 1
    dft = np.exp(-2j * np.pi * np.outer(np.arange(bins), np.arange(m)) / m)
    for _ in range(100):
        scale = float(rng.uniform(0.1, 50.0))
        x = scale * rng.normal(size=5000)
        segs = np.stack(
            [x[d * hop : d * hop + m] * w for d in range(4)], axis=1
        )
        amp = np.abs(dft @ segs) ** 2 / (m * u * fs)
        amp[1:-1] *= 2.0
        want = amp.mean(axis=1)
        got = spectral.welch_psd(one_channel_epoch(x, fs)).power[0]
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)


def test_criterion_7_end_to_end_closure(tmp_path):
    spec_doc = {
        "duration_s": 10.0,
        "sampling_rate": 500.0,
        "bands": [
            {"name": "alpha", "f_low": 8.0, "f_high": 13.0, "power": BASELINE_ALPHA_POWER},
            {"name": "beta", "f_low": 13.0, "f_high": 30.0, "power": BASELINE_BETA_POWER},
        ],
        "outputs": ["csv"],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc), encoding="utf-8")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"protocol": {"phase": "baseline", "epoch_times": [0.0]}}),
        encoding="utf-8",
    )
    ratios = []
    for seed in range(20):
        out = tmp_path / f"s{seed}"
        rc = cli.main(
            ["synth", "--spec", str(spec_path), "--out", str(out),
             "--seed", str(seed), "--quiet"]
        )
        assert rc == 0
        rc = cli.main(
            ["bar", "--config", str(cfg_path), "--input", str(out / "synthetic.csv"),
             "--out", str(out), "--quiet"]
        )
        assert rc == 0
        doc = json.loads((out / "bar_series.json").read_text(encoding="utf-8"))
        ratios.append(doc["points"][0]["bar"])
    for seed, ratio in enumerate(ratios):
        assert abs(ratio - BASELINE_BAR) <= 0.05 * BASELINE_BAR, (
            f"seed {seed}: BAR {ratio:.4f} departs from {BASELINE_BAR} by more than 5%"
        )


def test_criterion_8_topography_properties():
    # grid nodes that coincide with electrodes take the electrode value
    sites = core.Montage(
        name="sites",
        electrodes=(
            core.ChannelInfo("E0", (0.5, 0.5), "eeg"),
            core.ChannelInfo("E1", (-0.5, 0.0), "eeg"),
            core.ChannelInfo("E2", (0.0, -0.5), "eeg"),
        ),
    )
    vec = topo.TopoVector(values=np.array([3.0, -2.0, 11.0]))
    grid = topo.interpolate_scalp(vec, sites, resolution=5)
    assert grid.values[1, 3] == 3.0
    assert grid.values[2, 1] == -2.0
    assert grid.values[3, 2] == 11.0

    # interpolation is a convex combination of the inputs
    montage = core.standard_montage()
    rng = np.random.default_rng(808)
    vals = rng.uniform(0.3, 2.5, size=30)
    field = topo.interpolate_scalp(topo.TopoVector(values=vals), montage, 64)
    inside = field.values[field.mask]
    assert inside.min() >= vals.min() - 1e-12
    assert inside.max() <= vals.max() + 1e-12

    # angle similarity: exact poles and zero, invariant to positive scaling
    v = topo.TopoVector(values=rng.normal(size=30))
    assert abs(topo.topo_similarity(v, v) - 1.0) <= 1e-12
    neg = topo.TopoVector(values=-v.values)
    assert abs(topo.topo_similarity(v, neg) + 1.0) <= 1e-12
    e0 = topo.TopoVector(values=np.eye(30)[0])
    e1 = topo.TopoVector(values=np.eye(30)[1])
    assert topo.topo_similarity(e0, e1) == 0.0
    w = topo.TopoVector(values=rng.normal(size=30))
    base = topo.topo_similarity(v, w)
    for k in (1e-6, 3.7, 1e6):
        scaled = topo.TopoVector(values=k * v.values)
        assert abs(topo.topo_similarity(scaled, w) - base) <= 1e-12


def test_criterion_9_parser_robustness():
    labels = ("E0", "E1", "E2")
    montage = core.Montage(
        name="tiny",
        electrodes=tuple(
            core.ChannelInfo(lb, (0.2 * i - 0.2, 0.0), "eeg")
            for i, lb in enumerate(labels)
        ),
    )
    rng_sig = np.random.default_rng(99)
    fs = 100.0
    t = np.arange(200) / fs
    samples = np.stack(
        [50.0 * np.sin(2 * np.pi * (10.0 + i) * t + i) for i in range(3)]
    ) + rng_sig.normal(0.0, 5.0, (3, 200))
    rec = core.Recording(channels=montage.electrodes, samples=samples, sampling_rate=fs)

    # lossless CSV round trip
    back = ingest.read_csv(joined(ingest.write_csv(rec)), ingest.CsvLayout(), fs, montage)
    np.testing.assert_array_equal(back.samples, rec.samples)

    # EDF round trip within half a quantization step of the stored range
    blob = joined(ingest.write_edf(rec))
    hdr = ingest.parse_edf_header(blob)
    back = ingest.read_edf(blob, montage)
    for i in range(3):
        quantum = (hdr.physical_max[i] - hdr.physical_min[i]) / (
            hdr.digital_max[i] - hdr.digital_min[i]
        )
        err = np.max(np.abs(back.samples[i] - rec.samples[i]))
        assert err <= quantum / 2 + 1e-12

    # mutation fuzz: malformed input may be rejected, never crash
    csv_blob = joined(ingest.write_csv(rec))
    rng = np.random.default_rng(20260822)
    crashes = []
    cases = 0
    for source, reader in (
        (blob, lambda d: ingest.read_edf(d, montage)),
        (csv_blob, lambda d: ingest.read_csv(d, ingest.CsvLayout(), fs, montage)),
    ):
        for _ in range(5000):
            data = bytearray(source)
            mode = int(rng.integers(0, 3))
            if mode == 0:
                data = data[: int(rng.integers(0, len(data)))]
            elif mode == 1:
                for _ in range(int(rng.integers(1, 9))):
                    pos = int(rng.integers(0, len(data)))
                    data[pos] = int(rng.integers(0, 256))
            else:
                start = int(rng.integers(0, max(1, len(data) - 16)))
                run = int(rng.integers(4, 17))
                data[start : start + run] = bytes(
                    rng.integers(0, 256, size=run, dtype=np.uint8)
                )
            cases += 1
            try:
                result = reader(bytes(data))
            except PipelineError:
                continue
            except Exception as exc:  # noqa: BLE001 - the point of the fuzz
                crashes.append(f"{type(exc).__name__}: {exc}")
            else:
                assert isinstance(result, core.Recording)
    assert cases == 10000
    assert not crashes, f"{len(crashes)} untyped failures, first: {crashes[0]}"
