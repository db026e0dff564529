import math

import numpy as np
import pytest

from barstress import core
from barstress.errors import (
    EmptyProtocol,
    EpochOutOfRange,
    InvalidMontage,
    InvalidProtocol,
    InvalidRecording,
)


def test_standard_montage_layout(montage):
    assert montage.name == "standard-30"
    labels = [e.label for e in montage.electrodes]
    assert len(labels) == 30
    assert len(set(labels)) == 30
    expected = [
        "Fp1", "Fp2", "F7", "F3", "Fz", "F4", "F8", "FT7", "FC3", "FCz",
        "FC4", "FT8", "T7", "C3", "Cz", "C4", "T8", "TP7", "CP3", "CPz",
        "CP4", "TP8", "P7", "P3", "Pz", "P4", "P8", "O1", "Oz", "O2",
    ]
    assert labels == expected
    for e in montage.electrodes:
        assert math.hypot(*e.position) <= 1.0 + 1e-9
        assert e.kind == "eeg"


def test_montage_geometry_symmetry(montage):
    # left/right homologues mirror in x, match in y
    pos = {e.label: e.position for e in montage.electrodes}
    for left, right in [("Fp1", "Fp2"), ("F7", "F8"), ("T7", "T8"),
                        ("P3", "P4"), ("O1", "O2")]:
        lx, ly = pos[left]
        rx, ry = pos[right]
        assert lx == pytest.approx(-rx, abs=1e-12)
        assert ly == pytest.approx(ry, abs=1e-12)
    # midline sits on x = 0, ordered front (y > 0) to back
    for label in ["Fz", "FCz", "Cz", "CPz", "Pz", "Oz"]:
        assert pos[label][0] == pytest.approx(0.0, abs=1e-12)
    assert pos["Fz"][1] > pos["Cz"][1] > pos["Pz"][1]
    assert pos["Cz"] == pytest.approx((0.0, 0.0), abs=1e-12)


def test_channel_info_rejects_out_of_disc():
    with pytest.raises(InvalidMontage):
        core.ChannelInfo(label="X1", position=(0.9, 0.9), kind="eeg")
    with pytest.raises(InvalidMontage):
        core.ChannelInfo(label="X1", position=(float("nan"), 0.0), kind="eeg")
    with pytest.raises(InvalidMontage):
        core.ChannelInfo(label="X1", position=(0.0, 0.0), kind="ground")


def test_montage_rejects_duplicates_and_no_eeg():
    a = core.ChannelInfo("C3", (0.1, 0.0), "eeg")
    with pytest.raises(InvalidMontage):
        core.Montage(electrodes=(a, a), name="dup")
    ref = core.ChannelInfo("M1", (0.5, 0.0), "reference")
    with pytest.raises(InvalidMontage):
        core.Montage(electrodes=(ref,), name="refs-only")


def test_band_definition_validation():
    core.BandDefinition("alpha", 8.0, 13.0)
    with pytest.raises(InvalidProtocol):
        core.BandDefinition("bad", 13.0, 8.0)
    with pytest.raises(InvalidProtocol):
        core.BandDefinition("bad", -1.0, 8.0)
    with pytest.raises(InvalidProtocol):
        core.BandDefinition("bad", 8.0, 8.0)


def test_default_bands_cover_clinical_ranges():
    bands = core.DEFAULT_BANDS
    assert bands["alpha"].f_low == 8.0 and bands["alpha"].f_high == 13.0
    assert bands["beta"].f_low == 13.0 and bands["beta"].f_high == 30.0
    assert bands["delta"].f_low == 0.5 and bands["theta"].f_high == 8.0


class TestSessionProtocol:
    def test_defaults_per_phase(self):
        assert core.SessionProtocol(phase="baseline").epoch_times == (0.0,)
        during = core.SessionProtocol(phase="during_gameplay")
        assert during.epoch_times == (900.0, 1800.0, 2700.0, 3600.0)
        after = core.SessionProtocol(phase="after_gameplay", music_type="no_music")
        assert after.epoch_times == (0.0, 180.0, 360.0, 540.0, 720.0)

    def test_music_only_after_gameplay(self):
        core.SessionProtocol(phase="after_gameplay", music_type="low_pitch")
        with pytest.raises(InvalidProtocol):
            core.SessionProtocol(phase="during_gameplay", music_type="low_pitch")
        with pytest.raises(InvalidProtocol):
            core.SessionProtocol(phase="baseline", music_type="high_pitch")

    def test_rejects_unknown_enums(self):
        with pytest.raises(InvalidProtocol):
            core.SessionProtocol(phase="warmup")
        with pytest.raises(InvalidProtocol):
            core.SessionProtocol(phase="baseline", game_type="racing")
        with pytest.raises(InvalidProtocol):
            core.SessionProtocol(phase="baseline", gamer_type="casual")

    def test_rejects_unordered_times(self):
        with pytest.raises(InvalidProtocol):
            core.SessionProtocol(phase="baseline", epoch_times=(10.0, 5.0))
        with pytest.raises(InvalidProtocol):
            core.SessionProtocol(phase="baseline", epoch_times=(5.0, 5.0))


class TestRecording:
    def test_basic_properties(self, make_recording):
        rec = make_recording(np.zeros((2, 100)), sampling_rate=50.0)
        assert rec.n_samples == 100
        assert rec.duration == pytest.approx(2.0)
        assert rec.labels == ("Fp1", "Fp2")
        assert not rec.samples.flags.writeable

    def test_caller_writes_do_not_reach_samples(self, montage):
        chans = montage.electrodes[:2]
        data = np.zeros((2, 6))
        rec = core.Recording(samples=data, sampling_rate=1.0, channels=chans)
        data[0, 0] = 1.0
        assert rec.samples[0, 0] == 0.0
        assert data.flags.writeable
        # A read-only view is not enough: its writable base stays reachable.
        view = data[:, :]
        view.flags.writeable = False
        rec = core.Recording(samples=view, sampling_rate=1.0, channels=chans)
        data[0, 1] = 2.0
        assert rec.samples[0, 1] == 0.0
        for other in (data.astype(np.float32), np.asfortranarray(data)):
            other.flags.writeable = False
            rec = core.Recording(samples=other, sampling_rate=1.0, channels=chans)
            assert rec.samples is not other
            assert rec.samples.dtype == np.float64

    def test_read_only_owner_taken_without_copy(self, montage):
        data = np.zeros((2, 6))
        data.flags.writeable = False
        rec = core.Recording(
            samples=data, sampling_rate=1.0, channels=montage.electrodes[:2]
        )
        assert rec.samples is data

    def test_rejects_non_finite(self, make_recording):
        bad = np.zeros((2, 10))
        bad[1, 3] = np.nan
        with pytest.raises(InvalidRecording):
            make_recording(bad)
        bad[1, 3] = np.inf
        with pytest.raises(InvalidRecording):
            make_recording(bad)
        bad[0, 0], bad[1, 3] = np.inf, -np.inf
        with pytest.raises(InvalidRecording, match="NaN or infinite"):
            make_recording(bad)

    def test_finite_values_whose_sum_overflows_accepted(self, make_recording):
        big = np.full((2, 10), 1e308)
        big[1] = -1e308
        big[1, 0] = 1e308
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.sum())
        assert np.array_equal(make_recording(big).samples, big)

    def test_rejects_bad_rate_and_labels(self, montage):
        with pytest.raises(InvalidRecording):
            core.Recording(
                samples=np.zeros((1, 4)),
                sampling_rate=0.0,
                channels=montage.electrodes[:1],
            )
        dup = (montage.electrodes[0], montage.electrodes[0])
        with pytest.raises(InvalidRecording):
            core.Recording(samples=np.zeros((2, 4)), sampling_rate=1.0, channels=dup)

    def test_rejects_negative_start_offset_naming_it(self, make_recording):
        with pytest.raises(
            InvalidRecording, match=r"^start_offset must be finite and >= 0, got -0\.5$"
        ):
            make_recording(np.zeros((1, 4)), start_offset=-0.5)

    def test_rejects_channel_count_mismatch(self, montage):
        with pytest.raises(InvalidRecording):
            core.Recording(
                samples=np.zeros((3, 4)),
                sampling_rate=1.0,
                channels=montage.electrodes[:2],
            )


class TestSliceEpochs:
    def test_gameplay_protocol_on_full_session(self, make_recording):
        # 72 min at 500 Hz, one channel; four 10 s windows at the default marks
        n = 72 * 60 * 500
        rec = make_recording(np.arange(n, dtype=np.float64)[None, :])
        proto = core.SessionProtocol(phase="during_gameplay")
        epochs = core.slice_epochs(rec, proto, window_len=10.0)
        assert len(epochs) == 4
        for ep, t in zip(epochs, (900.0, 1800.0, 2700.0, 3600.0)):
            assert ep.samples.shape == (1, 5000)
            assert ep.t_start == t
            assert ep.t_end == t + 10.0
            assert ep.samples[0, 0] == t * 500.0

    def test_exact_fit_boundary(self, make_recording):
        rec = make_recording(np.random.default_rng(0).normal(size=(1, 5000)))
        proto = core.SessionProtocol(phase="baseline", epoch_times=(0.0,))
        (ep,) = core.slice_epochs(rec, proto, window_len=10.0)
        np.testing.assert_array_equal(ep.samples, rec.samples)

    def test_out_of_range(self, make_recording):
        rec = make_recording(np.zeros((1, 3000 * 500)))
        proto = core.SessionProtocol(phase="baseline", epoch_times=(3600.0,))
        with pytest.raises(EpochOutOfRange):
            core.slice_epochs(rec, proto, window_len=10.0)
        # window tail past the end is also out of range
        proto = core.SessionProtocol(phase="baseline", epoch_times=(2995.0,))
        with pytest.raises(EpochOutOfRange):
            core.slice_epochs(rec, proto, window_len=10.0)

    def test_no_sample_index_is_out_of_range(self, make_recording):
        # t * fs or window_len * fs overflows to inf, which no int holds
        rec = make_recording(np.zeros((1, 5000)))
        proto = core.SessionProtocol(phase="baseline", epoch_times=(0.0, 1e308))
        with pytest.raises(EpochOutOfRange, match=r"^epoch at 1e\+308 s has no sample index at 500.0 Hz"):
            core.slice_epochs(rec, proto, window_len=10.0)
        proto = core.SessionProtocol(phase="baseline", epoch_times=(0.0,))
        with pytest.raises(EpochOutOfRange, match=r"^epochs of 1e\+308 s have no sample count"):
            core.slice_epochs(rec, proto, window_len=1e308)

    def test_empty_protocol(self, make_recording):
        rec = make_recording(np.zeros((1, 100)))
        proto = core.SessionProtocol(phase="baseline", epoch_times=())
        with pytest.raises(EmptyProtocol):
            core.slice_epochs(rec, proto, window_len=0.1)

    def test_start_offset_shifts_epoch_origin(self, make_recording):
        data = np.arange(2000, dtype=np.float64)[None, :]
        rec = make_recording(data, sampling_rate=100.0, start_offset=5.0)
        proto = core.SessionProtocol(phase="baseline", epoch_times=(5.0,))
        (ep,) = core.slice_epochs(rec, proto, window_len=1.0)
        assert ep.samples[0, 0] == 0.0
        assert ep.t_start == 5.0
        early = core.SessionProtocol(phase="baseline", epoch_times=(4.0,))
        with pytest.raises(EpochOutOfRange, match="before the recording's first sample 500"):
            core.slice_epochs(rec, early, window_len=1.0)

    def test_mid_session_recording_cuts_same_samples(self, make_recording):
        # half-sample epoch times must round the same way with or without
        # the offset of a recording that starts at a whole sample
        data = np.random.default_rng(2).normal(size=(2, 3000))
        whole = make_recording(data, sampling_rate=500.0)
        tail = make_recording(data[:, 1000:], sampling_rate=500.0, start_offset=2.0)
        for k in range(2000, 5500):
            proto = core.SessionProtocol(phase="baseline", epoch_times=(k / 1000.0,))
            (a,) = core.slice_epochs(whole, proto, window_len=0.5)
            (b,) = core.slice_epochs(tail, proto, window_len=0.5)
            assert a.samples.tobytes() == b.samples.tobytes(), k

    def test_concatenating_adjacent_epochs_reproduces_source(self, make_recording):
        rng = np.random.default_rng(42)
        rec = make_recording(rng.normal(size=(3, 500)), sampling_rate=100.0)
        proto = core.SessionProtocol(
            phase="baseline", epoch_times=(0.0, 1.0, 2.0, 3.0, 4.0)
        )
        epochs = core.slice_epochs(rec, proto, window_len=1.0)
        glued = np.concatenate([ep.samples for ep in epochs], axis=1)
        np.testing.assert_array_equal(glued, rec.samples)

    def test_slicing_is_deterministic(self, make_recording):
        rng = np.random.default_rng(1)
        rec = make_recording(rng.normal(size=(2, 1000)), sampling_rate=100.0)
        proto = core.SessionProtocol(phase="baseline", epoch_times=(0.5, 3.25))
        a = core.slice_epochs(rec, proto, window_len=2.0)
        b = core.slice_epochs(rec, proto, window_len=2.0)
        for ea, eb in zip(a, b):
            assert ea.samples.tobytes() == eb.samples.tobytes()
