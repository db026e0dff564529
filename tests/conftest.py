import numpy as np
import pytest

from barstress import cli, core


@pytest.fixture(autouse=True)
def no_kept_spectra():
    """Every test starts with no epoch spectra kept by an earlier one, so
    the order tests run in never hides a read."""
    cli._PSD_MEMO.clear()


@pytest.fixture(scope="session")
def montage():
    return core.standard_montage()


@pytest.fixture
def make_recording(montage):
    """Recording factory: channels default to the standard montage."""

    def build(samples, sampling_rate=500.0, channels=None, start_offset=0.0):
        data = np.asarray(samples, dtype=np.float64)
        chans = channels if channels is not None else montage.electrodes[: data.shape[0]]
        return core.Recording(
            samples=data,
            sampling_rate=sampling_rate,
            channels=tuple(chans),
            start_offset=start_offset,
        )

    return build
