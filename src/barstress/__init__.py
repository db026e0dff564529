"""EEG stress-analysis pipeline.

Estimates band power with Welch's method, tracks the beta-to-alpha ratio
across a gameplay and relaxation session, interpolates scalp topographies,
and fits sigmoid and quartic trend models to the resulting stress curves.
"""

from .core import (
    BandDefinition,
    ChannelInfo,
    DEFAULT_BANDS,
    Epoch,
    Montage,
    Recording,
    SessionProtocol,
    slice_epochs,
    standard_montage,
)
from .errors import PipelineError, ValidationError
from .ingest import (
    CsvLayout,
    EdfHeader,
    load_montage,
    parse_edf_header,
    read_csv,
    read_csv_windows,
    read_edf,
    read_edf_windows,
    write_csv,
    write_edf,
)
from .regress import (
    FitResult,
    FourPLModel,
    QuarticModel,
    RankedModel,
    aic,
    compare_models,
    eval_4pl,
    eval_quartic,
    fit_4pl,
    fit_quartic,
)
from .spectral import (
    PsdEstimate,
    WelchConfig,
    band_power,
    band_ratio,
    relative_increase,
    welch_psd,
)
from .synth import SynthSpec, synth_eeg
from .topo import (
    TopoGrid,
    TopoVector,
    interpolate_scalp,
    render_topomap,
    topo_similarity,
)

__version__ = "0.1.0"

__all__ = [
    "BandDefinition",
    "ChannelInfo",
    "CsvLayout",
    "DEFAULT_BANDS",
    "EdfHeader",
    "Epoch",
    "FitResult",
    "FourPLModel",
    "Montage",
    "PipelineError",
    "PsdEstimate",
    "QuarticModel",
    "RankedModel",
    "Recording",
    "SessionProtocol",
    "SynthSpec",
    "TopoGrid",
    "TopoVector",
    "ValidationError",
    "WelchConfig",
    "aic",
    "band_power",
    "band_ratio",
    "compare_models",
    "eval_4pl",
    "eval_quartic",
    "fit_4pl",
    "fit_quartic",
    "interpolate_scalp",
    "load_montage",
    "parse_edf_header",
    "read_csv",
    "read_csv_windows",
    "read_edf",
    "read_edf_windows",
    "relative_increase",
    "render_topomap",
    "slice_epochs",
    "standard_montage",
    "synth_eeg",
    "topo_similarity",
    "welch_psd",
    "write_csv",
    "write_edf",
]
