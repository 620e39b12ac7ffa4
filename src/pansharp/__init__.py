"""pansharp: MS+PAN image fusion toolkit.

Classical multiresolution-analysis fusion, a trainable two-level
detail-injection network, reduced-resolution dataset simulation, and the
standard quality metrics, all on plain numpy.
"""

from .errors import (
    ConfigError,
    DataError,
    NumericError,
    PansharpError,
    TrainingDiverged,
)
from .fusion import METHODS, MraConfig, fuse, mra_fuse
from .gradcheck import model_gradient_error, run_gradcheck
from .imaging import MsImage, PanImage, SensorSpec, get_sensor
from .metrics import (
    EvalReport,
    no_reference_metrics,
    qnr,
    reference_metrics,
)
from .model import (
    TdnetConfig,
    ablation_configs,
    count_parameters,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tdnet_forward,
    tdnet_loss,
)
from .train import TrainConfig, TrainResult, ablation_suite, train, validate
from .wald import (
    DatasetManifest,
    SamplePair,
    load_sample,
    make_samples,
    read_manifest,
    split,
    synthetic_scene,
    write_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "NumericError",
    "PansharpError",
    "TrainingDiverged",
    "METHODS",
    "MraConfig",
    "fuse",
    "mra_fuse",
    "model_gradient_error",
    "run_gradcheck",
    "MsImage",
    "PanImage",
    "SensorSpec",
    "get_sensor",
    "EvalReport",
    "no_reference_metrics",
    "qnr",
    "reference_metrics",
    "TdnetConfig",
    "ablation_configs",
    "count_parameters",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "tdnet_forward",
    "tdnet_loss",
    "TrainConfig",
    "TrainResult",
    "ablation_suite",
    "train",
    "validate",
    "DatasetManifest",
    "SamplePair",
    "load_sample",
    "make_samples",
    "read_manifest",
    "split",
    "synthetic_scene",
    "write_dataset",
    "__version__",
]
