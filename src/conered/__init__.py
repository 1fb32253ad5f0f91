"""Conical-hull data reduction and self-dictionary endmember extraction."""

from .clustering import Partition, kmeans_partition
from .core import (
    FORMAT_CSV,
    FORMAT_HSM1,
    HsiMatrix,
    IndexSet,
    detect_format,
    l1_normalize_columns,
    load_matrix,
    mrsa,
    store_matrix,
)
from .dimred import TruncatedSvd, reduce_dimension, truncated_svd
from .errors import (
    ConeredError,
    ConfigError,
    InputFormatError,
    NumericalError,
)
from .hottopixx import (
    LpSolution,
    ModelH,
    build_model_h,
    model_h_lp,
    postprocess_method_c,
    solve_model_h,
)
from .metrics import (
    MrsaScore,
    TheoremReport,
    dict_distance,
    mrsa_score,
    reconstruction_error,
    rho,
    theorem1_check,
)
from .nnls import NnlsResult, cone_membership, nnls_solve
from .redic import EndmemberEstimate, RedicConfig, align_columns, redic
from .reduction import GammaReport, dr, drs, verify_gamma
from .synth import SynthInstance, assemble, derive_whv, random_separable

__version__ = "0.1.0"

__all__ = [
    "ConeredError",
    "ConfigError",
    "EndmemberEstimate",
    "FORMAT_CSV",
    "FORMAT_HSM1",
    "GammaReport",
    "HsiMatrix",
    "IndexSet",
    "InputFormatError",
    "LpSolution",
    "ModelH",
    "MrsaScore",
    "NnlsResult",
    "NumericalError",
    "Partition",
    "RedicConfig",
    "SynthInstance",
    "TheoremReport",
    "TruncatedSvd",
    "align_columns",
    "assemble",
    "build_model_h",
    "cone_membership",
    "derive_whv",
    "detect_format",
    "dict_distance",
    "dr",
    "drs",
    "kmeans_partition",
    "l1_normalize_columns",
    "load_matrix",
    "model_h_lp",
    "mrsa",
    "mrsa_score",
    "nnls_solve",
    "postprocess_method_c",
    "random_separable",
    "redic",
    "reconstruction_error",
    "reduce_dimension",
    "rho",
    "solve_model_h",
    "store_matrix",
    "theorem1_check",
    "truncated_svd",
    "verify_gamma",
]
