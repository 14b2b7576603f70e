"""etklab: entangled tensor kernels, their Mercer spectra, and learning
experiments for data re-uploading quantum kernels."""

from .errors import ResourceCapError, StructuralError, ValidationError
from .etk import (
    EtkKernel,
    etk_from_feature_set,
    etk_from_json,
    etk_to_json,
    evaluate,
    evaluate_real,
    gram_matrix,
    gram_matrix_real,
    linear_sum_etk,
    polynomial_etk,
    shift_invariant_etk,
    verify_psd,
)
from .feature_maps import LocalFeatureSet, PreprocessingFn
from .learning import (
    Dataset,
    TailoredTarget,
    generate_dataset,
    kernel_target_alignment,
    krr_fit,
    krr_predict,
    learning_comparison_experiment,
    learning_curve,
    tailored_target,
)
from .mercer import (
    FunctionBasis,
    MercerDecomposition,
    mercer_decompose,
    reconstruct_kernel,
)
from .quantum import (
    StandardFormCircuit,
    build_core_CT,
    coordinate_circuit,
    etk_from_circuit,
    simulate_kernel,
)
from .single_layer import (
    concentrated_state,
    eigenvalue_scaling_experiment,
    haar_unitary,
    single_layer_spectrum,
    spectrum_to_mercer,
)
from .tensor_core import LPMPO, MPO, SiteStructure, mpo_from_dense, mpo_to_dense

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EtkKernel",
    "FunctionBasis",
    "LPMPO",
    "LocalFeatureSet",
    "MPO",
    "MercerDecomposition",
    "PreprocessingFn",
    "ResourceCapError",
    "SiteStructure",
    "StandardFormCircuit",
    "StructuralError",
    "TailoredTarget",
    "ValidationError",
    "build_core_CT",
    "concentrated_state",
    "coordinate_circuit",
    "eigenvalue_scaling_experiment",
    "etk_from_circuit",
    "etk_from_feature_set",
    "etk_from_json",
    "etk_to_json",
    "evaluate",
    "evaluate_real",
    "generate_dataset",
    "gram_matrix",
    "gram_matrix_real",
    "haar_unitary",
    "kernel_target_alignment",
    "krr_fit",
    "krr_predict",
    "learning_comparison_experiment",
    "learning_curve",
    "linear_sum_etk",
    "mercer_decompose",
    "mpo_from_dense",
    "mpo_to_dense",
    "polynomial_etk",
    "reconstruct_kernel",
    "shift_invariant_etk",
    "simulate_kernel",
    "single_layer_spectrum",
    "spectrum_to_mercer",
    "tailored_target",
    "verify_psd",
]
