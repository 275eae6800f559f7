"""Joint recovery of correlated sparse signals from few measurements per view.

The library models a network of views that each observe a sparse
combination of dictionary atoms through a small random Gaussian
measurement operator, with supports across views related by known-form
transformations (for example translations).  Joint thresholding decoders
estimate the shared support and the per-view transformation together,
which needs far fewer measurements per view than decoding each view on
its own; analysis helpers evaluate the concentration bounds that predict
this behaviour, and the experiments module runs seeded benchmark sweeps.
"""

from .analysis import (BERNSTEIN_SCALE_COEFF, BERNSTEIN_VARIANCE_COEFF,
                       RECOVERY_EXPONENT_COEFF, BoundInputs, BoundValue,
                       concentration_tail_bound, empirical_tail_frequency,
                       min_measurements_for_recovery, mse, recovery_rate,
                       recovery_rate_bound)
from .decode import (DecodeResult, LeastSquaresFit,
                     atom_measurement_correlations, correlation_vector,
                     greedy_joint_threshold_decode, independent_threshold_decode,
                     joint_threshold_decode, least_squares_reconstruct,
                     select_top_s)
from .dictionary import (Dictionary, GaussianAtom2D, ModulatedAtom1D,
                         build_gabor_1d_dictionary,
                         build_gaussian_2d_dictionary, odd_translations)
from .ensemble import (EnsembleGenerationError, SignalEnsemble,
                       generate_ensemble, load_signal_csv,
                       thresholding_margin)
from .experiments import (DictionaryConfig, ExperimentConfig, ResultTable,
                          TrialRecord, config_hash, decode_instance,
                          emit_plot_data, get_preset, load_config,
                          preset_names, read_trials_csv, run_experiment,
                          save_config, validate_config)
from .sensing import (MeasurementSet, SensingMatrix, identity_sensing,
                      measure, measure_ensemble, sample_sensing_matrix)
from .transforms import (AtomTransform, CandidateSet, TransformVector,
                         apply_to_support, identity_transform,
                         translation_transform)

__version__ = "0.1.0"

__all__ = [
    "AtomTransform", "BoundInputs", "BoundValue", "CandidateSet",
    "DecodeResult", "Dictionary", "DictionaryConfig",
    "EnsembleGenerationError", "ExperimentConfig", "GaussianAtom2D",
    "LeastSquaresFit", "MeasurementSet", "ModulatedAtom1D",
    "ResultTable", "SensingMatrix", "SignalEnsemble", "TransformVector",
    "TrialRecord",
    "BERNSTEIN_SCALE_COEFF", "BERNSTEIN_VARIANCE_COEFF",
    "RECOVERY_EXPONENT_COEFF",
    "atom_measurement_correlations",
    "build_gabor_1d_dictionary", "build_gaussian_2d_dictionary",
    "concentration_tail_bound", "config_hash",
    "correlation_vector", "decode_instance", "emit_plot_data",
    "empirical_tail_frequency", "generate_ensemble", "get_preset",
    "greedy_joint_threshold_decode", "identity_sensing",
    "identity_transform", "independent_threshold_decode",
    "joint_threshold_decode", "least_squares_reconstruct", "load_config",
    "load_signal_csv", "measure", "measure_ensemble",
    "min_measurements_for_recovery", "mse", "odd_translations",
    "preset_names", "read_trials_csv", "recovery_rate",
    "recovery_rate_bound", "run_experiment", "sample_sensing_matrix",
    "save_config", "select_top_s", "thresholding_margin",
    "translation_transform", "validate_config",
]
