"""Binary embedding via circulant sign projections.

Maps unit vectors to short sign codes whose normalized Hamming distance
tracks angular distance, using either a dense Gaussian projection or fast
structured operators built from one circulant matrix, with an optional
Walsh-Hadamard randomization stage for spiky inputs. Ships with a Monte
Carlo validation harness for distortion, spectral conditioning, and
coherence-reduction behavior.
"""

from .embedders import (
    KINDS,
    R_DISTS,
    CirculantOperator,
    GaussianOperator,
    RandomizedOperator,
    deserialize_operator,
    embed,
    embed_points,
    materialize_operator,
    read_operator_record,
    sample_circulant_operator,
    sample_gaussian_operator,
    sample_operator,
    sample_randomized_operator,
    serialize_operator,
)
from .errors import ParseError
from .geometry import (
    CoherenceStats,
    PointSet,
    angular_distance,
    angular_perturbation_bound,
    coherence,
    hamming_normalized,
)
from .io import (
    ResultDocument,
    generate_pointset,
    load_codes,
    load_pointset,
    load_pointset_csv,
    load_result,
    save_codes,
    save_pairs,
    save_pointset,
    save_pointset_csv,
    save_result,
)
from .rng import Rng, derive_seed
from .transforms import (
    IndexSet,
    circulant_apply,
    fwht,
    hadamard_matrix,
    naive_circulant_apply,
    restrict,
    shift,
)
from .validation import (
    ConditionCheck,
    ConditioningReport,
    DecompositionReport,
    DistortionReport,
    ModulationReport,
    check_condition1,
    conditioning_experiment,
    decomposition_experiment,
    distortion_experiment,
    evaluate_codes,
    hadamard_coherence_experiment,
    run_gate_suite,
    sweep,
)

__version__ = "0.1.0"
