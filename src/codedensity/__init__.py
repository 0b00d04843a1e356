"""Density of error-correcting codes in the Hamming, rank, and sum-rank
metrics: exact combinatorics, finite density brackets, asymptotic
classification, and seeded empirical verification."""

__version__ = "0.1.0"

from .bounds import (
    CodeFamilySpec,
    DensityBracket,
    NonlinearBoundTerms,
    SublinearBoundTerms,
    bad_code_count_brackets,
    gv_cardinality,
    max_linear_dimension,
    nonlinear_bracket,
    singleton_max,
    sublinear_bracket,
)
from .classifier import (
    Classification,
    Scenario,
    classify,
    msrd_eta_region,
    msrd_theta,
    ratio_probe,
    specialized_verdict,
)
from .combinat import Enclosure, binom, compositions, euler_pi, qbinom
from .fields import (
    FieldTower,
    SubspaceBasis,
    build_tower,
    enumerate_subspaces,
    sample_code_subset,
    sample_subspace,
)
from .guards import Guards, GuardExceeded, UnsupportedAsymptotics
from .harness import (
    DEFAULT_SEED,
    SampleReport,
    Verdict,
    clopper_pearson,
    convergence_experiment,
    estimate_density,
    exact_density,
    run_verification,
    verify_bracket,
)
from .metrics import (
    AmbientSpace,
    GrowthProfile,
    ball_volume,
    ball_volume_oracle,
    min_distance,
    volume_growth,
    weight,
)

__all__ = [
    "AmbientSpace",
    "Classification",
    "CodeFamilySpec",
    "DEFAULT_SEED",
    "DensityBracket",
    "Enclosure",
    "FieldTower",
    "GrowthProfile",
    "Guards",
    "GuardExceeded",
    "NonlinearBoundTerms",
    "SampleReport",
    "Scenario",
    "SublinearBoundTerms",
    "SubspaceBasis",
    "UnsupportedAsymptotics",
    "Verdict",
    "bad_code_count_brackets",
    "ball_volume",
    "ball_volume_oracle",
    "binom",
    "build_tower",
    "classify",
    "clopper_pearson",
    "compositions",
    "convergence_experiment",
    "enumerate_subspaces",
    "estimate_density",
    "euler_pi",
    "exact_density",
    "gv_cardinality",
    "max_linear_dimension",
    "min_distance",
    "msrd_eta_region",
    "msrd_theta",
    "nonlinear_bracket",
    "qbinom",
    "ratio_probe",
    "run_verification",
    "sample_code_subset",
    "sample_subspace",
    "singleton_max",
    "specialized_verdict",
    "sublinear_bracket",
    "verify_bracket",
    "volume_growth",
    "weight",
]
