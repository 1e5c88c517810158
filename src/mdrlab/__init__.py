"""Metric dimension reduction laboratory.

Submodules: :mod:`mdrlab.metric` (finite metrics, distortion, classical
embeddings), :mod:`mdrlab.jl` (Johnson-Lindenstrauss calculators and
transforms), :mod:`mdrlab.sdp` (Euclidean distortion by semidefinite
feasibility), :mod:`mdrlab.spectral` (reversible chains and nonlinear
spectral gaps), :mod:`mdrlab.matousek` (random coarse-obstruction
metrics), :mod:`mdrlab.moduli` (coarse embedding moduli), and
:mod:`mdrlab.cli` (the command line).

Importing the package or the CLI loads numpy and no scipy module.  Each
scipy subpackage is imported inside the function that computes with it;
``scipy.special``, whose ufuncs are the Beta and chi-square tails of
:mod:`mdrlab.jl`, loads on the first tail evaluation.
"""

from . import errors
from .jl import (
    JlPlan,
    JlResult,
    ProbabilityEstimate,
    gaussian_failure,
    gaussian_sigma,
    gaussian_success_monte_carlo,
    gaussian_success_prob,
    jl_min_dim_gaussian,
    jl_min_dim_projection,
    jl_transform,
    make_plan,
    psi,
    psi_failure,
    psi_monte_carlo,
    sample_haar_orthogonal,
    sigma_max,
    union_threshold,
)
from .matousek import (
    SignAssignment,
    SignedMetricParams,
    TemplateGraph,
    experiment_harness,
    gen_template,
    girth,
    min_fork_distance,
    random_signs,
    signed_metric,
)
from .metric import (
    EmbeddingReport,
    FiniteMetric,
    PointCloud,
    bourgain_embed,
    build_metric,
    distortion,
    doubling_constant,
    doubling_dim_lower_bound,
    frechet_embed,
    metric_cotype_ratio,
    random_metric,
    snowflake,
    volumetric_lower_bound,
)
from .moduli import ModulusPair, PowerModulus, TabulatedModulus, beta_modulus, coarse_dim_exponent
from .sdp import (
    C2Bracket,
    GramCandidate,
    NegativeTypeCertificate,
    c2_bracket,
    c2_bruteforce,
    c2_sdp,
    check_certificate,
    extract_points,
    find_violating_certificate,
)
from .spectral import (
    Configuration,
    MarkovChainSpec,
    ReversibleChain,
    WeightedGraph,
    chain_from_graph,
    cheeger_sweep,
    dim_lower_exponent,
    gamma_bruteforce,
    gamma_hilbert,
    gamma_sampled_lower_bound,
    hilbert_companion,
    hilbert_rayleigh_identity,
    lambda2,
    markov_convexity_ratio,
    power_expander_check,
    random_regular_graph,
    random_reversible_chain,
    rayleigh,
    rayleigh_general,
    t_parameter,
)

__version__ = "0.1.0"
