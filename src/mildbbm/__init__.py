"""Branching Brownian motion among reproduction-blocking Poissonian obstacles.

A particle system in which independent Brownian particles split in two at
rate beta, except while sitting inside any of the closed balls drawn around
the points of a Poisson process, where splitting is suppressed.  The
package provides

* exact closed forms: growth-slowdown constants, clearing radii, principal
  eigenvalues, interval-confinement probabilities, pair-coalescence laws of
  the underlying pure-birth genealogy (:mod:`analysis`, :mod:`genealogy`);
* reproducible lazily generated obstacle fields on all of R^d
  (:mod:`environment`);
* an exact particle simulator, stepped as arrays in rounds inside each
  observation epoch, with genealogy logging, a free-run trimming
  coupling, and local/global growth observables (:mod:`branching`);
* first-moment Monte Carlo estimators of the expected mass, quenched and
  annealed (:mod:`feynman_kac`), and in d = 1 a deterministic Crank-Nicolson
  solve of the same first moment (:mod:`first_moment`, imported on demand
  so that importing the package stays cheap);
* a campaign runner CLI (:mod:`cli`).
"""

from .analysis import (
    DerivedConstants,
    ModelConstants,
    annealed_constant,
    clearing_radius,
    confinement_prob_series_1d,
    derive_constants,
    lambda_c_constant_drift,
    predicted_log_mass,
    principal_eigenvalue_ball,
    principal_eigenvalue_unit_ball,
    quenched_constant,
    unit_ball_volume,
)
from .branching import (
    Ball,
    GenealogyLog,
    GrowthCurve,
    ParticleCapExceeded,
    SimConfig,
    dichotomy_experiment,
    local_mass,
    population_at,
    run_batch,
    run_bbm,
    trim_coupling,
)
from .environment import (
    Clearing,
    ObstacleField,
    largest_clearing,
    save_points,
    write_header,
)
from .feynman_kac import (
    FkEstimate,
    estimate_annealed_mass,
    estimate_quenched_mass,
    sample_free_times,
)
from .genealogy import (
    MrcaLaw,
    YuleTree,
    martingale_limit_samples,
    mrca_cdf,
    mrca_density,
    pre_coalescence_size_pmf,
    sample_pair_mrca,
    simulate_yule_tree,
    yule_count_pmf,
)
from .seeds import derive_seed

__version__ = "0.1.0"
