"""jsqlab: simulation and analytics for join-the-shortest-of-D queueing tails.

Two routes to the equilibrium tail probabilities of a FIFO JSQ(D) network --
direct N-queue discrete-event simulation and single-queue cavity fixed-point
iteration -- plus the closed-form exponents that predict how those tails
decay, so simulation and prediction can be confronted on the same CSV schema.
"""

from .analytic import (
    AffineLimit,
    GrowthEstimate,
    QRoot,
    RecursionParams,
    RegimeReport,
    affine_limit,
    boundary_beta,
    classify_regime,
    gamma_exponent,
    iterate_bound_recursion,
    q_of_beta,
    q_root,
    recursion_growth,
    vdk_log_tail,
    vdk_tail,
)
from .cavity import (
    CycleStats,
    FixedPointControls,
    FixedPointReport,
    effective_arrival_rate,
    fixed_point,
    measure_return_time,
    simulate_cycles,
    simulate_cycles_sharded,
    tail_from_cycles,
)
from .errors import AuditFailure, ConfigError, InsufficientDataError
from .fitting import TailFit, fit_tail
from .network import (
    NetworkConfig,
    NetworkRun,
    PairDependence,
    conservation_audit,
    merge_estimates,
    pair_dependence,
    run_network,
    run_replication,
)
from .service_dist import KINDS, ServiceDistributionSpec, cdf, log_tail, make_sampler, make_spec, tail
from .tails import TailEstimate, TailVector, read_tail_csv, write_tail_csv

__version__ = "0.1.0"
