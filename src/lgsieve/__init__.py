"""lgsieve: local-global divisor systems and the smooth sieve.

Construction and verification of explicit LG sets, Dickman's rho,
residue-class discrepancy bounds, and smooth-sum counting experiments.
"""

from .dickman import DickmanTable, build_dickman_table, empirical_rho, rho
from .discrepancy import DiscrepancyReport, variance_report
from .lgset import (
    CoverageReport,
    LGParams,
    LGSet,
    PairwiseLcmReport,
    choose_cutoff,
    construct,
    coverage,
    find_divisor,
    load_json,
    save_json,
    verify_pairwise_lcm,
    with_cutoff,
)
from .primes import (
    Factorization,
    PrimeTable,
    ResourceLimitError,
    build_prime_table,
    factorize,
    is_smooth,
    largest_prime_factor,
    psi_count,
)
from .smoothcount import (
    SieveReport,
    SmoothPartition,
    WeightedSet,
    difference_weights,
    partition,
    sieve_report,
    sumset_weights,
    theorem3_experiment,
)

__version__ = "0.1.0"
