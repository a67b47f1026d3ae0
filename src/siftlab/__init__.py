"""Exact sieve experiments on the distribution of prime-factor counts.

The package sieves integer intervals exactly (no sampling, no floating
point in the arithmetic core), applies congruence sieves and weight
functions, and compares the observed counts against explicit upper
bounds.  Everything is deterministic: a fixed window width drives the
work splitting, so results do not depend on the thread count.
"""

from .arith import (
    FactorWindow,
    Factorization,
    PrimeTable,
    factorize,
    is_prime,
    kronecker,
)
from .errors import ResourceBudgetError
from .hist import (
    deviation,
    hr_ratio,
    mgf_sum,
    q_rate,
    tail_masses,
    weighted_histogram,
)
from .multfunc import (
    MultiplicativeFunction,
    builtin,
    hr_constant,
    mertens_sum,
    values_upto,
)
from .primesets import (
    ALL_PRIMES,
    AllPrimes,
    Explicit,
    Interval,
    KroneckerSign,
    MinThreshold,
    ResidueClasses,
)
from .sift import (
    NO_SIEVE,
    QuadraticForm,
    SieveCondition,
    SiftedSet,
    condition,
    everything,
    exact_qf_shifted,
    exact_qf_values,
    exact_shifted_primes,
    preset_shifted_prime_superset,
)
from .table import (
    eta0,
    ford_ratio,
    sifted_table_sum,
    table_count,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PRIMES",
    "AllPrimes",
    "Explicit",
    "FactorWindow",
    "Factorization",
    "Interval",
    "KroneckerSign",
    "MinThreshold",
    "MultiplicativeFunction",
    "NO_SIEVE",
    "PrimeTable",
    "QuadraticForm",
    "ResidueClasses",
    "ResourceBudgetError",
    "SieveCondition",
    "SiftedSet",
    "builtin",
    "condition",
    "deviation",
    "eta0",
    "everything",
    "exact_qf_shifted",
    "exact_qf_values",
    "exact_shifted_primes",
    "factorize",
    "ford_ratio",
    "hr_constant",
    "hr_ratio",
    "is_prime",
    "kronecker",
    "mertens_sum",
    "mgf_sum",
    "preset_shifted_prime_superset",
    "q_rate",
    "sifted_table_sum",
    "table_count",
    "tail_masses",
    "values_upto",
    "weighted_histogram",
]
