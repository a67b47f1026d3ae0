import numpy as np
import pytest

from siftlab import bulk
from siftlab.arith import PrimeTable


@pytest.fixture(scope="session")
def t1e5():
    return PrimeTable(10**5)


@pytest.fixture(scope="session")
def t1e6():
    return PrimeTable(10**6)


def lambda_upto(x, primes, threads=1, width=bulk.DEFAULT_WINDOW):
    """Array l with l[n] = carmichael lambda(n) for 0 <= n <= x; l[0] = 0."""
    out = np.zeros(x + 1, dtype=np.int64)
    bulk.fill_windows(out[1:], 1, lambda a, b, dest: bulk.lambda_window(a, b, primes, out=dest),
                      threads, width)
    return out
