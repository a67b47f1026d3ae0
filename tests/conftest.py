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


@pytest.fixture
def window_width(monkeypatch):
    """use(width) makes bulk.DEFAULT_WINDOW, the one window width the package reads at
    call time, equal width until the test ends, and returns width."""
    def use(width: int) -> int:
        monkeypatch.setattr(bulk, "DEFAULT_WINDOW", width)
        return width

    return use


def lambda_upto(x, primes, threads=1):
    """Array l with l[n] = carmichael lambda(n) for 0 <= n <= x; l[0] = 0."""
    out = np.zeros(x + 1, dtype=np.int64)
    bulk.fill_windows(out[1:], 1, lambda a, b, dest: bulk.lambda_window(a, b, primes, out=dest),
                      threads)
    return out
