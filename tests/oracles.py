"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: trial division, direct scans,
lattice enumeration.  Nothing imports package internals, so agreement
with the package is evidence, not tautology.
"""

from math import gcd, isqrt, lcm, log

import numpy as np


def ofactor(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, ascending primes."""
    parts = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            parts.append((d, e))
        d += 1
    if n > 1:
        parts.append((n, 1))
    return parts


def oadmits(cond, n: int) -> bool:
    """Scalar survivor test of a sieve condition: n avoids every excluded residue."""
    return all(n % p not in rs for p, rs in cond.exclusions)


def osigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def ophi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def omu(n: int) -> int:
    out = 1
    for _, e in ofactor(n):
        if e > 1:
            return 0
        out = -out
    return out


def olam(n: int, parts: list[tuple[int, int]] | None = None) -> int:
    """Carmichael lambda from the prime-power formula; parts is ofactor(n) if already known."""
    L = 1
    for p, e in ofactor(n) if parts is None else parts:
        if p == 2:
            v = 1 if e == 1 else (2 if e == 2 else 1 << (e - 2))
        else:
            v = p ** (e - 1) * (p - 1)
        L = lcm(L, v)
    return L


def omax_order(n: int) -> int:
    """Exponent of the unit group by walking cyclic subgroups."""
    if n <= 2:
        return 1
    covered = bytearray(n)
    best = 1
    for a in range(2, n):
        if covered[a] or gcd(a, n) != 1:
            continue
        x = a
        steps = 1
        while x != 1:
            covered[x] = 1
            x = (x * a) % n
            steps += 1
        if steps > best:
            best = steps
    return best


def olegendre(a: int, p: int) -> int:
    """Legendre symbol for odd prime p via the Euler criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def or_lattice(n: int) -> int:
    """Number of lattice points on X**2 + Y**2 = n."""
    count = 0
    b = isqrt(n)
    for x in range(-b, b + 1):
        y2 = n - x * x
        y = isqrt(y2)
        if y * y == y2:
            count += 1 if y == 0 else 2
    return count


def brute_table_counts(limit: int) -> list[int]:
    """A(N) for N = 0..limit by an incremental product set."""
    prods = {1}
    out = [0, 1]
    for N in range(2, limit + 1):
        for a in range(1, N + 1):
            prods.add(a * N)
        out.append(len(prods))
    return out


def osifted_table_sum(members, x: int, rule) -> float:
    """Sum of f(n) over members n that split as a*b with a, b <= isqrt(x).

    The factor-and-divisor test: n qualifies when its largest divisor d <=
    isqrt(x) has d * isqrt(x) >= n.  f(n) multiplies rule(p, e) over the
    factorization in ascending p starting from 1.0, and the weights are
    added in the order of members (ascending n) starting from 0.0.
    """
    B = isqrt(x)
    total = 0.0
    for n in members:
        parts = ofactor(n)
        divs = [1]
        for p, e in parts:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        if max(d for d in divs if d <= B) * B >= n:
            w = 1.0
            for p, e in parts:
                w *= float(rule(p, e))
            total += w
    return total


def is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def ojoint_poly_omega(polys, x: int, y: int, targets) -> int:
    """#{p prime in (x - y, x] : Q_j(p) != 0 and omega(Q_j(p)) = k_j for every j}, one
    prime and one polynomial at a time, each value factored by trial division."""
    count = 0
    for p in range(x - y + 1, x + 1):
        if not is_prime_slow(p):
            continue
        for q, k in zip(polys, targets):
            val = abs(sum(c * p**i for i, c in enumerate(q)))
            if val == 0 or len(ofactor(val)) != k:
                break
        else:
            count += 1
    return count


def osieve(limit: int) -> np.ndarray:
    """Primality flags for 0..limit: the sieve of Eratosthenes over one bytearray."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(min(2, limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)


def oshifted_primes(a: int, b: int, x: int) -> np.ndarray:
    """Bools over [0, x], True at each a*p + b in [1, x] with p prime, one prime at a time."""
    out = np.zeros(x + 1, dtype=bool)
    for p in np.flatnonzero(osieve(max((x - b) // a, 1))).tolist():
        if 1 <= a * p + b <= x:
            out[a * p + b] = True
    return out


def oform_values(a: int, b: int, c: int, x: int, k: int | None = None) -> np.ndarray:
    """Bools over [0, x], True at each value n in [1, x] of a*X**2 + b*X*Y + c*Y**2, and
    with n + k prime if k is given.  4c f = (2cY + bX)**2 + dX**2 and 4a f =
    (2aX + bY)**2 + dY**2 with d = 4ac - b**2 > 0, so every point with f <= x lies in
    the box |X| <= sqrt(4cx / d), |Y| <= sqrt(4ax / d); every point of it is evaluated."""
    d = 4 * a * c - b * b
    bx, by = isqrt(4 * c * x // d), isqrt(4 * a * x // d)
    X, Y = np.meshgrid(np.arange(-bx, bx + 1), np.arange(-by, by + 1))
    v = a * X * X + b * X * Y + c * Y * Y
    out = np.zeros(x + 1, dtype=bool)
    out[v[(v >= 1) & (v <= x)]] = True
    if k is not None:
        n = np.arange(x + 1)
        flags = osieve(x + abs(k))
        out &= (n + k >= 0) & flags[np.maximum(n + k, 0)]
    return out


def olambda_value(n: int) -> bool:
    """Whether n is a value of Carmichael lambda.

    n is a value iff it equals the lcm of the prime-power lambda values that
    divide it: 2**v_2(n), and q**v_q(n) * (q - 1) for every odd prime q with
    (q - 1) | n.  Such a q is d + 1 for an even divisor d of n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        return n == 1  # lambda is even everywhere past 2
    divs = [1]
    for p, e in ofactor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    L = n & -n
    for d in divs:
        if d % 2 == 0 and is_prime_slow(d + 1):
            q, c, m = d + 1, d, n
            while m % q == 0:
                m //= q
                c *= q
            L = lcm(L, c)
    return L == n


def ohr_constant(x: int) -> float:
    """Sup over t in [2, x] of |sum_{p <= t} 1/p - log log t| over every prime up to x.

    A bytearray sieve feeds the same float64 steps in the same order as
    the library did before it stopped reading primes past 286.
    """
    flags = bytearray([1]) * (x + 1)
    flags[:2] = b"\0\0"
    for d in range(2, isqrt(x) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, x + 1, d)))
    ps = np.flatnonzero(np.frombuffer(bytes(flags), dtype=np.uint8)).astype(np.float64)
    csum = np.cumsum(1.0 / ps)
    ll = np.log(np.log(ps))
    best = float(np.max(np.abs(csum - ll)))
    left = np.abs(csum[:-1] - ll[1:])
    if left.size:
        best = max(best, float(np.max(left)))
    return max(best, abs(float(csum[-1]) - log(log(x))))
