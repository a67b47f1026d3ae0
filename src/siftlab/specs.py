"""Parsing for the small command-line spec languages.

Weight specs:   one | musq | zomega:Z | zbigomega:Z | tauk:K | r4 | s2s
                | phioverN | Noverphi
Prime subsets:  all | pmin:P0 | mod:M:r1,r2 | kron:D:+1 | list:FILE
                | interval:A:B | not:SPEC
Set specs:      none | avoid:B/modp<=Z[,coprime=A] | explicit:FILE
                | sp:A,B | qf:A,B,C[,shift=K]

A parsed object renders back to a canonical spec via spec_string, and
parsing that string returns an equivalent object.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import multfunc
from .arith import PrimeTable, is_prime
from .primesets import (
    ALL_PRIMES,
    Interval,
    KroneckerSign,
    MinThreshold,
    PrimeSubset,
    ResidueClasses,
    explicit_primes,
)
from .sift import (
    NO_SIEVE,
    QuadraticForm,
    SieveCondition,
    SiftedSet,
    condition,
    exact_qf_shifted,
    exact_qf_values,
    exact_shifted_primes,
    preset_shifted_prime_superset,
    qf_shifted_prime_limit,
    shifted_prime_limit,
    sift,
)


def parse_weight(spec: str) -> multfunc.MultiplicativeFunction:
    name, _, arg = spec.partition(":")
    try:
        if name in ("one", "musq", "r4", "s2s", "phioverN", "Noverphi"):
            if arg:
                raise ValueError(f"{name} takes no parameter")
            return multfunc.builtin(name)
        if name in ("zomega", "zbigomega"):
            return multfunc.builtin(name, float(arg))
        if name == "tauk":
            return multfunc.builtin(name, int(arg))
    except ValueError as exc:
        raise ValueError(f"bad weight spec {spec!r}: {exc}") from None
    raise ValueError(f"bad weight spec {spec!r}")


def parse_primeset(spec: str) -> PrimeSubset:
    kind, _, rest = spec.partition(":")
    if kind == "all":
        return ALL_PRIMES
    if kind == "not":
        return parse_primeset(rest).complement()
    try:
        if kind == "pmin":
            return MinThreshold(int(rest))
        if kind == "mod":
            m, _, rs = rest.partition(":")
            return ResidueClasses(int(m), tuple(int(r) for r in rs.split(",")))
        if kind == "kron":
            d, _, sg = rest.partition(":")
            if sg not in ("+1", "-1"):
                raise ValueError("sign must be +1 or -1")
            return KroneckerSign(int(d), 1 if sg == "+1" else -1)
        if kind == "interval":
            a, _, b = rest.partition(":")
            return Interval(int(a), int(b))
        if kind == "list":
            return explicit_primes(_read_ints(rest))
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad prime-set spec {spec!r}: {exc}") from None
    raise ValueError(f"bad prime-set spec {spec!r}")


def _read_ints(path: str) -> list[int]:
    if "," in path or path.isdigit():
        # inline comma-separated members, handy in tests and scripts
        return [int(tok) for tok in path.split(",") if tok]
    with open(path) as fh:
        return [int(line) for line in fh.read().split() if line]


@dataclass(frozen=True)
class SetSpec:
    """Deferred description of a survivor set; realized once x is known."""

    kind: str                       # "cond" | "sp" | "qf"
    cond: SieveCondition | None = None
    a: int = 0
    b: int = 0
    c: int = 0
    shift: int | None = None
    raw: str = "none"

    def prime_limit(self, x: int) -> int:
        """The primes a histogram over the set reads: to x, and as far as
        realize needs them for a*p + b or for the primality of n + shift."""
        if self.kind == "sp":
            return max(x, shifted_prime_limit(self.a, self.b, x))
        if self.kind == "qf" and self.shift is not None:
            return qf_shifted_prime_limit(self.shift, x)
        return x

    def realize(self, x: int, table: PrimeTable | None = None) -> SiftedSet:
        if self.kind == "cond":
            return sift(x, self.cond)
        if self.kind == "sp":
            return exact_shifted_primes(self.a, self.b, x, table)
        form = QuadraticForm(self.a, self.b, self.c)
        if self.shift is None:
            return exact_qf_values(form, x)
        return exact_qf_shifted(form, self.shift, x, table)

    def spec_string(self) -> str:
        if self.kind == "cond":
            return self.raw if self.raw.startswith("avoid:") else self.cond.spec_string()
        if self.kind == "sp":
            return f"sp:{self.a},{self.b}"
        base = f"qf:{self.a},{self.b},{self.c}"
        return base if self.shift is None else f"{base},shift={self.shift}"


def parse_set_spec(spec: str, x: int | None = None) -> SetSpec:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "none":
            return SetSpec(kind="cond", cond=NO_SIEVE, raw="none")
        if kind == "avoid":
            return _parse_avoid(rest, spec, x)
        if kind == "explicit":
            return SetSpec(kind="cond", cond=_parse_explicit(rest), raw=spec)
        if kind == "sp":
            a, b = (int(t) for t in rest.split(","))
            return SetSpec(kind="sp", a=a, b=b, raw=spec)
        if kind == "qf":
            toks = rest.split(",")
            shift = None
            if toks and toks[-1].startswith("shift="):
                shift = int(toks.pop()[len("shift="):])
            a, b, c = (int(t) for t in toks)
            return SetSpec(kind="qf", a=a, b=b, c=c, shift=shift, raw=spec)
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad set spec {spec!r}: {exc}") from None
    raise ValueError(f"bad set spec {spec!r}")


def _parse_avoid(rest: str, spec: str, x: int | None) -> SetSpec:
    # avoid:B/modp<=Z[,coprime=A]
    head, _, tail = rest.partition(",")
    b_str, sep, z_str = head.partition("/modp<=")
    if not sep:
        raise ValueError("expected avoid:B/modp<=Z")
    b = int(b_str)
    z = int(z_str)
    a = 1
    if tail:
        key, _, val = tail.partition("=")
        if key != "coprime":
            raise ValueError(f"unknown option {key!r}")
        a = int(val)
    if x is None:
        raise ValueError("avoid presets need x to bound the sieve level")
    cond = preset_shifted_prime_superset(a, b, x, z)
    return SetSpec(kind="cond", cond=cond, raw=spec)


def _parse_explicit(path: str) -> SieveCondition:
    excl: dict[int, tuple[int, ...]] = {}
    if ";" in path or (":" in path):
        lines = path.split(";")
    else:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    for line in lines:
        p_str, _, rs = line.partition(":")
        p = int(p_str)
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        excl[p] = tuple(int(r) for r in rs.split(","))
    return condition(excl)


__all__ = [
    "parse_weight",
    "parse_primeset",
    "SetSpec",
    "parse_set_spec",
]
