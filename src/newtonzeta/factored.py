"""Exact arithmetic on products of the form prod_m (1 - t^m)^{e_m}.

All zeta functions produced by this package live in the multiplicative
span of the binomials 1 - t^m.  Since 1 - t^m splits into cyclotomic
polynomials over the divisors of m, the map to cyclotomic multiplicities
is injective, so equality as rational functions can be decided on the
multiplicity vectors; series expansion is kept for diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


def _divisors(m: int) -> list[int]:
    """Positive divisors of |m| in increasing order (none for 0)."""
    m = abs(m)
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class FactoredZeta:
    """Map from exponent base m >= 1 to a nonzero integer power e_m."""
    factors: tuple[tuple[int, int], ...]  # sorted by m, zero powers pruned

    def __mul__(self, other: "FactoredZeta") -> "FactoredZeta":
        acc = dict(self.factors)
        for m, e in other.factors:
            acc[m] = acc.get(m, 0) + e
        return _from_map(acc)

    def __pow__(self, k: int) -> "FactoredZeta":
        return _from_map({m: e * k for m, e in self.factors})

    def inv(self) -> "FactoredZeta":
        return _from_map({m: -e for m, e in self.factors})

    def degree(self) -> int:
        """Degree as a rational function: sum of m * e_m."""
        return sum(m * e for m, e in self.factors)

    def cyclotomic_signature(self) -> dict[int, int]:
        """Multiplicity of each cyclotomic polynomial in the product.

        >>> factor(6).cyclotomic_signature()
        {1: 1, 2: 1, 3: 1, 6: 1}
        """
        sig: dict[int, int] = {}
        for m, e in self.factors:
            for d in _divisors(m):
                sig[d] = sig.get(d, 0) + e
        return {d: v for d, v in sorted(sig.items()) if v != 0}

    def equals(self, other: "FactoredZeta") -> bool:
        """Equality as rational functions (identical cyclotomic signatures)."""
        return self.cyclotomic_signature() == other.cyclotomic_signature()

    def expand_series(self, order: int) -> list[int]:
        """Exact power-series coefficients up to the given order.

        >>> factor(1, -1).expand_series(3)
        [1, 1, 1, 1]
        >>> factor(2).expand_series(3)
        [1, 0, -1, 0]
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        c = [0] * (order + 1)
        c[0] = 1
        for m, e in self.factors:
            for _ in range(abs(e)):
                if e > 0:  # multiply by (1 - t^m)
                    for k in range(order, m - 1, -1):
                        c[k] -= c[k - m]
                else:  # divide by (1 - t^m)
                    for k in range(m, order + 1):
                        c[k] += c[k - m]
        return c

    def pretty(self) -> str:
        """Canonical rendering, m ascending, unit exponents omitted.

        >>> (factor(6, -1) * factor(2)).pretty()
        '(1-t^2) (1-t^6)^-1'
        >>> one().pretty()
        '1'
        """
        parts = []
        for m, e in self.factors:
            base = "(1-t)" if m == 1 else f"(1-t^{m})"
            parts.append(base if e == 1 else f"{base}^{e}")
        return " ".join(parts) if parts else "1"

    def as_json_dict(self) -> dict:
        return {
            "factors": [{"m": m, "e": e} for m, e in self.factors],
            "pretty": self.pretty(),
            "degree": self.degree(),
        }


def _from_map(acc: dict[int, int]) -> FactoredZeta:
    return FactoredZeta(tuple(sorted((m, e) for m, e in acc.items() if e != 0)))


def one() -> FactoredZeta:
    return FactoredZeta(())


def factor(m: int, e: int = 1) -> FactoredZeta:
    if m < 1:
        raise ValueError("exponent base must be a positive integer")
    return _from_map({int(m): int(e)})


def product(zs) -> FactoredZeta:
    out = one()
    for z in zs:
        out = out * z
    return out


_FACTOR_RE = re.compile(r"\(1-t(?:\^(\d+))?\)(?:\^(-?\d+))?")


def parse_factored(text: str) -> FactoredZeta:
    """Parse the canonical rendering back into a FactoredZeta."""
    s = text.strip()
    if s == "1":
        return one()
    acc: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        m = _FACTOR_RE.match(s, pos)
        if m is None:
            raise ValueError(f"bad factored form at position {pos}: {s[pos:]!r}")
        base = int(m.group(1)) if m.group(1) else 1
        if base == 0:
            raise ValueError(f"exponent base 0 at position {pos}: {s[pos:]!r}")
        e = int(m.group(2)) if m.group(2) else 1
        acc[base] = acc.get(base, 0) + e
        pos = m.end()
    return _from_map(acc)
