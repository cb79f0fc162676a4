"""Exact arithmetic on products of the form prod_m (1 - t^m)^{e_m}.

All zeta functions produced by this package live in the multiplicative
span of the binomials 1 - t^m.  Since 1 - t^m is the product of the
cyclotomic polynomials Phi_d over the divisors d of m, a product has
multiplicity c_d = sum of e_m over the multiples m of d, and Moebius
inversion gives the exponents back from these multiplicities.  So each
rational function of this span has exactly one factor list, bases rising
and exponents nonzero, which is all that ``FactoredZeta`` admits, and
``==`` on that list is equality of rational functions.  ``**`` takes
powers and inverses (``z ** -1``), and ``cyclotomic_signature`` is the one
diagnostic: it gives the multiplicities c_d, which carry the monodromy's
eigenvalues.
``pretty`` writes that factor list as text and ``parse_factored`` reads
back exactly what ``pretty`` writes, so the two are inverses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index


def _divisors(m: int) -> list[int]:
    """Positive divisors of m >= 1 in increasing order."""
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

    def __post_init__(self):
        # one pass: a tuple of integer pairs (m, e), m >= 1 strictly
        # increasing and e != 0, the one factor list of its rational
        # function; anything but a tuple fails as its own first factor
        fs, prev = self.factors, 0
        for f in fs if type(fs) is tuple else (fs,):
            if not (type(f) is tuple and len(f) == 2 and type(f[0]) is type(f[1]) is int
                    and f[0] > prev and f[1]):
                raise ValueError("factors must be int pairs (m, e), m > 0 rising, e != 0")
            prev = f[0]

    def __mul__(self, other: "FactoredZeta") -> "FactoredZeta":
        if not isinstance(other, FactoredZeta):
            return NotImplemented
        return product((self, other))

    def __pow__(self, k: int) -> "FactoredZeta":
        k = index(k)
        return _from_map({m: e * k for m, e in self.factors})

    def degree(self) -> int:
        """Degree as a rational function: sum of m * e_m."""
        return sum(m * e for m, e in self.factors)

    def cyclotomic_signature(self) -> dict[int, int]:
        """Multiplicity of each cyclotomic polynomial in the product.

        The divisors of each base come by trial division up to its square
        root, so a largest base above 10^12 is refused before any division
        rather than left to run for minutes.

        >>> factor(6).cyclotomic_signature()
        {1: 1, 2: 1, 3: 1, 6: 1}
        """
        if self.factors and self.factors[-1][0] > 10 ** 12:
            raise ValueError(f"base {self.factors[-1][0]} is above 10^12, "
                             "too large to factor by trial division")
        sig: dict[int, int] = {}
        for m, e in self.factors:
            for d in _divisors(m):
                sig[d] = sig.get(d, 0) + e
        return {d: v for d, v in sorted(sig.items()) if v != 0}

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
    m = index(m)
    if m < 1:
        raise ValueError("exponent base must be a positive integer")
    return _from_map({m: index(e)})


def product(zs) -> FactoredZeta:
    """The product of the factored forms ``zs`` (``one()`` when empty),
    summed into one map and sorted once."""
    acc: dict[int, int] = {}
    for z in zs:
        for m, e in z.factors:
            acc[m] = acc.get(m, 0) + e
    return _from_map(acc)


_FACTOR_RE = re.compile(r"\(1-t(?:\^(\d+))?\)(?:\^(-?\d+))?")


def parse_factored(text: str) -> FactoredZeta:
    """The inverse of ``pretty``: the product whose rendering is ``text``
    (surrounding whitespace aside); any other text is refused.

    >>> parse_factored(" (1-t^2) (1-t^6)^-1 ") == factor(2) * factor(6, -1)
    True
    """
    s = text.strip()
    try:  # int refuses a number too long to read, the constructor a bad list
        z = FactoredZeta(tuple((int(m or 1), int(e or 1))
                               for m, e in _FACTOR_RE.findall(s)))
        if z.pretty() == s:
            return z
    except ValueError:
        pass
    raise ValueError(f"not a factored form as pretty() writes it: {text!r}")
