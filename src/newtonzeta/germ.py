"""Polynomial germs in the deformation parameter and the z-variables.

A germ is a finite sum of monomials ``c * sigma^{k0} z1^{k1} ... zn^{kn}``
with exact rational coefficients, vanishing at the origin.  Variable 0 is
always the deformation parameter.  Coefficients live in Q: the zeta
formulas depend only on the support, and the nondegeneracy checker works
over the rationals (documented restriction).

An expression is read as tokens, whitespace between them ignored: a number
(decimal digits), a name (a word character other than a decimal digit,
such as a letter, ``_`` or ``²``, then word characters), or one of the
operators ``+ - * / ^``; any other character is an error.  Grammar::

    expr   := [sign] term { ('+'|'-') term }
    term   := coefficient ['*'] factors | factors | coefficient
    factors:= factor { '*' factor }
    factor := name ['^' positive-integer]
    coefficient := integer | integer '/' integer

Every syntax error is a ``ParseError`` that carries the character position
of the offending token (the length of the text at its end); the terms are
collected by ``make_germ``.

The JSON alternative is ``{"vars": [...], "terms": [{"exp": [k0, ..., kn],
"coef": c}, ...]}``, where ``c`` is an integer or a string ``"p"`` or
``"p/q"`` (optional sign, decimal digits).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

Exponent = tuple[int, ...]


class ParseError(ValueError):
    """Syntax or semantic error in a germ expression, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GermSeries:
    """Finite exponent-to-coefficient map representing a polynomial germ."""
    num_vars: int
    terms: dict[Exponent, Fraction]

    def __post_init__(self):
        if self.num_vars < 2:
            raise ValueError("need the deformation parameter and at least one z-variable")
        if not self.terms:
            raise ValueError("empty germ")
        for e, c in self.terms.items():
            if len(e) != self.num_vars:
                raise ValueError(f"exponent {e} has wrong length")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            if not any(e):
                raise ValueError("nonzero constant term: not a germ vanishing at 0")
            if c == 0:
                raise ValueError("zero coefficient stored")


def make_germ(num_vars: int, items) -> GermSeries:
    """Collect (exponent, coefficient) pairs into a germ, dropping zeros.

    Coefficients are ints or ``Fraction``s; they are summed as given, and
    each exponent's sum becomes one ``Fraction``."""
    acc: dict[Exponent, int | Fraction] = {}
    for e, c in items:
        e = tuple(int(k) for k in e)
        acc[e] = acc.get(e, 0) + c
    acc = {e: Fraction(c) for e, c in acc.items() if c}
    if not acc:
        raise ValueError("empty germ after collection")
    return GermSeries(num_vars, acc)


def support(F: GermSeries) -> frozenset[Exponent]:
    """The set of exponent vectors with nonzero coefficient."""
    return frozenset(F.terms)


def restrict_support(S, I) -> frozenset[Exponent]:
    """Points of S with zero coordinates off I, projected to the I-coordinates.

    The projection keeps the order of I (stored sorted).  The Newton
    polyhedron of a germ meets the coordinate subspace R^I exactly in the
    polyhedron of this restricted support, because all exponents are
    nonnegative.  S's points share one length; I is checked on the first.
    """
    idx = sorted(set(map(int, I)))
    if not idx:
        raise ValueError("empty index set")
    n = len(next(iter(S), ()))
    if S and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError("index set out of range")
    off = [i for i in range(n) if i not in idx]
    return frozenset(tuple(map(p.__getitem__, idx)) for p in S
                     if not any(map(p.__getitem__, off)))


# 2^n index sets: `zeta` on z1^2 - s took 0.1 s at n = 10, 2.0 s at 14 and
# 9.0 s at 16 (2 vCPUs, Python 3.11.7), about 4.5x per two variables
MAX_Z_VARIABLES = 16


def check_z_variables(n: int) -> None:
    """Raise ``ValueError`` for n above ``MAX_Z_VARIABLES`` z-variables."""
    if n > MAX_Z_VARIABLES:
        raise ValueError(f"{n} z-variables give 2^{n} index sets; at most "
                         f"{MAX_Z_VARIABLES} are supported")


def index_sets_with_zero(n: int):
    """All index sets containing 0 inside {0, ..., n}, in binary order;
    n above ``MAX_Z_VARIABLES`` raises ``ValueError``."""
    check_z_variables(n)
    return [(0,) + tuple(i + 1 for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)]


def suspend_germ(f: GermSeries) -> GermSeries:
    """F = f - sigma for a germ f in the z-variables only."""
    _require_z_only(f)
    apex = (1,) + (0,) * (f.num_vars - 1)
    return make_germ(f.num_vars, list(f.terms.items()) + [(apex, Fraction(-1))])


def pencil_germ(f0: GermSeries, f1: GermSeries) -> GermSeries:
    """F = f0 - sigma * f1 for germs f0, f1 in the z-variables only."""
    _require_z_only(f0)
    _require_z_only(f1)
    if f0.num_vars != f1.num_vars:
        raise ValueError("germs live in different variable counts")
    items = list(f0.terms.items())
    for e, c in f1.terms.items():
        items.append(((1,) + e[1:], -c))
    return make_germ(f0.num_vars, items)


def _require_z_only(f: GermSeries):
    if any(e[0] != 0 for e in f.terms):
        raise ValueError("germ already involves the deformation variable")


# ---------------------------------------------------------------------------
# parsing

# One token after optional whitespace.  The end of the text is a token too,
# at position len(text); matching it also keeps trailing whitespace from
# being rescanned once per character.
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^])"
                    r"|(?P<other>\S)|(?P<end>\Z))")

# For the role of the previous token ("start" before the first): the role
# the next token takes, looked up by its operator or its kind, and the error
# raised at a token found in neither.  A name right after a coefficient is
# the implicit product "2 z1".
_GRAMMAR = {
    "start": ({"+": "sign", "-": "sign", "num": "coef", "name": "var"}, "expected a term"),
    "sign": ({"num": "coef", "name": "var"}, "expected a term"),
    "coef": ({"/": "slash", "*": "star", "name": "var", "+": "sign", "-": "sign",
              "end": "end"}, "expected '+' or '-'"),
    "slash": ({"num": "denom"}, "expected denominator"),
    "denom": ({"*": "star", "name": "var", "+": "sign", "-": "sign", "end": "end"},
              "expected '+' or '-'"),
    "star": ({"name": "var"}, "expected a variable"),
    "var": ({"^": "caret", "*": "star", "+": "sign", "-": "sign", "end": "end"},
            "expected '+' or '-'"),
    "caret": ({"num": "exp"}, "expected exponent"),
    "exp": ({"*": "star", "+": "sign", "-": "sign", "end": "end"}, "expected '+' or '-'"),
}


def parse_germ(text: str, var_names) -> GermSeries:
    """Parse an expression into a germ; the first variable name is sigma.

    >>> F = parse_germ("z1^2 + z2^3 - s", ["s", "z1", "z2"])
    >>> sorted(F.terms.items())
    [((0, 0, 3), Fraction(1, 1)), ((0, 2, 0), Fraction(1, 1)), ((1, 0, 0), Fraction(-1, 1))]
    """
    names = [str(v) for v in var_names]
    if len(names) < 2:
        raise ValueError("need the deformation parameter and at least one z-variable")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    index = {name: i for i, name in enumerate(names)}
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "other":
            raise ParseError(f"unexpected character {value!r}", pos)
    items = []
    role, sign, coef, exps = "start", 1, 1, [0] * len(names)
    for kind, value, pos in tokens:
        follow, error = _GRAMMAR[role]
        new = follow.get(value if kind == "op" else kind)
        if new is None:
            if role == "caret" and value == "-":
                error = "negative exponent"
            raise ParseError(error, pos)
        if kind == "num":
            try:
                value = int(value)
            except ValueError:
                raise ParseError("number has too many digits", pos) from None
        if new in ("sign", "end") and role != "start":
            items.append((exps, sign * coef))
            coef, exps = 1, [0] * len(names)
        if new == "sign":
            sign = -1 if value == "-" else 1
        elif new == "coef":
            coef = value
        elif new == "denom":
            if value == 0:
                raise ParseError("zero denominator", pos)
            coef = Fraction(coef, value)
        elif new == "var":
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", pos)
            var = index[value]
            exps[var] += 1
        elif new == "exp":
            if value == 0:
                raise ParseError("exponent must be a positive integer", pos)
            exps[var] += value - 1
        elif new == "end":
            return make_germ(len(names), items)
        role = new


# ---------------------------------------------------------------------------
# printing and JSON

def _monomial_string(e: Exponent, names) -> str:
    parts = []
    for k, name in zip(e, names):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def germ_to_string(F: GermSeries, var_names) -> str:
    """Deterministic, re-parseable rendering of a germ.

    >>> germ_to_string(parse_germ("-s + 2/3*z1^2", ["s", "z1"]), ["s", "z1"])
    '2/3*z1^2 - s'
    """
    names = [str(v) for v in var_names]
    out = []
    for e in sorted(F.terms):
        c = F.terms[e]
        mono = _monomial_string(e, names)
        mag = abs(c)
        if mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        out.append(("-" if c < 0 else "+", body))
    sign, body = out[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in out[1:]:
        text += f" {sign} {body}"
    return text


def germ_to_json(F: GermSeries, var_names) -> dict:
    return {
        "vars": [str(v) for v in var_names],
        "terms": [{"exp": list(e), "coef": str(F.terms[e])}
                  for e in sorted(F.terms)],
    }


_RATIONAL = re.compile(r"\s*[-+]?\d+(?:/\d+)?\s*")


def _json_coef(c, k: int) -> Fraction:
    """An integer, or a string ``p`` or ``p/q`` of decimal digits with an
    optional sign; exponents, decimal points and ``_`` are refused before
    ``Fraction`` sees them."""
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise ValueError(f"term {k}: 'coef' must be an integer or a rational string")
    try:
        if isinstance(c, int) or _RATIONAL.fullmatch(c):
            return Fraction(c)
    except (ValueError, ZeroDivisionError):  # 1/0, or too many digits for int
        pass
    raise ValueError(f"term {k}: 'coef' {c!r} is not a rational number "
                     "with nonzero denominator")


def germ_from_json(obj) -> tuple[GermSeries, list[str]]:
    """Germ and variable names from the object ``germ_to_json`` writes.

    Raises ValueError naming the first malformed field.
    """
    if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
        raise ValueError("germ JSON needs 'vars' and 'terms' fields")
    names = obj["vars"]
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ValueError("germ JSON 'vars' must be a list of strings")
    if len(names) < 2:
        raise ValueError("need the deformation parameter and at least one z-variable")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise ValueError("germ JSON 'terms' must be a list of term objects")
    items = []
    for k, t in enumerate(terms):
        if not isinstance(t, dict) or "exp" not in t or "coef" not in t:
            raise ValueError(f"term {k}: needs 'exp' and 'coef' fields")
        exp = t["exp"]
        if not isinstance(exp, list) or len(exp) != len(names) \
                or not all(type(x) is int for x in exp):
            raise ValueError(f"term {k}: 'exp' must be a list of "
                             f"{len(names)} integers")
        items.append((tuple(exp), _json_coef(t["coef"], k)))
    return make_germ(len(names), items), list(names)
