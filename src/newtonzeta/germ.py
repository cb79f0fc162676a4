"""Polynomial germs in the deformation parameter and the z-variables.

A germ is a finite sum of monomials ``c * sigma^{k0} z1^{k1} ... zn^{kn}``
with exact rational coefficients, vanishing at the origin.  Variable 0 is
always the deformation parameter.  Coefficients live in Q: the zeta
formulas depend only on the support, and the nondegeneracy checker works
over the rationals (documented restriction).

An expression is read as tokens, whitespace between them ignored: a number
(decimal digits), a name (a word character other than a decimal digit,
such as a letter, ``_`` or ``²``, then word characters), or one of the
operators ``+ - * / ^``.  Grammar::

    expr   := [sign] term { ('+'|'-') term }
    term   := coefficient ['*'] factors | factors | coefficient
    factors:= factor { '*' factor }
    factor := name ['^' positive-integer]
    coefficient := integer | integer '/' integer

Well-formed text is read one term per match of ``_TERM``, its factors by
``_FACTOR``.  Text that they cannot read, or a term with an unknown name,
a zero exponent or denominator or a number too long for ``int``, is
explained by the token table ``_GRAMMAR``, which raises a ``ParseError``
at the offending token (the length of the text at its end).  A character
that starts no token is found first, by one search of the whole text, so
it is reported ahead of every grammar error.

The JSON alternative is ``{"vars": [...], "terms": [{"exp": [k0, ..., kn],
"coef": c}, ...]}``, where ``c`` is an integer or a string ``"p"`` or
``"p/q"`` (optional sign, decimal digits).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index, itemgetter

Exponent = tuple[int, ...]
# a float coefficient is refused as ``index`` refuses a float exponent
_NO_FLOAT = "'float' object cannot be interpreted as an integer"


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
        if index(self.num_vars) < 2:  # a float count raises TypeError
            raise ValueError("need the deformation parameter and at least one z-variable")
        if not self.terms:
            raise ValueError("empty germ")
        for e, c in self.terms.items():
            if len(e) != self.num_vars:
                raise ValueError(f"exponent {e} has wrong length")
            if any(index(k) < 0 for k in e):  # a float or Fraction raises TypeError
                raise ValueError(f"negative exponent in {e}")
            if not any(e):
                raise ValueError("nonzero constant term: not a germ vanishing at 0")
            if isinstance(c, float):
                raise TypeError(_NO_FLOAT)
            if c == 0:
                raise ValueError("zero coefficient stored")


def make_germ(num_vars: int, items) -> GermSeries:
    """Collect (exponent, coefficient) pairs into a germ, dropping zeros.

    Coefficients are ints or ``Fraction``s; a float raises ``TypeError``,
    as ``GermSeries`` does.  Each exponent's coefficients are summed as
    given, starting from the first, and a sum that is not already a
    ``Fraction`` is converted once, so every stored coefficient is a
    ``Fraction`` and a lone ``Fraction`` term is stored as it is."""
    acc: dict[Exponent, int | Fraction] = {}
    for e, c in items:
        e = tuple(map(index, e))
        if isinstance(c, float):
            raise TypeError(_NO_FLOAT)
        acc[e] = acc[e] + c if e in acc else c
    # 0 + c refuses a coefficient that is not a number, such as a str,
    # which Fraction would parse
    acc = {e: c if isinstance(c, Fraction) else Fraction(0 + c)
           for e, c in acc.items() if c}
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
    nonnegative.  S's points are tuples of one length; I is checked on the
    first.  Each point takes two ``itemgetter`` calls: one reads the
    dropped coordinates, compared with theirs at the origin, and one keeps
    the I-coordinates.

    >>> sorted(restrict_support({(1, 0, 0), (0, 2, 0), (0, 1, 3)}, (1,)))
    [(2,)]
    >>> sorted(restrict_support({(1, 0, 0), (0, 2, 0), (0, 1, 3)}, (0, 1, 2)))
    [(0, 1, 3), (0, 2, 0), (1, 0, 0)]
    """
    idx = sorted(set(map(index, I)))
    if not idx:
        raise ValueError("empty index set")
    n = len(next(iter(S), ()))
    if S and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError("index set out of range")
    off = [i for i in range(n) if i not in idx]
    # an itemgetter of one position returns the entry itself, so a single
    # kept coordinate is read as a slice, and no dropped one as the empty slice
    keep = itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))
    drop = itemgetter(*off) if off else itemgetter(slice(0))
    zero = drop((0,) * n)
    return frozenset(keep(p) for p in S if drop(p) == zero)


# 2^n index sets, and `diagram` prints a row for each: `zeta` on z1^2 - s
# takes 0.09 s at n = 10, 0.11-0.16 s at 14 and 0.17-0.36 s at 16 (whole
# process, 2 vCPUs, Python 3.11.7), about 1.5-2x per two variables at the top
MAX_Z_VARIABLES = 16


def check_z_variables(n: int) -> None:
    """Raise ``ValueError`` for n below 0 or above ``MAX_Z_VARIABLES``
    z-variables, and ``TypeError`` for an n that is not an integer."""
    if index(n) < 0:
        raise ValueError(f"n = {n} z-variables: the count cannot be negative")
    if n > MAX_Z_VARIABLES:
        raise ValueError(f"{n} z-variables give 2^{n} index sets; at most "
                         f"{MAX_Z_VARIABLES} are supported")


def index_sets_with_zero(n: int):
    """All index sets containing 0 inside {0, ..., n}, in binary order;
    n below 0 or above ``MAX_Z_VARIABLES`` raises ``ValueError``."""
    check_z_variables(n)
    sets = [(0,)]
    for i in range(1, n + 1):  # the masks with bit i - 1 set follow the rest
        sets += [s + (i,) for s in sets]
    return sets


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
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^])|(?P<end>\Z))")

# A character that starts no token: not whitespace, not a word character
# (a digit starts a number, any other one a name) and not an operator
_OTHER = re.compile(r"[^\s\w+\-*/^]")

# One factor, name[^k], and the whitespace after it
_FACTOR_TEXT = r"[^\W\d]\w*\s*(?:\^\s*\d+\s*)?"

# One term of a well-formed text with the whitespace after each of its
# tokens: the operator, a coefficient p or p/q, an optional '*' and factors
# joined by '*'.  Each \s* follows a token or a fixed character, never
# another \s* across an optional part, so a failed match is undone over
# each whitespace run once, not once per split of it.
_TERM = re.compile(
    r"\s*(?:(?P<op>[-+])\s*)?(?=\w)"
    r"(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?(?:\*\s*(?=[^\W\d]))?)?"
    rf"(?P<factors>(?:{_FACTOR_TEXT}(?:\*\s*{_FACTOR_TEXT})*)?)")

# A factor of a term's factors: its name and its exponent, "" for none
_FACTOR = re.compile(r"([^\W\d]\w*)\s*(?:\^\s*(\d+))?")

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


def _check_names(names) -> None:
    """Refuse a variable list without a z-variable, a non-name or a repeat."""
    if len(names) < 2:
        raise ValueError("need the deformation parameter and at least one z-variable")
    for v in names:  # the whole string is one name token
        if not (m := _TOKEN.match(v)) or m["name"] != v:
            raise ValueError(f"variable name {v!r} is not a name the germ grammar reads")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")


def parse_germ(text: str, var_names) -> GermSeries:
    """Parse an expression into a germ; the first variable name is sigma.

    A term's coefficient is read as an integer numerator and denominator:
    an integer term hands ``make_germ`` an int, a rational one a single
    ``Fraction``.

    >>> F = parse_germ("z1^2 + z2^3 - s", ["s", "z1", "z2"])
    >>> sorted(F.terms.items())
    [((0, 0, 3), Fraction(1, 1)), ((0, 2, 0), Fraction(1, 1)), ((1, 0, 0), Fraction(-1, 1))]
    """
    names = [str(v) for v in var_names]
    _check_names(names)
    index = {name: i for i, name in enumerate(names)}
    items = _terms(text, index)
    if items is None:
        raise _refusal(text, index)
    return make_germ(len(names), items)


def _terms(text, index):
    """The ``(exponents, coefficient)`` item of each term of ``text``, one
    ``_TERM`` match per term, or None if a term cannot be read."""
    items, pos = [], 0
    while pos < len(text) or not items:  # one term at least
        m = _TERM.match(text, pos)
        if m is None or not (m["op"] or pos == 0):  # an operator after the first term
            return None
        try:
            p, q = int(m["num"] or 1), int(m["den"] or 1)
            factors = [(index[name], int(k or 1)) for name, k in _FACTOR.findall(m["factors"])]
        except (KeyError, ValueError):  # an unknown name, or too many digits for int
            return None
        if not q or not all(k for _, k in factors):
            return None
        exps = [0] * len(index)
        for i, k in factors:
            exps[i] += k
        p = -p if m["op"] == "-" else p
        items.append((exps, p if q == 1 else Fraction(p, q)))
        pos = m.end()
    return items


def _refusal(text, index) -> ParseError:
    """The ``ParseError`` of the first token of ``text`` that the grammar
    refuses, or that names no variable of ``index``, is a zero exponent or
    denominator or has too many digits for ``int``."""
    if other := _OTHER.search(text):
        return ParseError(f"unexpected character {other[0]!r}", other.start())
    role = "start"
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, pos = m[kind], m.start(kind)
        follow, error = _GRAMMAR[role]
        new = follow.get(value if kind == "op" else kind)
        if new is None:
            if role == "caret" and value == "-":
                error = "negative exponent"
            return ParseError(error, pos)
        if kind == "num":
            try:
                value = int(value)
            except ValueError:
                return ParseError("number has too many digits", pos)
        if new == "denom" and value == 0:
            return ParseError("zero denominator", pos)
        if new == "var" and value not in index:
            return ParseError(f"unknown variable {value!r}", pos)
        if new == "exp" and value == 0:
            return ParseError("exponent must be a positive integer", pos)
        if new == "end":
            break
        role = new
    raise RuntimeError("the term reader refused a text that the grammar reads")


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


def _names_of(F: GermSeries, var_names) -> list[str]:
    """The names as strings, refused unless there is one per variable and
    ``parse_germ`` would read them back."""
    names = [str(v) for v in var_names]
    if len(names) != F.num_vars:
        raise ValueError(f"expected {F.num_vars} variable names, got {len(names)}")
    _check_names(names)
    return names


def germ_to_string(F: GermSeries, var_names) -> str:
    """Deterministic, re-parseable rendering of a germ, one name per
    variable.

    >>> germ_to_string(parse_germ("-s + 2/3*z1^2", ["s", "z1"]), ["s", "z1"])
    '2/3*z1^2 - s'
    """
    names = _names_of(F, var_names)
    text = ""
    for e in sorted(F.terms):
        # read as integers: abs, == and str on a Fraction each cost a
        # Fraction operation
        c = F.terms[e]
        p, q = c.numerator, c.denominator
        mag = abs(p)
        coef = f"{mag}/{q}*" if q > 1 else "" if mag == 1 else f"{mag}*"
        text += f"{' - ' if p < 0 else ' + '}{coef}{_monomial_string(e, names)}"
    # every term is led by " + " or " - ": the first by "" or "-"
    return ("-" if text[1] == "-" else "") + text[3:]


def germ_to_json(F: GermSeries, var_names) -> dict:
    """The object ``germ_from_json`` reads, one name per variable."""
    return {
        "vars": _names_of(F, var_names),
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
    _check_names(names)
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
