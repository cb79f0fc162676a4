"""Polynomial germs in the deformation parameter and the z-variables.

A germ is a finite sum of monomials ``c * sigma^{k0} z1^{k1} ... zn^{kn}``
with exact rational coefficients, vanishing at the origin.  Variable 0 is
always the deformation parameter.  Coefficients live in Q: the zeta
formulas depend only on the support, and the nondegeneracy checker works
over the rationals (documented restriction).

Expression grammar (whitespace insignificant)::

    expr   := [sign] term { ('+'|'-') term }
    term   := coefficient ['*'] factors | factors | coefficient
    factors:= factor { '*' factor }
    factor := name ['^' positive-integer]
    coefficient := integer | integer '/' integer

The JSON alternative is ``{"vars": [...], "terms": [{"exp": [k0, ..., kn],
"coef": "p/q"}, ...]}``.
"""

from __future__ import annotations

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
    """Collect (exponent, coefficient) pairs into a germ, dropping zeros."""
    acc: dict[Exponent, Fraction] = {}
    for e, c in items:
        e = tuple(int(k) for k in e)
        acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
    acc = {e: c for e, c in acc.items() if c != 0}
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
    nonnegative.
    """
    idx = tuple(sorted(set(int(i) for i in I)))
    if not idx:
        raise ValueError("empty index set")
    out = set()
    for p in S:
        if idx[0] < 0 or idx[-1] >= len(p):
            raise ValueError("index set out of range")
        if all(p[i] == 0 for i in range(len(p)) if i not in idx):
            out.add(tuple(p[i] for i in idx))
    return frozenset(out)


def index_sets_with_zero(n: int):
    """All index sets containing 0 inside {0, ..., n}, in binary order."""
    out = []
    for mask in range(1 << n):
        out.append((0,) + tuple(i + 1 for i in range(n) if mask >> i & 1))
    return out


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

def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^":
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Cursor:
    def __init__(self, tokens, text_len):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def here(self) -> int:
        tok = self.peek()
        return tok[2] if tok is not None else self.text_len


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
    cur = _Cursor(_tokenize(text), len(text))

    def parse_factor(exps):
        kind, value, pos = cur.next()
        if value not in index:
            raise ParseError(f"unknown variable {value!r}", pos)
        k = 1
        tok = cur.peek()
        if tok is not None and tok[:2] == ("op", "^"):
            cur.next()
            tok = cur.peek()
            if tok is not None and tok[:2] == ("op", "-"):
                raise ParseError("negative exponent", tok[2])
            if tok is None or tok[0] != "num":
                raise ParseError("expected exponent", cur.here())
            cur.next()
            k = int(tok[1])
            if k == 0:
                raise ParseError("exponent must be a positive integer", tok[2])
        exps[index[value]] += k

    def parse_term():
        coef = Fraction(1)
        exps = [0] * len(names)
        tok = cur.peek()
        if tok is None:
            raise ParseError("expected a term", cur.here())
        if tok[0] == "num":
            cur.next()
            p = int(tok[1])
            tok2 = cur.peek()
            if tok2 is not None and tok2[:2] == ("op", "/"):
                cur.next()
                tok3 = cur.next()
                if tok3 is None or tok3[0] != "num":
                    raise ParseError("expected denominator", cur.here())
                if int(tok3[1]) == 0:
                    raise ParseError("zero denominator", tok3[2])
                coef = Fraction(p, int(tok3[1]))
            else:
                coef = Fraction(p)
            tok2 = cur.peek()
            if tok2 is not None and tok2[:2] == ("op", "*"):
                cur.next()
                if cur.peek() is None or cur.peek()[0] != "name":
                    raise ParseError("expected a variable", cur.here())
            elif tok2 is not None and tok2[0] == "name":
                pass  # implicit product like "2 z1"
            else:
                return coef, tuple(exps)  # bare constant
        elif tok[0] != "name":
            raise ParseError("expected a term", tok[2])
        while True:
            parse_factor(exps)
            tok = cur.peek()
            if tok is not None and tok[:2] == ("op", "*"):
                cur.next()
                if cur.peek() is None or cur.peek()[0] != "name":
                    raise ParseError("expected a variable", cur.here())
                continue
            break
        return coef, tuple(exps)

    items = []
    first = True
    while cur.peek() is not None or first:
        sign = 1
        tok = cur.peek()
        if first:
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                cur.next()
                sign = -1 if tok[1] == "-" else 1
        else:
            if tok is None:
                break
            if tok[0] != "op" or tok[1] not in "+-":
                raise ParseError("expected '+' or '-'", tok[2])
            cur.next()
            sign = -1 if tok[1] == "-" else 1
        coef, exps = parse_term()
        items.append((exps, sign * coef))
        first = False
    if not items:
        raise ParseError("empty expression", 0)

    acc: dict[Exponent, Fraction] = {}
    for e, c in items:
        acc[e] = acc.get(e, Fraction(0)) + c
    acc = {e: c for e, c in acc.items() if c != 0}
    zero = (0,) * len(names)
    if zero in acc:
        raise ValueError("nonzero constant term: not a germ vanishing at 0")
    if not acc:
        raise ValueError("empty germ after collection")
    return GermSeries(len(names), acc)


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


def _json_coef(c, k: int) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise ValueError(f"term {k}: 'coef' must be an integer or a rational string")
    try:
        return Fraction(c)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"term {k}: 'coef' {c!r} is not a rational number "
                         "with nonzero denominator") from None


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
