"""Differential test of ``germ.parse_germ`` against the character-at-a-time
parser it replaced (``helpers.cursor_parse_germ``).

On seeded random strings and random well-formed expressions both parsers
must return equal germs, or raise the same exception type with the same
message.  Two classes of input differ on purpose, and each must occur:

* a ``²`` (a digit that is not a decimal digit) starting a token: the old
  parser read it as a number and crashed in ``int()`` or reported another
  syntax error there; it now starts a name, so the error is a ``ParseError``
  at the ``²``;
* "expected denominator": the old parser reported the position of the token
  after the bad one, and the error now sits at the bad token itself.
"""

import random

from helpers import cursor_parse_germ
from newtonzeta.germ import ParseError, parse_germ

VARS = ["s", "z1", "z2"]
PIECES = VARS + ["w", "_a", "0", "1", "2", "7", "+", "-", "*", "/", "^",
                 " ", "  ", "?", "²"]


def _outcome(parse, text):
    try:
        return parse(text, VARS)
    except ValueError as exc:
        return exc


def _same(old, new) -> bool:
    if isinstance(old, Exception) or isinstance(new, Exception):
        return (type(old), str(old)) == (type(new), str(new))
    return old == new


def _superscript_token(text, old, new) -> bool:
    if not isinstance(new, ParseError):
        return False
    if type(old) is ValueError:
        return str(old).startswith("invalid literal for int()") and "²" in str(old)
    return (isinstance(old, ParseError) and old.position == new.position
            and text[new.position:new.position + 1] == "²")


def _denominator_position(text, old, new) -> bool:
    return (isinstance(old, ParseError) and isinstance(new, ParseError)
            and str(old).startswith("expected denominator (")
            and str(new).startswith("expected denominator (")
            and new.position < old.position
            and text[:new.position].rstrip().endswith("/"))


def _classify(text) -> str:
    old = _outcome(cursor_parse_germ, text)
    new = _outcome(parse_germ, text)
    if _same(old, new):
        return "error" if isinstance(new, Exception) else "germ"
    if _superscript_token(text, old, new):
        return "superscript"
    if _denominator_position(text, old, new):
        return "denominator"
    raise AssertionError(f"{text!r}: old {old!r}, new {new!r}")


def _spaces(rng) -> str:
    return rng.choice(["", "", " ", "  "])


def _expression(rng) -> str:
    """A well-formed expression in VARS; it may hold constants that do not
    cancel, or cancel to nothing."""
    text = ""
    for k in range(rng.randint(1, 5)):
        if k or rng.random() < 0.3:
            text += _spaces(rng) + rng.choice("+-") + _spaces(rng)
        factors = [name + (f"^{rng.randint(1, 12)}" if rng.random() < 0.5 else "")
                   for name in rng.sample(VARS, rng.randint(0, 3))]
        coef = str(rng.randint(0, 30))
        if rng.random() < 0.3:
            coef += _spaces(rng) + "/" + _spaces(rng) + str(rng.randint(1, 9))
        product = (_spaces(rng) + "*" + _spaces(rng)).join(factors)
        if not factors:
            text += coef
        elif rng.random() < 0.5:  # "2*z1", or the implicit product "2 z1"
            text += coef + _spaces(rng) + rng.choice("* ") + _spaces(rng) + product
        else:
            text += product
    return text + _spaces(rng)


def test_random_strings_agree_with_the_cursor_parser():
    rng = random.Random(11)
    seen = {"germ": 0, "error": 0, "superscript": 0, "denominator": 0}
    for _ in range(12_000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
        seen[_classify(text)] += 1
    assert all(seen.values()), seen


def test_well_formed_expressions_agree_with_the_cursor_parser():
    rng = random.Random(13)
    seen = {"germ": 0, "error": 0}
    for _ in range(2_500):
        seen[_classify(_expression(rng))] += 1
    assert seen["germ"] > 1_000 and seen["error"], seen
