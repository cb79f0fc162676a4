import random
import time
from fractions import Fraction

import pytest

from helpers import (
    fraction_germ_to_string,
    mask_index_sets_with_zero,
    pointwise_restrict_support,
    random_deformation_germ,
    reference_make_germ,
    reference_parse_germ,
)
from newtonzeta.germ import (
    MAX_Z_VARIABLES,
    GermSeries,
    ParseError,
    germ_from_json,
    germ_to_json,
    germ_to_string,
    index_sets_with_zero,
    make_germ,
    parse_germ,
    pencil_germ,
    restrict_support,
    support,
    suspend_germ,
)

VARS3 = ["s", "z1", "z2"]


def test_parse_basic():
    F = parse_germ("z1^2 + z2^3 - s", VARS3)
    assert F.terms == {(0, 2, 0): 1, (0, 0, 3): 1, (1, 0, 0): -1}


def test_parse_cancellation_is_empty():
    with pytest.raises(ValueError, match="empty germ"):
        parse_germ("s*z1 - s*z1", ["s", "z1"])


def test_parse_mixed_coefficients():
    F = parse_germ("z1^2*z2 + 3*s^2", VARS3)
    assert F.terms == {(0, 2, 1): 1, (2, 0, 0): 3}


def test_parse_rational_coefficient_and_implicit_star():
    F = parse_germ("1/2*z1 + 2 z2", VARS3)
    assert F.terms == {(0, 1, 0): Fraction(1, 2), (0, 0, 1): 2}


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_germ("w^2 - s", ["s", "z1"])


def test_parse_negative_exponent():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_germ("z1^-2 - s", ["s", "z1"])


def test_parse_constant_term_rejected():
    with pytest.raises(ValueError, match="constant term"):
        parse_germ("z1 + 1", ["s", "z1"])


def test_parse_cancelling_constants_allowed():
    F = parse_germ("1 - 1 + z1", ["s", "z1"])
    assert F.terms == {(0, 1): 1}


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_germ("z1 + * s", ["s", "z1"])
    assert "position" in str(exc.value)


@pytest.mark.parametrize("text,message,position", [
    ("z1^² - s", "expected exponent", 3),
    ("² - s", "unknown variable '²'", 0),
    ("1/ sz3z2 - s", "expected denominator", 3),
    ("z1^" + "1" * 4400 + " - s", "number has too many digits", 3),
])
def test_parse_error_positions(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_germ(text, VARS3)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_parse_long_trailing_whitespace():
    F = parse_germ("z1 - s" + " " * 100_000, ["s", "z1"])
    assert F.terms == {(0, 1): 1, (1, 0): -1}
    with pytest.raises(ParseError, match=r"expected a term \(at position 100004\)"):
        parse_germ("z1 -" + " " * 100_000, ["s", "z1"])


SPACES = " " * 100_000


@pytest.mark.parametrize("text", [
    "2" + SPACES + "3 - s",          # between two numbers
    "2" + SPACES + "* - s",          # before a '*'
    "2/" + SPACES + "z1 - s",        # after a '/'
    "z1^" + SPACES + "z1 - s",       # after a '^'
    "-" + SPACES + "* s",            # after a leading sign
    "z1 * " * 20_000,                # 20 000 factors, the last one missing
    "z1 + " * 20_000,                # 20 000 terms, the last one missing
], ids=["numbers", "star", "slash", "caret", "sign", "factors", "terms"])
def test_long_refused_texts_are_read_in_linear_time(text):
    """A long whitespace run, or a long chain that fails at its end, is
    refused with the message and position of the token path
    (``helpers.reference_parse_germ``), in a time that grows linearly:
    a term reader that backtracks over every split of a whitespace run
    takes seconds here."""
    with pytest.raises(ParseError) as want:
        reference_parse_germ(text, ["s", "z1"])
    start = time.process_time()
    with pytest.raises(ParseError) as got:
        parse_germ(text, ["s", "z1"])
    assert time.process_time() - start < 1.0
    assert (str(got.value), got.value.position) == (str(want.value), want.value.position)
    assert len(text) >= 100_000


def _expression(rng, monomials):
    """A sum of terms over a few monomials, and the features it has: a
    repeated monomial, and a term followed by its negation; coefficients
    are integers or rationals (reducible, over 1, or zero)."""
    out, used, features = [], set(), set()
    for _ in range(rng.randint(1, 6)):
        mono = rng.choice(monomials)
        if mono in used:
            features.add("repeated")
        used.add(mono)
        p = rng.choice([0, 1, 1, 2, 3, 4, 6, 12, 10 ** 30])
        coef = f"{p}/{rng.choice([1, 2, 3, 4, 6, 7, 9])}" if rng.random() < 0.5 else str(p)
        term = [rng.choice(["+", "-"]), f"{coef}*{mono}" if rng.random() < 0.8 else mono]
        out += term
        if rng.random() < 0.2:
            out += ["-" if term[0] == "+" else "+", term[1]]
            features.add("cancelling")
    return " ".join(out), features


def test_coefficients_match_the_fraction_path():
    """Every stored coefficient is a ``Fraction``, equal, term for term and
    in order, to the one of the path that built a ``Fraction`` for every
    coefficient (``helpers.reference_parse_germ`` and
    ``reference_make_germ``), and every refusal is the same: on seeded
    expressions with integer, rational, cancelling and repeated terms, and
    on ``make_germ`` with int, ``Fraction`` and mixed items."""
    rng = random.Random(1618)
    names = ["s", "z1", "z2"]
    monomials = ["s", "z1^2", "z1*z2", "s*z2^3"]
    seen = set()
    for _ in range(400):
        text, features = _expression(rng, monomials)
        seen |= features
        got = _outcome(parse_germ, text, names)
        want = _outcome(reference_parse_germ, text, names)
        if isinstance(want, str):
            assert got == want, text
            seen.add(want)
            continue
        assert list(got.terms.items()) == list(want.terms.items()), text
        assert all(type(c) is Fraction for c in got.terms.values()), text
        seen.add("rational" if any(c.denominator > 1 for c in got.terms.values())
                 else "integer")
    assert seen == {"integer", "rational", "repeated", "cancelling",
                    "empty germ after collection"}

    exponents = [(0, 1, 0), (1, 0, 0), (0, 2, 1), (2, 0, 1)]
    coefficients = {
        "int": lambda: rng.randint(-3, 3),
        "Fraction": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
    }
    for kind in ("int", "Fraction", "mixed"):
        for _ in range(200):
            items = [(rng.choice(exponents), coefficients[
                rng.choice(list(coefficients)) if kind == "mixed" else kind]())
                for _ in range(rng.randint(1, 6))]
            got = _outcome(make_germ, 3, items)
            want = _outcome(reference_make_germ, 3, items)
            if isinstance(want, str):
                assert got == want, items
                continue
            assert list(got.terms.items()) == list(want.terms.items()), items
            assert all(type(c) is Fraction for c in got.terms.values()), items


def test_germ_invariants_enforced():
    with pytest.raises(ValueError):
        GermSeries(2, {})
    with pytest.raises(ValueError):
        GermSeries(2, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        GermSeries(2, {(0, -1): Fraction(1)})
    with pytest.raises(ValueError):
        GermSeries(1, {(1,): Fraction(1)})  # no z-variables


def test_support_extraction():
    F = make_germ(2, [((0, 2), 1), ((1, 0), -1)])
    assert support(F) == frozenset({(0, 2), (1, 0)})
    G = make_germ(2, [((0, 2), Fraction(7, 3)), ((1, 0), -5)])
    assert support(G) == support(F)  # rescaling coefficients changes nothing


def test_support_single_term():
    F = make_germ(2, [((3, 1), 1)])
    assert support(F) == frozenset({(3, 1)})


def test_restrict_support_examples():
    S = {(1, 0, 0), (0, 2, 0), (0, 0, 3)}
    assert restrict_support(S, (0, 1)) == frozenset({(1, 0), (0, 2)})
    assert restrict_support({(1, 1)}, (0,)) == frozenset()
    assert restrict_support({(2, 0), (0, 3)}, (0, 1)) == \
        frozenset({(2, 0), (0, 3)})


def test_restrict_support_full_set_is_identity_and_monotone():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        S = support(F)
        assert restrict_support(S, range(n + 1)) == S
        Ssmall = frozenset(list(S)[: len(S) // 2])
        I = tuple(sorted(rng.sample(range(n + 1), rng.randint(1, n + 1))))
        assert restrict_support(Ssmall, I) <= restrict_support(S, I)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_restrict_support_matches_the_pointwise_oracle():
    # the index set is checked once and the off-index positions found once;
    # every result and every message must stay the pointwise one's
    S = {(1, 0, 0), (0, 2, 0), (0, 1, 3), (0, 0, 4), (2, 0, 5)}
    cases = [
        (S, (1,), {(2,)}),   # one coordinate: projected to 1-tuples
        (S, (2,), {(4,)}),
        (S, (0,), {(1,)}),
        (S, (0, 1, 2), S),   # the full index set drops nothing
        (S, (2, 0, 1, 2), S),
        (set(), (1,), set()),  # an empty support, whatever the index set
        (set(), (0, 1, 2), set()),
        (set(), (5,), set()),
    ]
    for S_, I, want in cases:
        assert restrict_support(S_, I) == want == pointwise_restrict_support(S_, I), (S_, I)
    assert _outcome(restrict_support, set(), ()) == "empty index set"
    rng = random.Random(2718)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        S = {tuple(rng.choice([0, 0, 0, rng.randint(1, 9)]) for _ in range(n))
             for _ in range(rng.randint(0, 12))}
        I = [rng.randint(-1, n) if rng.random() < 0.1 else rng.randrange(n)
             for _ in range(rng.randint(0, n + 1))]
        got = _outcome(restrict_support, S, I)
        assert got == _outcome(pointwise_restrict_support, S, I), (S, I)
        seen.add(got if isinstance(got, str) else bool(got))
    assert seen == {True, False, "empty index set", "index set out of range"}


def test_roundtrip_parse_pretty():
    rng = random.Random(5)
    names = ["s", "z1", "z2", "z3"]
    for _ in range(40):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        text = germ_to_string(F, names[: n + 1])
        G = parse_germ(text, names[: n + 1])
        assert G.terms == F.terms


def test_germ_to_string_matches_the_fraction_printer():
    # coefficients p/q with |p| = 1 < q, other fractions and integers, and
    # a leading term of either sign
    rng = random.Random(45)
    names = ["s", "z1", "z2", "z3"]
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(n + 1))
            if any(e):
                terms[e] = Fraction(rng.choice([1, -1, rng.randint(-40, 40) or 1]),
                                    rng.choice([1, 1, rng.randint(2, 12)]))
        if not terms:
            continue
        F = GermSeries(n + 1, terms)
        assert germ_to_string(F, names[: n + 1]) == \
            fraction_germ_to_string(F, names[: n + 1])
        lead = terms[min(terms)]
        seen |= {"negative lead" if lead < 0 else "positive lead"}
        seen |= {"1/q" if abs(c.numerator) == 1 < c.denominator else
                 "integer" if c.denominator == 1 else "p/q" for c in terms.values()}
    assert seen == {"negative lead", "positive lead", "1/q", "integer", "p/q"}


def test_json_roundtrip():
    F = parse_germ("z1^2 - 1/3*s^2*z2", VARS3)
    obj = germ_to_json(F, VARS3)
    G, names = germ_from_json(obj)
    assert names == VARS3
    assert G.terms == F.terms


@pytest.mark.parametrize("name", ["z1*z2", "", "2", "z 1", " z1", "z1^2", "z-1",
                                  "1z", "s'", "x\n",
                                  # characters that no token starts with
                                  "?", "$x"])
def test_names_the_grammar_cannot_read_are_refused(name):
    message = f"variable name {name!r} is not a name the germ grammar reads"
    with pytest.raises(ValueError) as expression:
        parse_germ("z1^2 - s", ["s", "z1", name])
    with pytest.raises(ValueError) as json_germ:
        germ_from_json({"vars": ["s", "z1", name],
                        "terms": [{"exp": [0, 2, 0], "coef": 1}]})
    assert str(expression.value) == str(json_germ.value) == message


def test_every_accepted_name_reads_back():
    # a name token of the grammar: a word character other than a decimal
    # digit, then word characters; the printed germ parses to itself
    names = ["s", "z1", "_x", "Z_2", "\u03c3", "x\u00b2", "\u00b2"]
    F = parse_germ(" + ".join(f"{v}^2" for v in names[1:]) + " - s", names)
    assert len(F.terms) == 7
    assert parse_germ(germ_to_string(F, names), names) == F


def test_index_sets_binary_order():
    assert index_sets_with_zero(2) == [(0,), (0, 1), (0, 2), (0, 1, 2)]


def test_index_sets_match_the_mask_listing():
    for n in range(MAX_Z_VARIABLES + 1):
        assert index_sets_with_zero(n) == mask_index_sets_with_zero(n)


def test_index_sets_up_to_the_variable_bound():
    sets = index_sets_with_zero(MAX_Z_VARIABLES)
    assert len(sets) == 2 ** MAX_Z_VARIABLES
    assert sets[-1] == tuple(range(MAX_Z_VARIABLES + 1))
    with pytest.raises(ValueError, match=f"{MAX_Z_VARIABLES + 1} z-variables"):
        index_sets_with_zero(MAX_Z_VARIABLES + 1)


def test_suspend_and_pencil():
    f = parse_germ("z1^2", ["s", "z1"])
    F = suspend_germ(f)
    assert F.terms == {(0, 2): 1, (1, 0): -1}
    with pytest.raises(ValueError, match="deformation variable"):
        suspend_germ(F)
    g = parse_germ("z1", ["s", "z1"])
    P = pencil_germ(f, g)
    assert P.terms == {(0, 2): 1, (1, 1): -1}
