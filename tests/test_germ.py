import random
from fractions import Fraction

import pytest

from helpers import random_deformation_germ
from newtonzeta.germ import (
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


def test_roundtrip_parse_pretty():
    rng = random.Random(5)
    names = ["s", "z1", "z2", "z3"]
    for _ in range(40):
        n = rng.randint(1, 3)
        F = random_deformation_germ(rng, n)
        text = germ_to_string(F, names[: n + 1])
        G = parse_germ(text, names[: n + 1])
        assert G.terms == F.terms


def test_json_roundtrip():
    F = parse_germ("z1^2 - 1/3*s^2*z2", VARS3)
    obj = germ_to_json(F, VARS3)
    G, names = germ_from_json(obj)
    assert names == VARS3
    assert G.terms == F.terms


def test_index_sets_binary_order():
    assert index_sets_with_zero(2) == [(0,), (0, 1), (0, 2), (0, 1, 2)]


def test_suspend_and_pencil():
    f = parse_germ("z1^2", ["s", "z1"])
    F = suspend_germ(f)
    assert F.terms == {(0, 2): 1, (1, 0): -1}
    with pytest.raises(ValueError, match="deformation variable"):
        suspend_germ(F)
    g = parse_germ("z1", ["s", "z1"])
    P = pencil_germ(f, g)
    assert P.terms == {(0, 2): 1, (1, 1): -1}
