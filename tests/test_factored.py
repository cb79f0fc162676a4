import random

import pytest

from helpers import series_coefficients
from newtonzeta.factored import FactoredZeta, factor, one, parse_factored, product


def _random_zeta(rng):
    acc = one()
    for _ in range(rng.randint(0, 4)):
        acc = acc * factor(rng.randint(1, 9), rng.randint(-3, 3) or 1)
    return acc


def test_cancellation():
    assert factor(2, 1) * factor(2, -1) == one()


def test_mul_commutative_associative():
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (_random_zeta(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_inv_involution():
    rng = random.Random(2)
    for _ in range(20):
        a = _random_zeta(rng)
        assert (a ** -1) ** -1 == a
        assert (a ** -1).factors == tuple((m, -e) for m, e in a.factors)
        assert a * a ** -1 == one()


def test_factor_rejects_bad_base():
    with pytest.raises(ValueError):
        factor(0, 1)
    with pytest.raises(ValueError):
        factor(-2, 1)


def test_degree_examples():
    assert (factor(1, 2)).degree() == 2
    cusp = factor(2) * factor(3) * factor(6, -1)
    assert cusp.degree() == -1
    assert one().degree() == 0


def test_degree_additive():
    rng = random.Random(3)
    for _ in range(30):
        a, b = _random_zeta(rng), _random_zeta(rng)
        assert (a * b).degree() == a.degree() + b.degree()
        assert (a ** -1).degree() == -a.degree()


def test_cyclotomic_signature_examples():
    assert factor(6).cyclotomic_signature() == {1: 1, 2: 1, 3: 1, 6: 1}
    cusp = factor(2) * factor(3) * factor(6, -1)
    assert cusp.cyclotomic_signature() == {1: 1, 6: -1}
    assert one().cyclotomic_signature() == {}


def test_signature_additive():
    rng = random.Random(4)
    for _ in range(30):
        a, b = _random_zeta(rng), _random_zeta(rng)
        sa, sb, sab = (x.cyclotomic_signature() for x in (a, b, a * b))
        keys = set(sa) | set(sb)
        assert sab == {k: v for k in sorted(keys)
                       if (v := sa.get(k, 0) + sb.get(k, 0)) != 0}


def test_equals_distinguishes():
    # (1-t^2)(1-t)^-1 has signature {2: 1}, distinct from (1-t)
    a = factor(2) * factor(1, -1)
    assert a != factor(1)
    assert a == a * one()


def test_equals_matches_series_expansion():
    rng = random.Random(5)
    for _ in range(40):
        a, b = _random_zeta(rng), _random_zeta(rng)
        assert (a == b) == (series_coefficients(a, 50) == series_coefficients(b, 50))


def test_equality_is_equality_of_rational_functions():
    # the cyclotomic multiplicities decide equality of rational functions;
    # pairs built by different paths are equal, random pairs mostly not
    rng = random.Random(20261020)
    for _ in range(200):
        a, b = _random_zeta(rng), _random_zeta(rng)
        zs = [_random_zeta(rng) for _ in range(rng.randint(0, 5))]
        fold = one()
        for z in zs:
            fold = fold * z
        same = [(a * b, b * a), (a * a ** -1, one()), (product(zs), fold)]
        for x, y in same + [(a, b), (a, a * factor(rng.randint(1, 9)))]:
            assert (x == y) == (x.cyclotomic_signature() == y.cyclotomic_signature())
        assert all(x == y for x, y in same)


def test_expand_series_multiplicative():
    rng = random.Random(6)
    order = 20
    for _ in range(20):
        a, b = _random_zeta(rng), _random_zeta(rng)
        ea, eb, eab = (series_coefficients(x, order) for x in (a, b, a * b))
        conv = [sum(ea[i] * eb[k - i] for i in range(k + 1))
                for k in range(order + 1)]
        assert conv == eab


def test_pretty_examples():
    assert (factor(6, -1) * factor(2)).pretty() == "(1-t^2) (1-t^6)^-1"
    assert one().pretty() == "1"
    assert factor(1, 2).pretty() == "(1-t)^2"


def _assert_refused(text):
    with pytest.raises(ValueError) as refused:
        parse_factored(text)
    assert str(refused.value) == f"not a factored form as pretty() writes it: {text!r}"


def test_pretty_parse_roundtrip():
    rng = random.Random(7)
    for _ in range(500):
        a = _random_zeta(rng)
        assert parse_factored(a.pretty()) == a
        assert parse_factored(f" \t{a.pretty()}\n ") == a
    assert parse_factored("1") == one()


def test_parse_reads_only_what_pretty_writes():
    # a rendering that is not pretty()'s own is refused, however it is
    # altered: unit exponents or bases written out, leading zeros, the
    # space between factors dropped or doubled, the factors reversed or
    # repeated, or a factor and its inverse put in front
    rng = random.Random(8)
    for _ in range(500):
        text = _random_zeta(rng).pretty()
        for bad in [text.replace("(1-t)", "(1-t^1)"), text.replace(") ", ")^1 "),
                    text.replace("^", "^0"), text.replace(") (", ")("),
                    text.replace(") (", ")  ("), " ".join(text.split()[::-1]),
                    f"{text} {text}", f"(1-t) (1-t)^-1 {text}"]:
            if bad != text:
                _assert_refused(bad)


@pytest.mark.parametrize("text", [
    "(1-t)^0", "(1-t^2) (1-t^2)^-1", "(1-t)(1-t)", "(1-t^002)", "(1-t)^1", "(1-t^1)",
    "(1-t^2) (1-t)", "(1-t)  (1-t^2)", "(1-t)^-0",
    pytest.param("(1-t)^" + "9" * 5000, id="a 5000-digit exponent")])
def test_parse_refuses_text_pretty_never_writes(text):
    _assert_refused(text)


def test_parse_refuses_a_zero_base():
    _assert_refused("(1-t^0)^2 (1-t^3)")


def test_power_and_product():
    a = factor(2) * factor(3, -2)
    assert a ** 3 == factor(2, 3) * factor(3, -6)
    assert a ** 0 == one()
    assert product([factor(2), factor(2), factor(5, -1)]) == \
        factor(2, 2) * factor(5, -1)


def test_product_is_the_left_fold_of_mul():
    rng = random.Random(20261019)
    for _ in range(60):
        zs = [_random_zeta(rng) for _ in range(rng.randint(0, 6))]
        # a repeated base, and a factor's inverse cancelling it
        if zs and rng.random() < 0.5:
            zs.append(zs[rng.randrange(len(zs))])
        if zs and rng.random() < 0.3:
            zs.append(zs[rng.randrange(len(zs))] ** -1)
        # each base's exponents summed by hand, zero sums dropped
        sums = {}
        for z in zs:
            for m, e in z.factors:
                sums[m] = sums.get(m, 0) + e
        want = FactoredZeta(tuple(sorted((m, e) for m, e in sums.items() if e)))
        fold = one()
        for z in zs:
            fold = fold * z
        assert product(zs) == fold == want, zs
        assert product(iter(zs)) == want
    assert product([]) == one()
    assert product([factor(3, 2), factor(5), factor(3, -2), factor(5, -1)]) == one()
    assert product([factor(4)] * 3 + [factor(2, -1)]).factors == ((2, -1), (4, 3))


def test_json_shape():
    z = factor(2) * factor(6, -1)
    obj = z.as_json_dict()
    assert obj == {
        "factors": [{"m": 2, "e": 1}, {"m": 6, "e": -1}],
        "pretty": "(1-t^2) (1-t^6)^-1",
        "degree": -4,
    }
