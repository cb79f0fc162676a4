import random

import pytest

from newtonzeta.factored import factor, one, parse_factored, product


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
        assert a.inv().inv() == a
        assert a * a.inv() == one()


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
        assert a.inv().degree() == -a.degree()


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
    assert not a.equals(factor(1))
    assert a.equals(a * one())


def test_equals_matches_series_expansion():
    rng = random.Random(5)
    for _ in range(40):
        a, b = _random_zeta(rng), _random_zeta(rng)
        assert a.equals(b) == (a.expand_series(50) == b.expand_series(50))


def test_expand_series_examples():
    assert factor(1, -1).expand_series(3) == [1, 1, 1, 1]
    assert factor(2).expand_series(3) == [1, 0, -1, 0]


def test_expand_series_multiplicative():
    rng = random.Random(6)
    order = 20
    for _ in range(20):
        a, b = _random_zeta(rng), _random_zeta(rng)
        ea, eb, eab = (x.expand_series(order) for x in (a, b, a * b))
        conv = [sum(ea[i] * eb[k - i] for i in range(k + 1))
                for k in range(order + 1)]
        assert conv == eab


def test_pretty_examples():
    assert (factor(6, -1) * factor(2)).pretty() == "(1-t^2) (1-t^6)^-1"
    assert one().pretty() == "1"
    assert factor(1, 2).pretty() == "(1-t)^2"


def test_pretty_parse_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_zeta(rng)
        assert parse_factored(a.pretty()) == a


def test_parse_refuses_a_zero_base():
    with pytest.raises(ValueError, match="exponent base 0"):
        parse_factored("(1-t^0)^2 (1-t^3)")


def test_power_and_product():
    a = factor(2) * factor(3, -2)
    assert a ** 3 == factor(2, 3) * factor(3, -6)
    assert a ** 0 == one()
    assert product([factor(2), factor(2), factor(5, -1)]) == \
        factor(2, 2) * factor(5, -1)


def test_json_shape():
    z = factor(2) * factor(6, -1)
    obj = z.as_json_dict()
    assert obj == {
        "factors": [{"m": 2, "e": 1}, {"m": 6, "e": -1}],
        "pretty": "(1-t^2) (1-t^6)^-1",
        "degree": -4,
    }
