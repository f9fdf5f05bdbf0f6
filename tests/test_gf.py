import pytest

from ryserplanes.errors import NotPrimePower
from ryserplanes.gf import FieldSpec

# lexicographically least monic irreducibles, coefficients constant-first
KNOWN_MODULI = {
    4: [1, 1, 1],
    8: [1, 0, 1, 1],
    9: [1, 0, 1],
    16: [1, 0, 0, 1, 1],
    25: [1, 1, 1],
    27: [1, 0, 2, 1],
}


@pytest.mark.parametrize("q,poly", sorted(KNOWN_MODULI.items()))
def test_canonical_modulus(q, poly):
    assert FieldSpec(q).modulus == poly


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = FieldSpec(q)
    els = list(f.elements())
    assert els == list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_prime_field_is_mod_arithmetic():
    f = FieldSpec(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7


def test_subtraction_inverts_addition():
    f = FieldSpec(9)
    for a in range(9):
        for b in range(9):
            assert f.add(f.sub(a, b), b) == a


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 33, 100])
def test_bad_orders_rejected(q):
    with pytest.raises(NotPrimePower):
        FieldSpec(q)


def test_zero_has_no_inverse():
    f = FieldSpec(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_gf4_arithmetic_of_x():
    f = FieldSpec(4)
    assert f.add(2, 3) == 1  # x + (x+1) = 1 in GF(4)
    assert f.mul(2, 2) == 3  # x * x = x + 1 mod x^2+x+1
    assert f.inv(2) == 3


def test_multiplicative_group_order():
    # every nonzero element's order divides q - 1
    for q in (4, 8, 9):
        f = FieldSpec(q)
        for a in range(1, q):
            x = a
            n = 1
            while x != 1:
                x = f.mul(x, a)
                n += 1
            assert (q - 1) % n == 0
