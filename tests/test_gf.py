import hashlib

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


# sha256 of repr((add table, mul table)), each a list of rows over range(q);
# element numbering is part of the file format, so these never change
FROZEN_TABLES = {
    2: "a2e7c0a8e404532dc556867f72c7921133381c275035e8e7d725ba8bda318034",
    3: "536891ade370f17b493f7edf1665a08f131953757a4e3545a04d1f6aada574aa",
    4: "269c855345c7f4d5e2f5379639e219a42b2f2a69c10cc15fc62ea877963b8ed4",
    5: "083975df8accba363451e037e15cecc31b169869e7c551bb19c36bd103be5771",
    7: "baf1f9430b37504667016a9792d244996b912293163b71af92ee245843ff9b4f",
    8: "6ff367b1db7ad84864d881c72042d43003c47d2563874382898371417be5be7c",
    9: "de8971110108c874291ade94203367e05a698b4b1a9ef63eb5847cd96aedfcf6",
    11: "2af8b2ad704fab1b789d6d0be9dfb6d25b54c8e440cb6438fb39954f2d0cbe48",
    13: "8b116bfcbc785c2abcf0384e8e331a1687e9b6ad4edd66fd87792e46e3bccf04",
    16: "a1d148b00b9c4b08add41976cca5887ea69fe057ed4cfc80fbde383172f5bf02",
    17: "b27526bdad7f55d68334d76a8699e613524d8f1349339a5eb2063d190f2d6e3c",
    19: "ee64b4aba71e567f0231c1ebd88e7998523f5182e7a3003e0e569af1e0ec6a64",
    23: "4cff0bd079148e0f1c657bf474b3fc97f648c2aac373672ff88e3bfeeccb9f68",
    25: "b4a0d5a1adee0ea6fe647c385d58040d9fd4ff60501ef5a05d580a47e9d2f405",
    27: "83ddb3f4751dfdcd0b3287e6fad827b225f5b7d648335555516df4b5551487f0",
    29: "c607adceb5bcae409783d13cc578aa1c2f2d73ae04c10942da786349cf93b8c4",
    31: "75cf697f4d065e2b83ea3fe5aadaa0aea403371371eb272701768e402bfe2d75",
    32: "20121da98a4b264d0a96e9f7ac981676fe38cee572c591b6d4f87dcbb783a568",
}


@pytest.mark.parametrize("q", sorted(FROZEN_TABLES))
def test_tables_are_frozen(q):
    f = FieldSpec(q)
    tables = (
        [[f.add(a, b) for b in range(q)] for a in range(q)],
        [[f.mul(a, b) for b in range(q)] for a in range(q)],
    )
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == FROZEN_TABLES[q]


@pytest.mark.parametrize("q", [2, 3, 5, 31])
def test_prime_field_modulus_is_x(q):
    # x is the least monic irreducible of degree 1, so mod-x reduction is mod-p arithmetic
    assert FieldSpec(q).modulus == [0, 1]
