import hashlib

import pytest

from ryserplanes import constructions, gf, oracles
from ryserplanes.cli import main
from ryserplanes.constructions import build_h1, build_h2, truncated_plane
from ryserplanes.errors import NotPrimePower, SearchTooLarge
from ryserplanes.gf import MAX_ORDER, FieldSpec, _add_table, _mul_table
from ryserplanes.oracles import classify_conic_blockers

# lexicographically least monic irreducibles, coefficients constant-first
KNOWN_MODULI = {
    4: [1, 1, 1],
    8: [1, 0, 1, 1],
    9: [1, 0, 1],
    16: [1, 0, 0, 1, 1],
    25: [1, 1, 1],
    27: [1, 0, 2, 1],
    32: [1, 0, 0, 1, 0, 1],
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


@pytest.mark.parametrize("a", [5, -1])
def test_checked_ops_refuse_non_elements(a):
    f = FieldSpec(5)
    for op in (lambda: f.add(a, 1), lambda: f.add(1, a), lambda: f.mul(a, 1), lambda: f.inv(a)):
        with pytest.raises(ValueError, match="not an element of GF"):
            op()


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
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize(
    "p,modulus,is_field",
    [
        (3, [0, 0, 1], False),  # x^2
        (5, [1, 0, 1], False),  # x^2 + 1 = (x - 2)(x + 2)
        (2, [1, 0, 1, 0, 1], False),  # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        (3, [1, 0, 1], True),  # x^2 + 1 has no root mod 3
    ],
)
def test_table_refuses_reducible_moduli(p, modulus, is_field):
    # a reducible modulus leaves a zero divisor, so the table step refuses it
    add = _add_table(p, p ** (len(modulus) - 1))
    assert (_mul_table(add, p, modulus) is not None) == is_field


HUGE_PRIME = 2**61 - 1


def test_cap_comes_before_factoring(monkeypatch, tmp_path, capsys):
    # trial division up to sqrt(q) takes minutes at 2^61 - 1; nothing past the cap may reach it
    factor = gf._prime_power

    def factor_small(q):
        assert q <= MAX_ORDER, f"{q} was factored before the cap was checked"
        return factor(q)

    for module in (gf, constructions, oracles):
        monkeypatch.setattr(module, "_prime_power", factor_small)
    for build in (FieldSpec, truncated_plane, lambda q: build_h1(q, 2), lambda q: build_h2(q, 2)):
        with pytest.raises(NotPrimePower, match=f"exceeds the supported cap {MAX_ORDER}"):
            build(HUGE_PRIME)
    with pytest.raises(SearchTooLarge):
        classify_conic_blockers(HUGE_PRIME)
    out = tmp_path / "h1.json"
    assert main(["build", "--family", "h1", "--q", str(HUGE_PRIME), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: NotPrimePower")


@pytest.mark.parametrize("q", [2, 3, 5, 31])
def test_prime_field_modulus_is_x(q):
    # x is the least monic irreducible of degree 1, so mod-x reduction is mod-p arithmetic
    assert FieldSpec(q).modulus == [0, 1]
