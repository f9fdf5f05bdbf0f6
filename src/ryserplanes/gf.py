"""Arithmetic in GF(q) for small prime powers q = p**k.

Field elements are plain ints in range(q).  The base-p digits of an element,
constant term first, are the coefficients of its polynomial representative,
so 0 and 1 are the additive and multiplicative identities in every field.
Every field is reduced modulo the lexicographically smallest monic
irreducible polynomial of degree k over GF(p), coefficients compared low
degree first; for a prime field that is x, and the tables are plain mod-p
arithmetic.  That makes element indices, and everything built on top of
them, identical across runs.
"""

from .errors import NotPrimePower

# All the orders that matter here are tiny; the cap keeps the q*q tables honest.
MAX_ORDER = 32


def _prime_power(q):
    """Return (p, k) with q = p**k, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _poly_mod(f, g, p):
    """Remainder of f modulo monic g, coefficient lists constant term first."""
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        c = r[-1]
        if c:
            shift = len(r) - 1 - dg
            for i in range(dg + 1):
                r[shift + i] = (r[shift + i] - c * g[i]) % p
        r.pop()
    return r


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _monic_polys(p, deg):
    """All monic polynomials of the given degree, in lex order (low degree first)."""
    for n in range(p ** deg):
        coeffs = []
        m = n
        for _ in range(deg):
            coeffs.append(m % p)
            m //= p
        coeffs.reverse()
        yield coeffs + [1]


def _is_irreducible(f, p):
    deg = len(f) - 1
    if f[0] == 0:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if not any(_poly_mod(f, g, p)):
                return False
    return True


def _least_irreducible(p, k):
    for f in _monic_polys(p, k):
        if _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


class FieldSpec:
    """GF(q) with fully tabulated add/mul/inv.

    Immutable after construction; all operations are pure lookups.
    """

    def __init__(self, q):
        pk = _prime_power(q)
        if pk is None:
            raise NotPrimePower(f"{q} is not a prime power")
        if q > MAX_ORDER:
            raise NotPrimePower(f"order {q} exceeds the supported cap {MAX_ORDER}")
        self.p, self.k = pk
        self.q = q
        self.modulus = _least_irreducible(self.p, self.k)
        self._build_tables()

    def _digits(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, coeffs):
        val = 0
        for c in reversed(coeffs):
            val = val * self.p + (c % self.p)
        return val

    def _build_tables(self):
        p, q = self.p, self.q
        polys = [self._digits(a) for a in range(q)]
        self._add = [
            [self._undigits([(x + y) % p for x, y in zip(fa, fb)]) for fb in polys]
            for fa in polys
        ]
        self._mul = [
            [self._undigits(_poly_mod(_poly_mul(fa, fb, p), self.modulus, p)) for fb in polys]
            for fa in polys
        ]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._inv = [None] + [self._mul[a].index(1) for a in range(1, q)]

    def _check(self, a):
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return self._add[a][b]

    def sub(self, a, b):
        self._check(a)
        self._check(b)
        return self._add[a][self._neg[b]]

    def neg(self, a):
        self._check(a)
        return self._neg[a]

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        return self._mul[a][b]

    def inv(self, a):
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"FieldSpec(q={self.q})"
