"""Arithmetic in GF(q) for small prime powers q = p**k.

Field elements are plain ints in range(q).  The base-p digits of an element,
constant term first, are the coefficients of its polynomial representative,
so 0 and 1 are the additive and multiplicative identities in every field.
Every field is reduced modulo the lexicographically smallest monic
irreducible polynomial of degree k over GF(p), coefficients compared low
degree first; for a prime field that is x, and the tables are plain mod-p
arithmetic.  That makes element indices, and everything built on top of
them, identical across runs.

The tables come from the digits alone.  Addition goes digit by digit,
add[a][b] = (a + b) % p + p * add[a // p][b // p].  Multiplying by x shifts
the digits up, the top digit wrapping round as x**k = -(the modulus's lower
terms), and each row follows from a*b = a*(b % p) + x*(a*(b // p)).  The
same steps give the ring GF(p)[x]/(f) for any monic f of degree k, and that
ring is a field iff f is irreducible, iff no two nonzero elements multiply
to zero: a factorisation f = g*h is such a pair, and a finite ring without
one is a field.  So the candidates are tabulated in lex order and the first
table free of zero divisors fixes the modulus.
"""

from itertools import product

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


def _add_table(p, q):
    """Rows of a + b in GF(q), digit by digit; the same for every modulus."""
    add = [list(range(q))]
    for a in range(1, q):
        high = add[a // p]
        add.append([(a + b) % p + p * high[b // p] for b in range(q)])
    return add


def _mul_table(add, p, modulus):
    """Rows of a * b in GF(p)[x]/(modulus), or None at the first row that
    holds a zero divisor, which is the case iff the modulus is reducible."""
    q = len(add)
    top = q // p
    # t * x**k = -t * (the lower terms), for each top digit t
    wrap = [sum(-t * c % p * p ** i for i, c in enumerate(modulus[:-1])) for t in range(p)]
    times_x = [add[a % top * p][wrap[a // top]] for a in range(q)]
    mul = [[0] * q]
    for a in range(1, q):
        row = [0]
        for _ in range(1, p):
            row.append(add[row[-1]][a])
        for b in range(p, q):
            row.append(add[row[b % p]][times_x[row[b // p]]])
        if row.count(0) > 1:
            return None
        mul.append(row)
    return mul


class FieldSpec:
    """GF(q) with fully tabulated add/mul/inv.

    Immutable after construction; all operations are pure lookups.  The
    checked methods guard the row tables `_add[a][b]`, `_mul[a][b]`,
    `_neg[a]` and `_inv[a]` (None at 0), which `geometry` reads directly.
    """

    def __init__(self, q):
        if q > MAX_ORDER:  # before factoring, which takes sqrt(q) steps
            raise NotPrimePower(f"order {q} exceeds the supported cap {MAX_ORDER}")
        pk = _prime_power(q)
        if pk is None:
            raise NotPrimePower(f"{q} is not a prime power")
        self.p, self.k = pk
        self.q = q
        self._add = _add_table(self.p, q)
        # the monic candidates of degree k in lex order, low degree first
        for low in product(range(self.p), repeat=self.k):
            self.modulus = [*low, 1]
            self._mul = _mul_table(self._add, self.p, self.modulus)
            if self._mul:
                break
        self._neg = [row.index(0) for row in self._add]
        self._inv = [None] + [row.index(1) for row in self._mul[1:]]

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
