"""GF(2^n) arithmetic on int-encoded polynomials.

An element of GF(2^n) is an int in [0, 2^n); bit i is the coefficient of
x^i.  Addition is xor.  Multiplication is carry-less multiplication reduced
modulo a fixed irreducible polynomial.  Fields have at most 2^16 elements,
the most the vectorized group arithmetic supports.  A :class:`FieldCtx` owns
the modulus and log/antilog tables that serve as the multiplication path;
the polynomial product is the reference the tables are built from and
checked against.  Every table of a context, the scalar lists and the
read-only numpy gather tables alike, is built once, by its constructor.
"""

from __future__ import annotations

import functools

import numpy as np

MIN_DEGREE = 2
MAX_DEGREE = 16

# the largest field order, up to which log/antilog tables are built
TABLE_MAX_ORDER = 1 << MAX_DEGREE
# a dense q x q multiplication table (for numpy gathers) up to this order
FULL_TABLE_MAX_ORDER = 1 << 10


class UnsupportedDegree(ValueError):
    """Extension degree outside [2, 16]."""


class DegreeMismatch(ValueError):
    """Supplied modulus does not have the requested degree."""


class NonIrreducibleModulus(ValueError):
    """Supplied modulus has a nontrivial factor over GF(2)."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of 0 requested."""


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two bit-encoded polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def clmod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[x].  m must be nonzero."""
    db = m.bit_length()
    while a.bit_length() >= db:
        a ^= m << (a.bit_length() - db)
    return a


def poly_degree(a: int) -> int:
    return a.bit_length() - 1


def is_irreducible(m: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(m)/2."""
    deg = poly_degree(m)
    if deg < 1:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if clmod(m, d) == 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(n: int) -> int:
    """Least irreducible degree-n polynomial in bit-pattern order."""
    for m in range(1 << n, 2 << n):
        if is_irreducible(m):
            return m
    raise AssertionError(f"no irreducible polynomial of degree {n}")


class FieldCtx:
    """Arithmetic context for GF(2^n): the modulus and its tables, all
    built once, here, from one walk over the powers of the least
    generator g (the least code of multiplicative order q - 1).

    _exp[i] = g^i and _log[g^i] = i are the scalar lists mul, inv, pow and
    frobenius read.  The numpy tables are read-only: log, int32, with log[0]
    the sentinel L = 2(q - 1), and exp3, twice the period then zeros up to
    index 2L, so exp3[log[a] + log[b]] = a * b for all codes, zero operands
    included (a sum reaches L exactly when an operand is 0); and full, the
    dense q x q product table, for q <= FULL_TABLE_MAX_ORDER, else None.
    """

    __slots__ = ("n", "modulus", "order", "_exp", "_log", "log", "exp3", "full")

    def __init__(self, n: int, modulus: int | None = None):
        if not (MIN_DEGREE <= n <= MAX_DEGREE):
            raise UnsupportedDegree(f"extension degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {n}")
        if modulus is None:
            modulus = default_modulus(n)
        if poly_degree(modulus) != n:
            raise DegreeMismatch(f"modulus {modulus:#b} has degree {poly_degree(modulus)}, expected {n}")
        if not is_irreducible(modulus):
            raise NonIrreducibleModulus(f"modulus {modulus:#b} is reducible over GF(2)")
        self.n = n
        self.modulus = modulus
        self.order = q = 1 << n
        # the powers of each candidate g until one returns to 1: q - 1 distinct
        # powers make g a generator, the order of g dividing q - 1
        for g in range(2, q):
            exp = [1]
            while len(exp) < q - 1:
                val = self.mul_poly(exp[-1], g)
                if val == 1:
                    break
                exp.append(val)
            else:
                break
        else:
            raise AssertionError("no multiplicative generator found")
        self._exp = exp
        self._log = [0] * q
        for i, val in enumerate(exp):
            self._log[val] = i
        sentinel = 2 * (q - 1)
        self.log = np.array([sentinel] + self._log[1:], dtype=np.int32)
        self.exp3 = np.zeros(2 * sentinel + 1, dtype=self.code_dtype)
        self.exp3[:sentinel] = exp * 2
        self.full = None
        if q <= FULL_TABLE_MAX_ORDER:
            self.full = self.exp3[self.log[:, None] + self.log[None, :]]
            self.full.flags.writeable = False
        self.log.flags.writeable = False
        self.exp3.flags.writeable = False

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#b})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.n, self.modulus) == (other.n, other.modulus)

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    @property
    def code_dtype(self):
        return np.uint8 if self.order <= 1 << 8 else np.uint16

    # -- scalar operations ---------------------------------------------

    def mul_poly(self, a: int, b: int) -> int:
        """Reference multiplication: carry-less product + reduction."""
        return clmod(clmul(a, b), self.modulus)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self._exp[-self._log[a] % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        """a^e, with 0^0 = 1."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    def frobenius(self, a: int, k: int) -> int:
        """k-fold squaring: a^(2^k)."""
        if k < 0:
            raise ValueError("frobenius power must be non-negative")
        return self.pow(a, 1 << (k % self.n))
