"""GF(2^n) arithmetic on int-encoded polynomials.

An element of GF(2^n) is an int in [0, 2^n); bit i is the coefficient of
x^i.  Addition is xor.  Multiplication is carry-less multiplication reduced
modulo a fixed irreducible polynomial.  Fields have at most 2^16 elements,
the most the vectorized group arithmetic supports.  A :class:`FieldCtx` owns
the modulus and log/antilog tables that serve as the multiplication path;
the polynomial product is the reference the tables are built from and
checked against.

The modulus and the scalar tables are fixed at construction; the numpy
tables are filled lazily on first use (np_tables, np_mul_table).  The fill is
idempotent and publishes each table whole, its guard attribute last, so
contexts are safe to share between threads.
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
    """Arithmetic context for GF(2^n)."""

    __slots__ = (
        "n", "modulus", "order",
        "_exp", "_log",
        "_np_log", "_np_exp3", "_np_full",
    )

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
        self.order = 1 << n
        self._np_log = None
        self._np_exp3 = None
        self._np_full = None
        self._build_tables()

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#b})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.n, self.modulus) == (other.n, other.modulus)

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    # -- construction helpers ------------------------------------------

    def _build_tables(self) -> None:
        q = self.order
        # find a multiplicative generator by direct order computation
        for g in range(2, q):
            val, steps = g, 1
            while val != 1:
                val = self.mul_poly(val, g)
                steps += 1
                if steps > q:
                    raise AssertionError("order walk failed to terminate")
            if steps == q - 1:
                break
        else:
            raise AssertionError("no multiplicative generator found")
        exp = [0] * (q - 1)
        log = [0] * q
        val = 1
        for i in range(q - 1):
            exp[i] = val
            log[val] = i
            val = self.mul_poly(val, g)
        self._exp = exp
        self._log = log

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
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return 0 if e else 1
        e %= self.order - 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frobenius(self, a: int, k: int) -> int:
        """k-fold squaring: a^(2^k)."""
        if k < 0:
            raise ValueError("frobenius power must be non-negative")
        for _ in range(k % self.n):
            a = self.mul(a, a)
        return a

    # -- numpy kernels ---------------------------------------------------

    @property
    def code_dtype(self):
        return np.uint8 if self.order <= 1 << 8 else np.uint16

    def np_tables(self):
        """(log, exp3) arrays for gather-based multiplication.

        log[0] is a sentinel L = 2(q-1) and exp3 is zero from index L on,
        so exp3[log[a] + log[b]] is correct including zero operands.
        """
        if self._np_log is None:
            q = self.order
            sentinel = 2 * (q - 1)
            log = np.empty(q, dtype=np.int32)
            log[0] = sentinel
            log[1:] = [self._log[v] for v in range(1, q)]
            exp3 = np.zeros(2 * sentinel + 1, dtype=self.code_dtype)
            period = np.array(self._exp, dtype=self.code_dtype)
            exp3[: q - 1] = period
            exp3[q - 1 : sentinel] = period
            self._np_exp3 = exp3
            self._np_log = log  # the guard, written last
        return self._np_log, self._np_exp3

    def np_mul_table(self):
        """Dense q x q multiplication table, or None for large fields."""
        if self.order > FULL_TABLE_MAX_ORDER:
            return None
        if self._np_full is None:
            log, exp3 = self.np_tables()
            a = np.arange(self.order)
            self._np_full = exp3[log[a][:, None] + log[a][None, :]]
        return self._np_full
