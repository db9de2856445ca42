import numpy as np
import pytest

from fgl.gf2 import (DegreeMismatch, DivisionByZero, FieldCtx,
                     NonIrreducibleModulus, UnsupportedDegree, clmod, clmul,
                     default_modulus, is_irreducible)
from fgl.groups import _Kernels, make_group


def test_default_modulus_small():
    # least irreducible polynomials in bit-pattern order
    assert default_modulus(2) == 0b111
    assert default_modulus(3) == 0b1011
    assert default_modulus(4) == 0b10011


def test_ctx_accepts_explicit_irreducible():
    ctx = FieldCtx(3, 0b1011)
    assert ctx.modulus == 0b1011


def test_reducible_modulus_rejected():
    with pytest.raises(NonIrreducibleModulus):
        FieldCtx(4, 0b10100)  # x^4 + x^2 = (x^2 + x)^2


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        FieldCtx(4, 0b1011)


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        FieldCtx(1)
    with pytest.raises(UnsupportedDegree):
        FieldCtx(17)  # above GF(2^16), the largest field make_group takes
    with pytest.raises(UnsupportedDegree):
        FieldCtx(25)


def test_gf4_values():
    ctx = FieldCtx(2)
    # x * x = x + 1 modulo x^2 + x + 1, and x^-1 = x + 1
    assert ctx.mul(0b10, 0b10) == 0b11
    assert ctx.inv(0b10) == 0b11


def test_inv_of_zero_raises():
    with pytest.raises(DivisionByZero):
        FieldCtx(3).inv(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_axioms_exhaustive(n):
    ctx = FieldCtx(n)
    els = list(range(ctx.order))
    for a in els:
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in els:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in els:
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_frobenius_is_field_automorphism(n):
    ctx = FieldCtx(n)
    for a in range(ctx.order):
        assert ctx.frobenius(a, 1) == ctx.mul(a, a)
        assert ctx.frobenius(a, ctx.n) == a
        for b in range(ctx.order):
            s = ctx.frobenius(a ^ b, 1)
            assert s == ctx.frobenius(a, 1) ^ ctx.frobenius(b, 1)
            p = ctx.frobenius(ctx.mul(a, b), 1)
            assert p == ctx.mul(ctx.frobenius(a, 1), ctx.frobenius(b, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_multiplicative_order_divides_group(n):
    ctx = FieldCtx(n)
    for a in range(1, ctx.order):
        assert ctx.pow(a, ctx.order - 1) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_table_mul_matches_polynomial_mul(n):
    # the scalar lists and the dense numpy table, on all pairs
    ctx = FieldCtx(n)
    want = [[ctx.mul_poly(a, b) for b in range(ctx.order)] for a in range(ctx.order)]
    assert [[ctx.mul(a, b) for b in range(ctx.order)] for a in range(ctx.order)] == want
    assert ctx.full.tolist() == want
    with pytest.raises(ValueError, match="read-only"):
        ctx.full[1, 1] = 0


def _kernels(n):
    """The batched gather product of the GF(2^n) the psl2 model uses."""
    return _Kernels(make_group("psl2", n))


def test_np_mul_matches_scalar():
    kern = _kernels(4)
    ctx = kern.spec.ctx
    assert kern.full is not None
    a = np.arange(16, dtype=np.uint8).repeat(16)
    b = np.tile(np.arange(16, dtype=np.uint8), 16)
    got = kern._mul(a, b)
    want = np.array([ctx.mul(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint8)
    assert np.array_equal(got, want)


def test_np_mul_log_path_matches_scalar():
    kern = _kernels(11)  # above the dense-table cutoff
    ctx = kern.spec.ctx
    assert kern.full is None and ctx.full is None
    rng = np.random.default_rng(7)
    a = rng.integers(0, ctx.order, 300).astype(np.uint16)
    b = rng.integers(0, ctx.order, 300).astype(np.uint16)
    got = kern._mul(a, b)
    want = np.array([ctx.mul(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint16)
    assert np.array_equal(got, want)


def _pow_poly(ctx, a, e):
    """a^e by square-and-multiply on the carry-less reference product."""
    r = 1
    while e:
        if e & 1:
            r = ctx.mul_poly(r, a)
        a = ctx.mul_poly(a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("n", [11, 12, 14, 16])
def test_log_path_matches_polynomial_mul(n):
    # above the dense-table cutoff the gather exp3[log a + log b] is the only
    # table product: checked against the carry-less reference, not against
    # the scalar lists the tables are built from
    ctx = FieldCtx(n)
    q = ctx.order
    assert ctx.full is None
    rng = np.random.default_rng(n)
    edge = [0, 1, q - 1]
    a = np.array([x for x in edge for _ in edge] + rng.integers(0, q, 400).tolist())
    b = np.array(edge * len(edge) + rng.integers(0, q, 400).tolist())
    got = ctx.exp3[ctx.log[a] + ctx.log[b]]
    assert got.tolist() == [ctx.mul_poly(int(x), int(y)) for x, y in zip(a, b)]
    for x in [0, 1] + rng.integers(2, q, 3).tolist():
        for e in (0, 1, 2, q - 2, q - 1, q, 3 * q):
            assert ctx.pow(x, e) == _pow_poly(ctx, x, e)
        if x:
            assert ctx.mul_poly(ctx.inv(x), x) == 1
        for k in (0, 1, n - 1, n, n + 1, 3 * n):
            assert ctx.frobenius(x, k) == _pow_poly(ctx, x, 1 << k)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)
    with pytest.raises(ValueError):
        ctx.pow(2, -1)
    with pytest.raises(ValueError):
        ctx.frobenius(2, -1)
    for table in (ctx.log, ctx.exp3):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0


def test_clmul_clmod_basics():
    # (x+1)(x+1) = x^2 + 1 without carries
    assert clmul(0b11, 0b11) == 0b101
    assert clmod(0b101, 0b111) == 0b010
    assert is_irreducible(0b111)
    assert not is_irreducible(0b110)


def test_pow_large_exponent_reduces():
    ctx = FieldCtx(5)
    for a in range(1, ctx.order):
        assert ctx.pow(a, ctx.order - 1 + 7) == ctx.pow(a, 7)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0


def _sympy_poly(code: int):
    from sympy import Poly, symbols
    return Poly([int(b) for b in bin(code)[2:]], symbols("t"), modulus=2)


def _sympy_code(poly) -> int:
    return int("".join(str(int(c) % 2) for c in poly.all_coeffs()), 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_arithmetic_matches_sympy(n):
    # an independent GF(2)[t] implementation, reduced modulo the same polynomial
    ctx = FieldCtx(n)
    m = _sympy_poly(default_modulus(n))
    rng = np.random.default_rng(n)
    a = np.concatenate([[0, 1, ctx.order - 1], rng.integers(0, ctx.order, 40)])
    b = np.concatenate([[ctx.order - 1, 0, 1], rng.integers(0, ctx.order, 40)])
    want = [_sympy_code((_sympy_poly(x) * _sympy_poly(y)).rem(m)) for x, y in zip(a, b)]
    assert [ctx.mul(int(x), int(y)) for x, y in zip(a, b)] == want
    assert _kernels(n)._mul(a, b).tolist() == want
    for x in a[a > 0]:
        assert ctx.inv(int(x)) == _sympy_code(_sympy_poly(int(x)).invert(m))
