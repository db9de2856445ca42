import numpy as np
import pytest

from fgl.gf2 import (DegreeMismatch, DivisionByZero, FieldCtx,
                     NonIrreducibleModulus, UnsupportedDegree, clmod, clmul,
                     default_modulus, field_ctx, is_irreducible)


def test_default_modulus_small():
    # least irreducible polynomials in bit-pattern order
    assert default_modulus(2) == 0b111
    assert default_modulus(3) == 0b1011
    assert default_modulus(4) == 0b10011


def test_ctx_accepts_explicit_irreducible():
    ctx = field_ctx(3, 0b1011)
    assert ctx.modulus == 0b1011


def test_reducible_modulus_rejected():
    with pytest.raises(NonIrreducibleModulus):
        field_ctx(4, 0b10100)  # x^4 + x^2 = (x^2 + x)^2


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        field_ctx(4, 0b1011)


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        field_ctx(1)
    with pytest.raises(UnsupportedDegree):
        field_ctx(17)  # above GF(2^16), the largest field make_group takes
    with pytest.raises(UnsupportedDegree):
        field_ctx(25)


def test_gf4_values():
    ctx = field_ctx(2)
    # x * x = x + 1 modulo x^2 + x + 1, and x^-1 = x + 1
    assert ctx.mul(0b10, 0b10) == 0b11
    assert ctx.inv(0b10) == 0b11


def test_inv_of_zero_raises():
    with pytest.raises(DivisionByZero):
        field_ctx(3).inv(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_axioms_exhaustive(n):
    ctx = field_ctx(n)
    els = list(ctx.elements())
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in els:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in els:
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_frobenius_is_field_automorphism(n):
    ctx = field_ctx(n)
    for a in ctx.elements():
        assert ctx.frobenius(a, 1) == ctx.mul(a, a)
        assert ctx.frobenius(a, ctx.n) == a
        for b in ctx.elements():
            s = ctx.frobenius(ctx.add(a, b), 1)
            assert s == ctx.add(ctx.frobenius(a, 1), ctx.frobenius(b, 1))
            p = ctx.frobenius(ctx.mul(a, b), 1)
            assert p == ctx.mul(ctx.frobenius(a, 1), ctx.frobenius(b, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_multiplicative_order_divides_group(n):
    ctx = field_ctx(n)
    for a in ctx.nonzero_elements():
        assert ctx.pow(a, ctx.order - 1) == 1


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_table_mul_matches_polynomial_mul(n):
    ctx = field_ctx(n)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == ctx.mul_poly(a, b)


def test_np_mul_matches_scalar():
    import numpy as np
    ctx = field_ctx(4)
    a = np.arange(16, dtype=np.uint8).repeat(16)
    b = np.tile(np.arange(16, dtype=np.uint8), 16)
    got = ctx.np_mul(a, b)
    want = np.array([ctx.mul(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint8)
    assert np.array_equal(got, want)


def test_np_mul_log_path_matches_scalar():
    import numpy as np
    ctx = field_ctx(11)  # above the dense-table cutoff
    assert ctx.np_mul_table() is None
    rng = np.random.default_rng(7)
    a = rng.integers(0, ctx.order, 300).astype(np.uint16)
    b = rng.integers(0, ctx.order, 300).astype(np.uint16)
    got = ctx.np_mul(a, b)
    want = np.array([ctx.mul(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint16)
    assert np.array_equal(got, want)


def test_clmul_clmod_basics():
    # (x+1)(x+1) = x^2 + 1 without carries
    assert clmul(0b11, 0b11) == 0b101
    assert clmod(0b101, 0b111) == 0b010
    assert is_irreducible(0b111)
    assert not is_irreducible(0b110)


def test_pow_large_exponent_reduces():
    ctx = field_ctx(5)
    for a in ctx.nonzero_elements():
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
    ctx = field_ctx(n)
    m = _sympy_poly(default_modulus(n))
    rng = np.random.default_rng(n)
    a = np.concatenate([[0, 1, ctx.order - 1], rng.integers(0, ctx.order, 40)])
    b = np.concatenate([[ctx.order - 1, 0, 1], rng.integers(0, ctx.order, 40)])
    want = [_sympy_code((_sympy_poly(x) * _sympy_poly(y)).rem(m)) for x, y in zip(a, b)]
    assert [ctx.mul(int(x), int(y)) for x, y in zip(a, b)] == want
    assert ctx.np_mul(a, b).tolist() == want
    for x in a[a > 0]:
        assert ctx.inv(int(x)) == _sympy_code(_sympy_poly(int(x)).invert(m))
