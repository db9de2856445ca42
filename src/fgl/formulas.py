"""Closed-form parameter oracles for the verified graph families.

Everything here is exact integer arithmetic on the parameter triple
(k, r, mu) of an antipodal distance-regular graph of diameter 3 with
intersection array {k, (r-1)mu, 1; 1, mu, k}, k = r*mu + 1, and on the
three group families PSL2(q) / Sz(q) / PSU3(q) with q = 2^n >= 4, where
that triple specializes to k = q^l, r = q - 1, mu = (q^l - 1)/(q - 1).
The pipeline checks the chi graph's computed certificate against
predicted_chi_array; the odd-complement graph's certificates it fills from
these closed forms, which that certificate implies (pipeline.run_verify).
"""

from __future__ import annotations

from dataclasses import dataclass

PSL2 = "psl2"
SZ = "sz"
PSU3 = "psu3"
FAMILIES = (PSL2, SZ, PSU3)

# Sylow exponent l: |Sylow 2-subgroup| = q^l
SYLOW_EXPONENT = {PSL2: 1, SZ: 2, PSU3: 3}
# associated prime: order of a distinguished involution product
ASSOCIATED_PRIME = {PSL2: 3, SZ: 5, PSU3: 3}
MATRIX_DIM = {PSL2: 2, SZ: 4, PSU3: 3}


class InvalidQ(ValueError):
    """q is not a valid field size for the family."""


class HypothesisViolated(ValueError):
    """Parameters break the k = r*mu + 1, r > 2 hypothesis."""


def normalize_family(family: str) -> str:
    f = family.lower()
    if f not in FAMILIES:
        raise InvalidQ(f"unknown family {family!r}; expected one of {FAMILIES}")
    return f


def check_q(family: str, q: int) -> str:
    family = normalize_family(family)
    n = q.bit_length() - 1
    if q < 4 or q != 1 << n:
        raise InvalidQ(f"q must be a power of 2 with q >= 4, got {q}")
    if family == SZ and n % 2 == 0:
        raise InvalidQ(f"Sz(q) requires an odd exponent, got q = 2^{n}")
    return family


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection array {b0,...,b_{d-1}; c1,...,c_d} of a distance-regular graph."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise ValueError("b and c must have equal length")

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def a(self) -> tuple[int, ...]:
        """a_0..a_d via a_i = b_0 - b_i - c_i (b_d = c_0 = 0)."""
        b = self.b + (0,)
        c = (0,) + self.c
        return tuple(b[0] - b[i] - c[i] for i in range(self.diameter + 1))

    def __str__(self) -> str:
        bs = ",".join(map(str, self.b))
        cs = ",".join(map(str, self.c))
        return "{" + bs + ";" + cs + "}"

    def to_dict(self) -> dict:
        return {"b": list(self.b), "c": list(self.c)}


def krmu(family: str, q: int) -> tuple[int, int, int]:
    """(k, r, mu) of the valency-q^l antipodal cover for the family."""
    family = check_q(family, q)
    l = SYLOW_EXPONENT[family]
    k = q ** l
    r = q - 1
    mu = (k - 1) // (q - 1)
    assert k == r * mu + 1
    return k, r, mu


def class_size(family: str, q: int) -> int:
    """Number of involutions: q^2-1, (q^2+1)(q-1), (q^3+1)(q-1)."""
    k, r, _ = krmu(family, q)
    return r * (k + 1)


def stabiliser_classes(family: str, q: int) -> int:
    """Orbits of a Sylow 2-subgroup U of an involution's centraliser on the
    class: the q - 1 involutions of Z(U), and q - 1 orbits of q^l."""
    check_q(family, q)
    return 2 * q - 2


def cover_array(k: int, r: int, mu: int) -> IntersectionArray:
    """{k, (r-1)mu, 1; 1, mu, k} after validating the hypothesis."""
    _check_cover(k, r, mu)
    return IntersectionArray(b=(k, (r - 1) * mu, 1), c=(1, mu, k))


def predicted_chi_array(family: str, q: int) -> IntersectionArray:
    """Intersection array of the distinguished-pair graph for the family."""
    return cover_array(*krmu(family, q))


def _check_cover(k: int, r: int, mu: int) -> None:
    if r <= 2:
        raise HypothesisViolated(f"need r > 2, got r = {r}")
    if k != r * mu + 1:
        raise HypothesisViolated(f"need k = r*mu + 1, got k = {k}, r*mu + 1 = {r * mu + 1}")


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"non-integer intersection number: {num}/{den}")
    return q


def p22_numbers(k: int, r: int, mu: int) -> tuple[int, int, int, int]:
    """(p^0_22, p^1_22, p^2_22, p^3_22) for the cover array.

    p^2_22 is returned in the simplified form (r-1)^2 * mu, and the raw
    expression b1 + a2*(a2 - a1)/c2 is evaluated alongside and must agree.
    """
    arr = cover_array(k, r, mu)
    b, c, a = arr.b, arr.c, arr.a
    p1 = _exact_div(b[1] * b[1], c[1])
    p2_raw = b[1] + _exact_div(a[2] * (a[2] - a[1]), c[1])
    p2 = (r - 1) ** 2 * mu
    if p2_raw != p2:
        raise AssertionError(f"p^2_22 forms disagree: {p2_raw} != {p2}")
    if p1 != p2:
        raise AssertionError(f"p^1_22 != p^2_22: {p1} != {p2}")
    p3 = _exact_div(c[2] * (a[2] + a[3] - a[1]), c[1])
    if p3 != k * (r - 2):
        raise AssertionError(f"p^3_22 form disagrees: {p3} != {k * (r - 2)}")
    p0 = (r - 1) * k
    return p0, p1, p2, p3


def deza_pair(k: int, r: int, mu: int) -> tuple[int, int]:
    """Common-neighbor values {(r-1)^2 mu, k(r-2)} of the distance-2 graph, sorted."""
    _check_cover(k, r, mu)
    x = (r - 1) ** 2 * mu
    y = k * (r - 2)
    return (x, y) if x <= y else (y, x)


def is_strict(k: int, r: int, mu: int) -> bool:
    """Whether the distance-2 graph is strictly Deza (two distinct values)."""
    a, b = deza_pair(k, r, mu)
    assert (a != b) == (r != mu + 2)
    return a != b


def predicted_deza_params(family: str, q: int) -> tuple[int, int, int, int]:
    """(v, k, b, a) of the odd-complement fusion graph, a <= b."""
    k, r, mu = krmu(family, q)
    a, b = deza_pair(k, r, mu)
    return r * (k + 1), (r - 1) * k, b, a


def predicted_ddg(family: str, q: int) -> dict:
    """Canonical-partition certificate values for the odd-complement graph."""
    k, r, mu = krmu(family, q)
    return {
        "num_classes": k + 1,
        "class_size": r,
        "lambda_within": k * (r - 2),
        "lambda_cross": (r - 1) ** 2 * mu,
    }

