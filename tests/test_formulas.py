import pytest

from fgl import formulas
from fgl.formulas import (HypothesisViolated, IntersectionArray, InvalidQ,
                          deza_pair, is_strict, krmu, p22_numbers,
                          predicted_chi_array, predicted_deza_params)


def test_p22_reference_values():
    assert p22_numbers(4, 3, 1) == (8, 4, 4, 4)
    assert p22_numbers(64, 7, 9) == (384, 324, 324, 320)
    assert p22_numbers(64, 3, 21) == (128, 84, 84, 64)


def test_p22_hypothesis_checks():
    with pytest.raises(HypothesisViolated):
        p22_numbers(5, 2, 2)
    with pytest.raises(HypothesisViolated):
        p22_numbers(5, 3, 1)


def test_predicted_chi_arrays():
    assert predicted_chi_array("psl2", 4) == IntersectionArray(b=(4, 2, 1), c=(1, 1, 4))
    assert predicted_chi_array("psl2", 8) == IntersectionArray(b=(8, 6, 1), c=(1, 1, 8))
    assert predicted_chi_array("sz", 8) == IntersectionArray(b=(64, 54, 1), c=(1, 9, 64))
    assert predicted_chi_array("psu3", 4) == IntersectionArray(b=(64, 42, 1), c=(1, 21, 64))
    assert predicted_chi_array("psu3", 8) == IntersectionArray(b=(512, 438, 1), c=(1, 73, 512))
    assert predicted_chi_array("sz", 32) == IntersectionArray(b=(1024, 990, 1), c=(1, 33, 1024))


def test_predicted_deza_params():
    assert predicted_deza_params("psl2", 4) == (15, 8, 4, 4)
    assert predicted_deza_params("psl2", 8) == (63, 48, 40, 36)
    assert predicted_deza_params("psl2", 16) == (255, 224, 208, 196)
    assert predicted_deza_params("sz", 8) == (455, 384, 324, 320)
    assert predicted_deza_params("psu3", 4) == (195, 128, 84, 64)
    assert predicted_deza_params("psu3", 8) == (3591, 3072, 2628, 2560)


def test_invalid_q():
    with pytest.raises(InvalidQ):
        predicted_chi_array("psl2", 3)
    with pytest.raises(InvalidQ):
        predicted_chi_array("psl2", 2)
    with pytest.raises(InvalidQ):
        predicted_chi_array("sz", 16)  # even exponent
    with pytest.raises(InvalidQ):
        predicted_chi_array("m24", 4)


def test_cover_identity_over_families():
    cases = [("psl2", range(2, 11)), ("sz", range(3, 10, 2)), ("psu3", range(2, 11))]
    for family, ns in cases:
        for n in ns:
            q = 1 << n
            k, r, mu = krmu(family, q)
            assert k == r * mu + 1
            assert k == q ** formulas.SYLOW_EXPONENT[family]
            assert r == q - 1


def test_strictness_identity_grid():
    # a == b exactly when r = mu + 2, checked directly from the two products
    for mu in range(1, 101):
        for r in range(3, 101):
            k = r * mu + 1
            direct = (r - 1) ** 2 * mu != k * (r - 2)
            assert is_strict(k, r, mu) == direct == (r != mu + 2)


def test_odd_complement_identities_over_families():
    # the closed forms run_verify fills the odd-complement certificates from:
    # v - |T(x) | T(y)| with |T(x)| = k + r, |T(x) & T(y)| = r within an
    # antipodal class and mu + 2 across, for every family and n <= 16
    checked = 0
    for family in formulas.FAMILIES:
        for n in range(2, 17):
            q = 1 << n
            try:
                k, r, mu = krmu(family, q)
            except InvalidQ:
                continue
            v = formulas.class_size(family, q)
            ddg = formulas.predicted_ddg(family, q)
            within, cross = ddg["lambda_within"], ddg["lambda_cross"]
            assert within == v - 2 * (k + r) + r == k * (r - 2)
            assert cross == v - 2 * (k + r) + mu + 2 == (r - 1) ** 2 * mu
            # k + 1 classes of r; each vertex has v - r cross-class partners
            assert (ddg["num_classes"], ddg["class_size"]) == (k + 1, r)
            assert v == (k + 1) * r
            assert (k + 1) * r * (r - 1) // 2 + v * (v - r) // 2 == v * (v - 1) // 2
            p0, p1, p2, p3 = p22_numbers(k, r, mu)
            assert p0 == (r - 1) * k and (p1, p2, p3) == (cross, cross, within)
            assert {p1, p3} == set(deza_pair(k, r, mu))
            assert predicted_deza_params(family, q) == (v, p0, max(within, cross),
                                                        min(within, cross))
            assert is_strict(k, r, mu) == (within != cross)
            checked += 1
    assert checked == 15 + 7 + 15


def test_deza_pair_sorted():
    a, b = deza_pair(64, 7, 9)
    assert (a, b) == (320, 324)
    a, b = deza_pair(8, 7, 1)  # psl2(8): k(r-2) dominates
    assert (a, b) == (36, 40)


def test_published_family_forms_coincide_with_cover_derivation():
    # the per-family closed forms equal the (k, r, mu) derivation, family by family
    for n in range(2, 11):
        q = 1 << n
        assert predicted_deza_params("psl2", q) == \
            (q * q - 1, q * (q - 2), q * (q - 3), (q - 2) ** 2)
        assert predicted_chi_array("psl2", q) == \
            IntersectionArray(b=(q, q - 2, 1), c=(1, 1, q))
        assert predicted_deza_params("psu3", q) == \
            ((q ** 3 + 1) * (q - 1), q ** 3 * (q - 2),
             (q - 2) ** 2 * (q * q + q + 1), q ** 3 * (q - 3))
        assert predicted_chi_array("psu3", q) == \
            IntersectionArray(b=(q ** 3, q ** 3 - q * q - q - 2, 1),
                              c=(1, q * q + q + 1, q ** 3))
    for n in range(3, 10, 2):
        q = 1 << n
        assert predicted_deza_params("sz", q) == \
            ((q * q + 1) * (q - 1), q * q * (q - 2),
             (q - 2) ** 2 * (q + 1), q * q * (q - 3))
        assert predicted_chi_array("sz", q) == \
            IntersectionArray(b=(q * q, q * q - q - 2, 1), c=(1, q + 1, q * q))


def test_class_sizes():
    assert formulas.class_size("psl2", 4) == 15
    assert formulas.class_size("sz", 8) == 455
    assert formulas.class_size("psu3", 4) == 195
    assert formulas.class_size("psu3", 8) == 3591
    assert formulas.class_size("sz", 32) == 31775


def test_array_a_values():
    arr = predicted_chi_array("sz", 8)
    # a_i = b0 - b_i - c_i with b_3 = c_0 = 0
    assert arr.a == (0, 9, 54, 0)
    assert str(arr) == "{64,54,1;1,9,64}"
