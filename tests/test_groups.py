import numpy as np
import pytest

import fgl.groups as gr
from fgl.formulas import InvalidQ
from fgl.groups import (ClassSizeMismatch, GroupSpec, SzEvenExponent,
                        canonicalize, check_group_form, element_order,
                        encode, generators, identity, involution_class,
                        make_group, mat_det, mat_inv_det1, mat_mul, mat_scale,
                        product_order, reversal, seed_involution,
                        sylow_partition)


@pytest.fixture(scope="module")
def psl2_4():
    return make_group("psl2", 2)


@pytest.fixture(scope="module")
def psl2_8_class():
    return involution_class(make_group("psl2", 3))


@pytest.fixture(scope="module")
def sz8_class():
    return involution_class(make_group("sz", 3))


@pytest.fixture(scope="module")
def psu3_4_class():
    return involution_class(make_group("psu3", 2))


def test_make_group_values():
    s = make_group("psl2", 2)
    assert (s.q, s.l, s.chi, s.dim, s.center) == (4, 1, 3, 2, (1,))
    s = make_group("sz", 3)
    assert (s.q, s.l, s.chi, s.dim) == (8, 2, 5, 4)
    assert s.ctx.n == 3
    s = make_group("psu3", 2)
    assert (s.q, s.l, s.chi, s.dim, s.center) == (4, 3, 3, 3, (1,))
    assert s.ctx.n == 4  # GF(q^2)
    s = make_group("psu3", 3)
    assert len(s.center) == 3  # q + 1 = 9 is divisible by 3


def test_make_group_rejections():
    with pytest.raises(InvalidQ):
        make_group("psl2", 1)
    with pytest.raises(SzEvenExponent):
        make_group("sz", 2)
    with pytest.raises(InvalidQ):
        make_group("e8", 3)


def test_generators_pass_forms(psl2_4):
    gens = generators(psl2_4)
    assert ((1, 1), (0, 1)) in gens
    assert ((0, 1), (1, 0)) in gens
    for g in gens:
        check_group_form(psl2_4, g)


def test_sz_unipotent_family_closed():
    spec = make_group("sz", 3)
    fam = {gr._sz_unipotent(spec, a, b)
           for a in spec.ctx.elements() for b in spec.ctx.elements()}
    assert len(fam) == spec.q ** 2
    for m in fam:
        check_group_form(spec, m)
    # closed under multiplication, and S(0, b) are involutions
    for s1 in fam:
        for s2 in list(fam)[:8]:
            assert mat_mul(spec.ctx, s1, s2) in fam
    for b in spec.ctx.nonzero_elements():
        s = gr._sz_unipotent(spec, 0, b)
        assert mat_mul(spec.ctx, s, s) == identity(4)


def test_psu3_unipotent_scan_matches_derived_condition():
    spec = make_group("psu3", 2)
    ctx = spec.ctx
    scanned = set(gr._psu3_unipotents(spec))
    assert len(scanned) == spec.q ** 3
    # independent closed form: z = x^q and y + y^q = x^(q+1)
    derived = set()
    for x in ctx.elements():
        for y in ctx.elements():
            if ctx.add(y, ctx.frobenius(y, spec.n)) == ctx.pow(x, spec.q + 1):
                derived.add(((1, 0, 0), (x, 1, 0), (y, ctx.frobenius(x, spec.n), 1)))
    assert scanned == derived


def test_form_rejections(psl2_4):
    with pytest.raises(gr.NotInGroupForm):
        check_group_form(psl2_4, ((1, 0), (1, 1), (0, 0)))
    with pytest.raises(gr.NotInGroupForm):
        check_group_form(psl2_4, ((1, 1), (1, 1)))  # det 0
    spec = make_group("sz", 3)
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    bad = (eye[0], eye[1], eye[2], (0, 1, 0, 1))  # det 1 but not symplectic
    with pytest.raises(gr.NotInGroupForm):
        check_group_form(spec, bad)


def test_matrix_helpers(psl2_4):
    ctx = psl2_4.ctx
    m = ((2, 1), (1, 1))
    assert mat_det(ctx, m) == 3  # 2*1 + 1*1 = 2 ^ 1 in GF(4)
    inv = mat_inv_det1(ctx, ((1, 1), (0, 1)))
    assert mat_mul(ctx, inv, ((1, 1), (0, 1))) == identity(2)
    with pytest.raises(gr.NotInGroupForm):
        mat_inv_det1(ctx, ((1, 1), (1, 1)))


def test_element_orders(psl2_4):
    assert element_order(psl2_4, identity(2)) == 1
    assert element_order(psl2_4, reversal(2)) == 2
    # product of the two standard generators has order 3
    m = mat_mul(psl2_4.ctx, ((1, 1), (0, 1)), ((0, 1), (1, 0)))
    assert m == ((1, 1), (1, 0))
    assert element_order(psl2_4, m) == 3
    cube = mat_mul(psl2_4.ctx, m, mat_mul(psl2_4.ctx, m, m))
    assert cube == identity(2)


def test_canonicalize_psl2_is_identity(psl2_4):
    m = ((1, 1), (0, 1))
    assert canonicalize(psl2_4, m) == m


def test_canonicalize_psu3_center_orbit():
    spec = make_group("psu3", 3)
    j = seed_involution(spec)
    reps = {canonicalize(spec, mat_scale(spec.ctx, z, j)) for z in spec.center}
    assert len(reps) == 1
    rep = reps.pop()
    assert canonicalize(spec, rep) == rep  # idempotent
    # canonical encoding is minimal among the scalings
    keys = sorted(encode(spec, mat_scale(spec.ctx, z, j)) for z in spec.center)
    assert encode(spec, rep) == keys[0]
    # the identity wins its own scaling orbit
    assert canonicalize(spec, identity(3)) == identity(3)


def test_class_sizes_and_indexing(psl2_8_class, sz8_class, psu3_4_class):
    assert involution_class(make_group("psl2", 2)).size == 15
    assert psl2_8_class.size == 63
    assert sz8_class.size == 455
    assert psu3_4_class.size == 195
    # index is consistent with members
    cls = psl2_8_class
    for i in (0, 1, 17, 62):
        assert cls.vertex_of(cls.member(i)) == i


def test_every_member_is_an_involution(sz8_class):
    spec = sz8_class.spec
    for i in range(0, sz8_class.size, 37):
        m = sz8_class.member(i)
        assert element_order(spec, m) == 2
        check_group_form(spec, m)


def test_conjugation_closure(psl2_8_class):
    cls = psl2_8_class
    spec = cls.spec
    for g in generators(spec):
        gi = mat_inv_det1(spec.ctx, g)
        for i in range(cls.size):
            c = mat_mul(spec.ctx, gi, mat_mul(spec.ctx, cls.member(i), g))
            assert cls.vertex_of(c) >= 0


def test_class_size_contract_catches_bad_generators(monkeypatch):
    spec = make_group("psl2", 2)
    small = [((0, 1), (1, 0)), ((1, 1), (0, 1))]  # generates only a subgroup over GF(2)
    monkeypatch.setattr(gr, "generators", lambda s: small)
    with pytest.raises(ClassSizeMismatch):
        involution_class(spec)


def test_product_orders_and_masks_agree(psl2_8_class):
    cls = psl2_8_class
    spec = cls.spec
    # brute-force python orders for every pair vs the vectorized scan
    scan = cls.order_scan()
    census = {}
    comm_pairs = set()
    chi_pairs = set()
    for x in range(cls.size):
        for y in range(x + 1, cls.size):
            o = product_order(spec, x, y, cls)
            census[o] = census.get(o, 0) + 1
            if o == 2:
                comm_pairs.add((x, y))
            if o == spec.chi:
                chi_pairs.add((x, y))
    assert census == scan.census
    assert scan.noncommuting_all_odd
    assert all(o == 2 or o % 2 == 1 for o in census)
    from fgl import bits
    got_comm = {(x, y) for x in range(cls.size)
                for y in bits.indices(scan.comm[x], cls.size) if x < y}
    got_chi = {(x, y) for x in range(cls.size)
               for y in bits.indices(scan.chi[x], cls.size) if x < y}
    assert got_comm == comm_pairs
    assert got_chi == chi_pairs


def test_power_masks_equal_order_masks(sz8_class):
    masks = gr.power_pair_masks(sz8_class)
    scan = gr.full_order_scan(sz8_class)
    assert np.array_equal(masks.comm, scan.comm)
    assert np.array_equal(masks.chi, scan.chi)


def test_pair_predicates_partition_all_pairs(psl2_8_class, sz8_class):
    # equal / commuting / distinguished / odd-other is a partition of pairs
    from fgl import bits
    for cls in (psl2_8_class, sz8_class):
        masks = cls.pair_masks()
        assert not (masks.comm & masks.chi).any()
        counts = bits.popcount(masks.comm).sum() + bits.popcount(masks.chi).sum()
        scan = cls.order_scan()
        other = sum(c for o, c in scan.census.items() if o not in (2, cls.spec.chi))
        assert counts // 2 + other == cls.size * (cls.size - 1) // 2


def test_product_order_diagonal_and_commuting(psu3_4_class):
    cls = psu3_4_class
    spec = cls.spec
    assert product_order(spec, 5, 5, cls) == 1
    from fgl import bits
    comm = cls.pair_masks().comm
    x = 0
    y = int(bits.indices(comm[x], cls.size)[0])
    assert product_order(spec, x, y, cls) == 2
    chi = cls.pair_masks().chi
    z = int(bits.indices(chi[x], cls.size)[0])
    assert product_order(spec, x, z, cls) == spec.chi


def test_sylow_partitions(psl2_8_class, sz8_class, psu3_4_class):
    for cls, m, r in ((involution_class(make_group("psl2", 2)), 5, 3),
                      (sz8_class, 65, 7), (psu3_4_class, 65, 3)):
        labels = sylow_partition(cls)
        sizes = np.bincount(labels)
        assert len(sizes) == m
        assert (sizes == r).all()


def test_sampled_orders(sz8_class):
    stats = gr.sampled_order_check(sz8_class, 5000, seed=11)
    assert stats["pairs"] == 5000
    assert stats["noncommuting_all_odd"]
    assert set(stats["census"]) <= {1, 2, 5, 7, 13}


def test_deterministic_class_order(psu3_4_class):
    again = involution_class(make_group("psu3", 2))
    assert np.array_equal(again.codes, psu3_4_class.codes)


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("sz", 3), ("psu3", 2)])
def test_orbital_census_equals_full_scan(family, n):
    cls = involution_class(make_group(family, n))
    orbital = gr.orbital_order_census(cls)
    scan = gr.full_order_scan(cls)
    assert orbital.census == scan.census
    assert orbital.max_order == scan.max_order
    assert orbital.noncommuting_all_odd == scan.noncommuting_all_odd
    assert orbital.n_pairs == scan.n_pairs == cls.size * (cls.size - 1) // 2


def test_orbital_census_reports_even_orders(psl2_8_class, monkeypatch):
    # a kernel that doubles every order must show up as a failed dichotomy
    real = gr._batch_orders
    monkeypatch.setattr(gr, "_batch_orders", lambda *a: 2 * real(*a))
    orbital = gr.orbital_order_census(psl2_8_class)
    assert not orbital.noncommuting_all_odd
    i, j, order = orbital.even_witness
    assert i == 0 and order > 2 and order % 2 == 0


def test_closed_class_check_accepts_built_classes(psl2_8_class, sz8_class, psu3_4_class):
    for cls in (psl2_8_class, sz8_class, psu3_4_class):
        gr.check_closed_class(cls)


def test_closed_class_check_rejects_missing_seed(psl2_8_class):
    codes = psl2_8_class.codes.copy()
    codes[0] = codes[1]  # the seed is row 0
    cls = gr.InvolutionClass(psl2_8_class.spec, codes)
    with pytest.raises(ClassSizeMismatch):
        gr.check_closed_class(cls)


def test_sylow_partition_names_a_witness(psl2_8_class):
    from fgl import bits
    masks = psl2_8_class.pair_masks()
    comm = masks.comm.copy()
    y = int(bits.indices(comm[0], psl2_8_class.size)[0])
    comm[0] = 0  # vertex 0 commutes with nothing, though its partners commute with it
    cls = gr.InvolutionClass(psl2_8_class.spec, psl2_8_class.codes)
    cls._pair_masks = gr.PairMasks(comm=comm, chi=masks.chi)
    with pytest.raises(gr.NotAnEquivalence) as ei:
        sylow_partition(cls)
    assert ei.value.witness == (y, 0, y)
