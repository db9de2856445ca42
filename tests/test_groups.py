import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgl.groups as gr
from fgl import bits
from fgl.formulas import InvalidQ
from fgl.groups import (ClassSizeMismatch, SzEvenExponent,
                        check_group_form, generators, involution_class,
                        make_group, reversal, seed_involution, sylow_partition)
from oracles import (canonicalize, carried_rows, element_order, encode, full_generators,
                     identity, involution_class_by_dict, least_scaling, mat_det,
                     mat_inv_det1, mat_mul, mat_scale, member, product_order,
                     psu3_unitriangular_scan, schreier_generators, schreier_suborbits,
                     sigma_along_tree, vertex_index)


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
    check_group_form(psl2_4, gens)


def test_sz_unipotent_family_closed():
    spec = make_group("sz", 3)
    fam = {gr._sz_unipotent(spec, a, b)
           for a in range(spec.ctx.order) for b in range(spec.ctx.order)}
    assert len(fam) == spec.q ** 2
    check_group_form(spec, list(fam))
    # closed under multiplication, and S(0, b) are involutions
    for s1 in fam:
        for s2 in list(fam)[:8]:
            assert mat_mul(spec.ctx, s1, s2) in fam
    for b in range(1, spec.q):
        s = gr._sz_unipotent(spec, 0, b)
        assert mat_mul(spec.ctx, s, s) == identity(4)


def test_psu3_unipotent_scan_matches_derived_condition():
    spec = make_group("psu3", 2)
    ctx = spec.ctx
    scanned = set(psu3_unitriangular_scan(spec))
    assert len(scanned) == spec.q ** 3
    # independent closed form: z = x^q and y + y^q = x^(q+1)
    derived = set()
    for x in range(ctx.order):
        for y in range(ctx.order):
            if y ^ ctx.frobenius(y, spec.n) == ctx.pow(x, spec.q + 1):
                derived.add(((1, 0, 0), (x, 1, 0), (y, ctx.frobenius(x, spec.n), 1)))
    assert scanned == derived


@pytest.mark.parametrize("family,n", [("psl2", 3), ("sz", 3), ("psu3", 2)])
def test_sylow_unipotents_are_a_sylow_subgroup_and_its_centre(family, n):
    spec = make_group(family, n)
    unip, centre = gr.sylow_unipotents(spec)
    assert len(unip) == len(set(unip)) == spec.q ** spec.l
    assert unip[0] == identity(spec.dim)
    check_group_form(spec, unip)
    # closed under products, so a group of the Sylow 2-subgroup's order
    assert {mat_mul(spec.ctx, a, b) for a in unip for b in unip} == set(unip)
    assert len(centre) == len(set(centre)) == spec.q - 1
    assert set(centre) <= set(unip) - {identity(spec.dim)}
    for z in centre:
        assert mat_mul(spec.ctx, z, z) == identity(spec.dim)
        for u in unip:
            assert mat_mul(spec.ctx, z, u) == mat_mul(spec.ctx, u, z)
    if family == "psu3":
        assert set(unip) == set(psu3_unitriangular_scan(spec))


@pytest.mark.parametrize("family,n,count", [
    ("psl2", 2, 3), ("psl2", 6, 7), ("sz", 3, 8), ("sz", 5, 12), ("sz", 7, 16),
    ("psu3", 2, 7), ("psu3", 3, 10), ("psu3", 4, 13), ("psu3", 5, 16)])
def test_generating_sets_are_small_and_distinct(family, n, count):
    # n + 1 for PSL2, 2n + 2 for Sz, 3n + 1 for PSU3
    gens = generators(make_group(family, n))
    assert len(gens) == len(set(gens)) == count


@pytest.mark.parametrize("family,n", [("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_full_generating_sets_give_the_same_class(family, n, monkeypatch, tmp_path):
    # the vertex numbering, and so the class cache, is the same whichever
    # generating set closes the orbit
    from fgl import pipeline
    spec = make_group(family, n)
    small = pipeline.load_or_build_class(spec, str(tmp_path / "small"))
    full = full_generators(spec)
    assert len(full) == {"sz": spec.q ** 2 + 1, "psu3": spec.q ** 3}[family]
    monkeypatch.setattr(gr, "generators", lambda s: full)
    big = pipeline.load_or_build_class(spec, str(tmp_path / "full"))
    assert big.codes.dtype == small.codes.dtype
    assert big.codes.tobytes() == small.codes.tobytes()
    name = f"{family}-n{n}-v{pipeline.CODE_VERSION}.npy"
    assert (tmp_path / "small" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_vertices_numbered_by_encoding(psl2_8_class, sz8_class, psu3_4_class):
    # strictly increasing encodings; the seed is the least one, so vertex 0;
    # the closure's permutations are those closed_class finds
    for cls in (psl2_8_class, sz8_class, psu3_4_class):
        keys = [encode(cls.spec, member(cls, i)) for i in range(cls.size)]
        assert keys == sorted(set(keys))
        assert member(cls, 0) == canonicalize(cls.spec, seed_involution(cls.spec))
        again = gr.closed_class(cls.spec, cls.codes)
        assert np.array_equal(again.perms, cls.perms)


def test_form_rejections(psl2_4):
    with pytest.raises(gr.NotInGroupForm, match="expected 2x2 matrices"):
        check_group_form(psl2_4, [((1, 0), (1, 1), (0, 0))])
    with pytest.raises(gr.NotInGroupForm, match="entry out of field range"):
        check_group_form(psl2_4, [((1, 4), (0, 1))])
    with pytest.raises(gr.NotInGroupForm, match="determinant is not 1"):
        check_group_form(psl2_4, [((1, 0), (0, 1)), ((1, 1), (1, 1))])  # det 0
    spec = make_group("sz", 3)
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    bad = (eye[0], eye[1], eye[2], (0, 1, 0, 1))  # det 1 but not symplectic
    with pytest.raises(gr.NotInGroupForm, match="invariant form not preserved"):
        check_group_form(spec, [bad])


def test_form_check_refuses_a_unitary_scalar_of_determinant_not_1():
    # at q = 4 a fifth root of unity w has w^(q+1) = 1, so w*I preserves
    # the Hermitian form; only its determinant w^3 keeps it out of SU3
    spec = make_group("psu3", 2)
    ctx, kern = spec.ctx, gr._Kernels(spec)
    w = next(e for e in range(2, ctx.order) if ctx.pow(e, 5) == 1)
    x = np.array([[[w if i == j else 0 for j in range(3)] for i in range(3)]], dtype=kern.dtype)
    assert np.array_equal(kern.mul_batch(kern.inverse(x), x)[0], np.eye(3, dtype=kern.dtype))
    assert kern.det(x)[0] == ctx.pow(w, 3) != 1
    with pytest.raises(gr.NotInGroupForm, match="determinant is not 1"):
        check_group_form(spec, x)


@pytest.mark.parametrize("family,n", [("psl2", 3), ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_inverse_and_det_kernels_match_the_adjugate_and_the_leibniz_sum(family, n):
    spec = make_group(family, n)
    kern = gr._Kernels(spec)
    ms = generators(spec) + gr.sylow_unipotents(spec)[0]
    x = np.array(ms, dtype=kern.dtype)
    assert kern.det(x).tolist() == [mat_det(spec.ctx, m) for m in ms] == [1] * len(ms)
    assert [tuple(map(tuple, g)) for g in kern.inverse(x).tolist()] == \
        [mat_inv_det1(spec.ctx, m) for m in ms]
    # the determinant of matrices outside the group, which the form check reads
    rng = np.random.default_rng(n)
    y = rng.integers(0, spec.ctx.order, size=(60, spec.dim, spec.dim)).astype(kern.dtype)
    assert kern.det(y).tolist() == [mat_det(spec.ctx, m) for m in y.tolist()]


@pytest.mark.parametrize("family,n", [("psl2", 11), ("psl2", 15), ("psu3", 6), ("psu3", 7)])
def test_kernels_above_the_dense_table_match_the_oracles(family, n):
    # fields above GF(1024) multiply by the log gather alone; no class is built
    spec = make_group(family, n)
    kern = gr._Kernels(spec)
    assert kern.full is None
    gens = generators(spec)  # form-checked: det, inverse and mul_batch
    rng = np.random.default_rng(n)

    def word():
        m = identity(spec.dim)
        for i in rng.integers(0, len(gens), 8):
            m = mat_mul(spec.ctx, m, gens[i])
        return m

    def as_tuples(arr):
        return [tuple(map(tuple, m)) for m in arr.tolist()]

    xs, ys = [word() for _ in range(50)], [word() for _ in range(50)]
    x, y = np.array(xs, dtype=kern.dtype), np.array(ys, dtype=kern.dtype)
    assert as_tuples(kern.mul_batch(x, y)) == [mat_mul(spec.ctx, a, b) for a, b in zip(xs, ys)]
    assert as_tuples(kern.inverse(x)) == [mat_inv_det1(spec.ctx, a) for a in xs]
    assert as_tuples(kern.canonical_batch(x)[0]) == [least_scaling(spec, a) for a in xs]


@pytest.mark.parametrize("seed", [((1, 0), (0, 1)), ((0, 1), (1, 1))])
def test_a_seed_that_is_not_an_involution_is_refused(seed, monkeypatch):
    # the identity is central; ((0, 1), (1, 1)) has order 3.  Both pass the form check
    monkeypatch.setattr(gr, "seed_involution", lambda spec: seed)
    with pytest.raises(gr.SeedNotInvolution):
        involution_class(make_group("psl2", 2))


def test_a_generator_off_the_form_is_refused(monkeypatch, capsys):
    from fgl.cli import main
    spec = make_group("sz", 3)
    # diag(2, 2^-1, 1, 1) has det 1 but moves the form: a diagonal matrix
    # preserves it only when its entries 1 and 4, and 2 and 3, multiply to 1
    torus = tuple(tuple(e if i == j else 0 for j in range(4))
                  for i, e in enumerate((2, spec.ctx.inv(2), 1, 1)))
    monkeypatch.setattr(gr, "_sz_torus", lambda s: torus)
    with pytest.raises(gr.GeneratorValidationFailed,
                       match="^generator fails form check: invariant form not preserved$"):
        generators(spec)
    assert main(["verify", "--family", "sz", "--n", "3"]) == 3
    assert capsys.readouterr().err.startswith("construction error: generator fails form check:")


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


@pytest.mark.parametrize("n", [3, 5, 7])
def test_canonical_batch_is_the_least_centre_scaling(n):
    # the centre has order 3; codes are 1 byte at n = 3, 2 bytes at n = 5, 7
    spec = make_group("psu3", n)
    assert len(spec.center) == 3
    kern = gr._Kernels(spec)
    rng = np.random.default_rng(n)
    ms = rng.integers(0, spec.ctx.order, size=(240, 3, 3)).astype(kern.dtype)
    ms[rng.random(ms.shape) < 0.5] = 0  # leading entries at every position
    ms[::4, 0] = 0
    ms[1::4, :2] = 0  # leading zero rows
    ms[~ms.any(axis=(1, 2)), 2, 2] = 1
    codes, keys = kern.canonical_batch(ms)
    for z in spec.center[1:]:
        again = kern.canonical_batch(kern.scale(z, ms))
        assert np.array_equal(again[0], codes) and np.array_equal(again[1], keys)
    for m, row, key in zip(ms, codes, keys):
        least = least_scaling(spec, tuple(map(tuple, m.tolist())))
        assert tuple(map(tuple, row.tolist())) == least
        want = gr._word_keys(np.frombuffer(encode(spec, least), dtype=np.uint8)[None])
        assert np.array_equal(key, want[0])


def test_encodings_match_the_oracle_on_two_byte_codes():
    # psl2 n=9 has 2-byte codes; construct's sidecar hexes these rows
    cls = involution_class(make_group("psl2", 9))
    rows = gr.encodings(cls.codes)
    assert rows.shape == (cls.size, 8)
    want = b"".join(encode(cls.spec, member(cls, i)) for i in range(cls.size))
    assert rows.tobytes() == want


def test_class_sizes_and_indexing(psl2_8_class, sz8_class, psu3_4_class):
    assert involution_class(make_group("psl2", 2)).size == 15
    assert psl2_8_class.size == 63
    assert sz8_class.size == 455
    assert psu3_4_class.size == 195
    # index is consistent with members
    cls = psl2_8_class
    vertex = vertex_index(cls)
    for i in (0, 1, 17, 62):
        assert vertex[encode(cls.spec, canonicalize(cls.spec, member(cls, i)))] == i


def test_every_member_is_an_involution(sz8_class):
    spec = sz8_class.spec
    for i in range(0, sz8_class.size, 37):
        m = member(sz8_class, i)
        assert element_order(spec, m) == 2
        check_group_form(spec, [m])


def test_conjugation_closure(psl2_8_class):
    cls = psl2_8_class
    spec = cls.spec
    vertex = vertex_index(cls)
    for g in generators(spec):
        gi = mat_inv_det1(spec.ctx, g)
        for i in range(cls.size):
            c = mat_mul(spec.ctx, gi, mat_mul(spec.ctx, member(cls, i), g))
            assert vertex[encode(spec, canonicalize(spec, c))] >= 0


def test_class_size_contract_catches_bad_generators(monkeypatch):
    spec = make_group("psl2", 2)
    small = [((0, 1), (1, 0)), ((1, 1), (0, 1))]  # generates only a subgroup over GF(2)
    monkeypatch.setattr(gr, "generators", lambda s: small)
    with pytest.raises(ClassSizeMismatch):
        involution_class(spec)


def test_make_group_refuses_classes_beyond_int32_vertex_ids():
    for family, n in (("psl2", 16), ("sz", 11), ("sz", 13), ("psu3", 8)):
        with pytest.raises(InvalidQ, match="int32"):
            make_group(family, n)
    for family, n in (("psl2", 15), ("sz", 9), ("psu3", 7)):
        assert make_group(family, n).class_size() < 2 ** 31


# widths of the encodings: psl2 (n <= 8), psu3 (n <= 4), sz (n <= 8), psu3 (n >= 5)
@given(st.data())
@settings(max_examples=80, deadline=None)
def test_word_key_order_is_the_byte_order(data):
    width = data.draw(st.sampled_from([4, 9, 16, 18]))
    byte = st.sampled_from([0, 1, 2, 127, 128, 254, 255])  # few values, so prefixes repeat
    rows = data.draw(st.lists(st.lists(byte, min_size=width, max_size=width), max_size=24))
    keys = np.array(rows, dtype=np.uint8).reshape(len(rows), width)
    order = np.lexsort(gr._word_keys(keys).T[::-1])
    assert order.tolist() == sorted(range(len(rows)), key=lambda i: bytes(rows[i]))


def test_a_fold_collision_raises_instead_of_merging(sz8_class, monkeypatch):
    monkeypatch.setattr(gr, "_fold", lambda words: np.zeros(len(words), dtype=np.uint64))
    with pytest.raises(ClassSizeMismatch, match="sort key"):
        involution_class(sz8_class.spec)
    with pytest.raises(ClassSizeMismatch, match="sort key"):
        gr.closed_class(sz8_class.spec, sz8_class.codes)


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_class_matches_the_dict_oracle(family, n):
    spec = make_group(family, n)
    codes, perms = involution_class_by_dict(spec)
    cls = involution_class(spec)
    assert cls.codes.dtype == codes.dtype and np.array_equal(cls.codes, codes)
    assert np.array_equal(cls.perms, perms)


@pytest.mark.parametrize("block", [1, 7, 100])
def test_class_blocks_give_the_same_class(psl2_8_class, sz8_class, psu3_4_class,
                                          monkeypatch, block):
    # the enumeration and the closure pass run CLASS_BLOCK rows at a time;
    # psl2 n=3 keys are 1 word, sz n=3 and psu3 n=2 keys 2 words
    monkeypatch.setattr(gr, "CLASS_BLOCK", block)
    for whole in (psl2_8_class, sz8_class, psu3_4_class):
        cls = involution_class(whole.spec)
        assert np.array_equal(cls.codes, whole.codes)
        assert np.array_equal(cls.perms, whole.perms)


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


def test_carried_seed_sets_equal_order_masks(sz8_class):
    sets = sz8_class.seed_sets()
    scan = gr.full_order_scan(sz8_class)
    assert np.array_equal(carried_rows(sz8_class, sets.comm), scan.comm)
    assert np.array_equal(carried_rows(sz8_class, sets.chi), scan.chi)


def test_pair_predicates_partition_all_pairs(psl2_8_class, sz8_class):
    # equal / commuting / distinguished / odd-other is a partition of pairs
    for cls in (psl2_8_class, sz8_class):
        sets = cls.seed_sets()
        comm, chi = carried_rows(cls, sets.comm), carried_rows(cls, sets.chi)
        assert not (comm & chi).any()
        counts = bits.popcount(comm).sum() + bits.popcount(chi).sum()
        scan = cls.order_scan()
        other = sum(c for o, c in scan.census.items() if o not in (2, cls.spec.chi))
        assert counts // 2 + other == cls.size * (cls.size - 1) // 2


def test_power_rows_equal_the_order_scan(psl2_8_class, sz8_class, psu3_4_class):
    # the direct rows of cross_check_rows, P^5 = P^3 P^2 central for Sz
    for cls in (psl2_8_class, sz8_class, psu3_4_class):
        scan = cls.order_scan()
        for x in (0, 1, cls.size // 2, cls.size - 1):
            comm, chi = gr._power_rows(cls, x)
            assert np.array_equal(np.flatnonzero(comm), bits.indices(scan.comm[x], cls.size))
            assert np.array_equal(np.flatnonzero(chi), bits.indices(scan.chi[x], cls.size))


def test_suborbit_table_holds_row_0_orders(psl2_8_class, sz8_class, psu3_4_class):
    # every member of a class has its representative's order (scalar oracle)
    for cls in (psl2_8_class, sz8_class, psu3_4_class):
        table, row = cls.suborbits(), _row0_orders(cls)
        assert table.root[0] == 0 and 0 not in table.reps
        assert np.array_equal(table.root[table.reps], table.reps)
        assert np.array_equal(np.bincount(table.root)[table.reps], table.sizes)
        assert np.array_equal(table.spread(table.orders)[1:], row[1:])


def test_product_order_diagonal_and_commuting(psu3_4_class):
    cls = psu3_4_class
    spec = cls.spec
    assert product_order(spec, 5, 5, cls) == 1
    scan = cls.order_scan()
    x = 0
    y = int(bits.indices(scan.comm[x], cls.size)[0])
    assert product_order(spec, x, y, cls) == 2
    z = int(bits.indices(scan.chi[x], cls.size)[0])
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
    sets = cls.seed_sets()
    assert np.array_equal(carried_rows(cls, sets.comm), scan.comm)
    assert np.array_equal(carried_rows(cls, sets.chi), scan.chi)


def test_orbital_census_reports_even_orders(psl2_8_class, monkeypatch):
    # a kernel that doubles every order must show up as a failed dichotomy;
    # a fresh class, since the fixture's may hold a suborbit table already
    real = gr._batch_orders
    monkeypatch.setattr(gr, "_batch_orders", lambda *a: 2 * real(*a))
    orbital = gr.orbital_order_census(gr.closed_class(psl2_8_class.spec, psl2_8_class.codes))
    assert not orbital.noncommuting_all_odd
    i, j, order = orbital.even_witness
    assert i == 0 and order > 2 and order % 2 == 0


def _row0_orders(cls):
    """Orders of vertex 0's products with every vertex, by scalar powers;
    v/2 times their census must be full_order_scan's."""
    row = np.array([product_order(cls.spec, 0, y, cls) for y in range(cls.size)])
    values, counts = np.unique(row[1:], return_counts=True)
    assert {int(o): cls.size * int(c) // 2 for o, c in zip(values, counts)} == \
        gr.full_order_scan(cls).census
    return row


@pytest.mark.parametrize("family,n", [("psl2", 4), ("sz", 3), ("psu3", 2)])
def test_stabiliser_permutations_fix_vertex_0_and_keep_orders(family, n):
    # every Schreier generator, over all vertices u, not only those merged
    cls = involution_class(make_group(family, n))
    v = cls.size
    row = _row0_orders(cls)
    root = np.arange(v, dtype=np.int32)
    made = []
    for s in schreier_generators(cls):
        assert s[0] == 0
        assert np.array_equal(np.sort(s), np.arange(v))
        assert np.array_equal(row[s], row)
        root, _ = gr.merge_suborbits(root, s)
        made.append(s.tobytes())
    # they are sigma_g(u)^-1 g sigma_u over all (u, g), identities left out
    sigma = cls.carry(np.arange(v), np.arange(v))
    every = np.arange(v, dtype=sigma.dtype)
    want = []
    for g in cls.perms:
        for u in range(v):
            s = np.argsort(sigma[g[u]])[g[sigma[u]]].astype(sigma.dtype)
            if not np.array_equal(s, every):
                want.append(s.tobytes())
    assert sorted(made) == sorted(want)
    # all of them generate the stabiliser; the stop rule lost no suborbit,
    # and the conjugated Sylow generators find the same suborbits
    assert np.array_equal(root, schreier_suborbits(cls))
    sylow = gr.stabiliser_suborbits(cls)
    assert np.array_equal(root, sylow)
    assert np.array_equal(row[sylow], row)


def test_census_witness_is_the_least_vertex_of_row_0(monkeypatch):
    cls = involution_class(make_group("psl2", 4))
    row = _row0_orders(cls)
    top = int(row.max())
    real = gr._batch_orders
    monkeypatch.setattr(gr, "_batch_orders",
                        lambda *a: (lambda o: np.where(o == top, 2 * o, o))(real(*a)))
    orbital = gr.orbital_order_census(cls)
    assert orbital.even_witness == (0, int(np.argmax(row == top)), 2 * top)
    assert orbital.even_gt2_pairs == cls.size * int((row == top).sum()) // 2


def test_a_permutation_moving_vertex_0_is_refused(psl2_8_class):
    v = psl2_8_class.size
    forged = np.roll(np.arange(v, dtype=np.int32), 1)
    with pytest.raises(gr.NotInStabiliser, match="moves vertex 0"):
        gr.merge_suborbits(np.arange(v, dtype=np.int32), forged)
    # a wrong sigma: carry returns the identity, so sigma does not take 0 to
    # the vertex the Sylow generators fix, and their conjugates move 0
    cls = gr.closed_class(psl2_8_class.spec, psl2_8_class.codes)
    cls.carry = lambda xs, seed: np.tile(np.asarray(seed), (len(xs), 1))
    with pytest.raises(gr.NotInStabiliser, match="moves vertex 0"):
        gr.orbital_order_census(cls)


def test_a_sylow_prefix_fixing_no_vertex_is_refused(psl2_8_class, monkeypatch):
    # the prefix takes in the reversal, which fixes no involution of Z(U*)
    monkeypatch.setattr(gr, "sylow_generator_count", lambda spec: spec.n + 1)
    cls = gr.closed_class(psl2_8_class.spec, psl2_8_class.codes)
    with pytest.raises(ClassSizeMismatch, match="no vertex is fixed by all 4 Sylow generators"):
        gr.orbital_order_census(cls)


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("psl2", 6), ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_sylow_generators_fix_one_commuting_class(family, n):
    spec = make_group(family, n)
    k = gr.sylow_generator_count(spec)
    assert len(generators(spec)) == k + (2 if family == "sz" else 1)
    cls = involution_class(spec)
    fixed = np.flatnonzero((cls.perms[:k] == np.arange(cls.size)).all(axis=0))
    assert len(fixed) == spec.q - 1
    labels = cls.sylow_labels()
    assert np.array_equal(np.flatnonzero(labels == labels[fixed[0]]), fixed)


@pytest.mark.parametrize("seed", range(6))
def test_merged_classes_are_the_orbits(seed):
    # against a plain union-find over random permutations fixing 0
    rng = np.random.default_rng(seed)
    v = int(rng.integers(2, 60))
    root = np.arange(v, dtype=np.int32)
    parent = list(range(v))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _ in range(int(rng.integers(1, 5))):
        moved = 1 + np.flatnonzero(rng.random(v - 1) < rng.random())
        s = np.arange(v, dtype=np.int32)
        s[moved] = rng.permutation(moved)
        before = root
        root, joined = gr.merge_suborbits(root, s)
        for y in range(v):
            a, b = find(y), find(int(s[y]))
            parent[max(a, b)] = min(a, b)
        assert joined == (not np.array_equal(before, root))
    assert root.tolist() == [min(x for x in range(v) if find(x) == find(y))
                             for y in range(v)]


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("psl2", 6), ("psl2", 7), ("psl2", 8), ("psl2", 9),
                                      ("sz", 3), ("sz", 5), ("psu3", 2), ("psu3", 3),
                                      ("psu3", 4)])
def test_census_takes_one_product_per_suborbit(family, n, monkeypatch):
    cls = involution_class(make_group(family, n))
    q = cls.spec.q
    root = gr.stabiliser_suborbits(cls)
    assert len(np.unique(root)) == 2 * q - 2
    assert np.array_equal(root, schreier_suborbits(cls))
    seen = []
    real = gr._batch_orders
    monkeypatch.setattr(gr, "_batch_orders",
                        lambda kern, p, cap: seen.append(len(p)) or real(kern, p, cap))
    gr.orbital_order_census(cls)
    assert seen == [2 * q - 3]


def test_closed_class_check_accepts_built_classes(psl2_8_class, sz8_class, psu3_4_class):
    for cls in (psl2_8_class, sz8_class, psu3_4_class):
        assert np.array_equal(gr.closed_class(cls.spec, cls.codes).perms, cls.perms)


@pytest.mark.parametrize("swap", [(1, 2), (0, 62), (30, 31)])
def test_closed_class_check_rejects_reordered_rows(psl2_8_class, swap):
    # the same rows in another order are the same set, closed and holding
    # the seed, but they would give the vertices other ids
    codes = psl2_8_class.codes.copy()
    codes[list(swap)] = codes[list(swap[::-1])]
    with pytest.raises(ClassSizeMismatch, match="reordered"):
        gr.closed_class(psl2_8_class.spec, codes)


def test_closed_class_check_rejects_missing_seed(psl2_8_class, sz8_class, psu3_4_class):
    # with one-byte codes the seed is row 0; the zero matrix keeps the rows sorted
    for cls in (psl2_8_class, sz8_class, psu3_4_class):
        seed = canonicalize(cls.spec, seed_involution(cls.spec))
        assert cls.codes[0].tolist() == [list(row) for row in seed]
        codes = cls.codes.copy()
        codes[0] = 0
        with pytest.raises(ClassSizeMismatch, match="lacks the canonical seed"):
            gr.closed_class(cls.spec, codes)


def test_sylow_partition_names_a_witness(psl2_8_class):
    # vertex 0 loses one commuting partner, though its other partners keep it
    comm = psl2_8_class.seed_sets().comm
    cls = gr.closed_class(psl2_8_class.spec, psl2_8_class.codes)
    cls._seed_sets = gr.SeedSets(comm=comm[1:], chi=psl2_8_class.seed_sets().chi)
    with pytest.raises(gr.NotAnEquivalence) as ei:
        sylow_partition(cls)
    x, y, z = ei.value.witness
    base = {0, *comm[1:].tolist()}
    carried = {y, *cls.carry([y], comm[1:])[0].tolist()}
    assert x == 0 and y in base and (z in base) != (z in carried)


def test_block_partition_rejects_a_non_block(psl2_8_class):
    # {0} + N(0) in the chi graph is no block: some generator carries it onto
    # a set that meets a known block without being it
    perms = psl2_8_class.perms
    chi = psl2_8_class.seed_sets().chi
    with pytest.raises(gr.NotAnEquivalence) as ei:
        gr.block_partition(perms, np.concatenate([[0], chi]))
    assert len(ei.value.witness) in (1, 3)
    # a Sylow class is a block; the labels are numbered by least member
    labels = gr.block_partition(perms, np.concatenate([[0], psl2_8_class.seed_sets().comm]))
    assert np.array_equal(labels, sylow_partition(psl2_8_class))
    least = np.unique(labels, return_index=True)[1]
    assert (np.diff(least) > 0).all()


def test_carry_follows_the_schreier_tree(psu3_4_class):
    # sigma_x(0) = x, and sigma_x of the seed's partners are x's partners
    cls = psu3_4_class
    xs = np.array([0, 1, cls.size // 2, cls.size - 1])
    assert np.array_equal(cls.carry(xs, [0])[:, 0], xs)
    scan = cls.order_scan()
    sets = cls.seed_sets()
    for x, comm, chi in zip(xs, cls.carry(xs, sets.comm), cls.carry(xs, sets.chi)):
        assert np.array_equal(np.sort(comm), bits.indices(scan.comm[x], cls.size))
        assert np.array_equal(np.sort(chi), bits.indices(scan.chi[x], cls.size))
    assert cls.carry([], sets.chi).shape == (0, len(sets.chi))


def test_carry_copies_no_permutation():
    # perms is a view of steps, whose last row is the identity the tree's
    # root names; carry gathers from steps in place, so carrying one vertex
    # allocates less than the permutations hold
    cls = involution_class(make_group("psl2", 8))
    v, t = cls.size, len(cls.perms)
    assert np.shares_memory(cls.perms, cls.steps) and cls.steps.shape == (t + 1, v)
    assert np.array_equal(cls.steps[-1], np.arange(v))
    assert all(a.dtype == np.int32 for a in cls.tree)
    u = int(np.argmax(cls.tree[2]))
    tracemalloc.start()
    try:
        sigma_u = cls.carry([u], np.arange(v))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cls.perms.nbytes
    assert np.array_equal(sigma_u, sigma_along_tree(cls, u))
    assert sigma_u[0] == u


def test_schreier_tree_spans_the_class(psu3_4_class):
    cls = gr.closed_class(psu3_4_class.spec, psu3_4_class.codes)
    perms = cls.perms
    parent, label, depth = cls.tree
    assert (parent[0], label[0], depth[0]) == (0, len(perms), 0)
    x = np.arange(1, cls.size)
    assert np.array_equal(depth[x], depth[parent[x]] + 1)
    assert np.array_equal(perms[label[x], parent[x]], x)
    # each generator permutes the vertices exactly as conjugation does
    spec = cls.spec
    vertex = vertex_index(cls)
    for t in (0, len(perms) - 1):
        g = generators(spec)[t]
        gi = mat_inv_det1(spec.ctx, g)
        for i in (0, 7, cls.size - 1):
            c = mat_mul(spec.ctx, gi, mat_mul(spec.ctx, member(cls, i), g))
            assert vertex[encode(spec, canonicalize(spec, c))] == perms[t, i]


def test_fusion_graph_rejects_a_non_member(psl2_8_class):
    codes = psl2_8_class.codes.copy()
    codes[-1] = psl2_8_class.spec.q - 1  # determinant 0, the greatest encoding
    with pytest.raises(ClassSizeMismatch, match="not closed"):
        gr.closed_class(psl2_8_class.spec, codes)


def test_fusion_graph_rejects_intransitive_generators(psl2_8_class, monkeypatch):
    # the unipotents (a Sylow 2-subgroup) map the class into itself, so the
    # closure check passes, but they move the seed through only q = 8
    # vertices: closed_class refuses the class before any graph is built
    spec = psl2_8_class.spec
    unipotents = generators(spec)[:-1]
    monkeypatch.setattr(gr, "generators", lambda s: unipotents)
    with pytest.raises(ClassSizeMismatch, match="8 of 63"):
        gr.closed_class(spec, psl2_8_class.codes)
    with pytest.raises(ClassSizeMismatch, match="8 of 63"):
        involution_class(spec)


def test_cross_check_names_a_differing_pair(psl2_8_class):
    sets = psl2_8_class.seed_sets()
    assert gr.cross_check_rows(psl2_8_class, sets, (31, 62)) is None
    # one vertex added to N(0) lands at its image under sigma_31 in row 31
    w = int(np.setdiff1d(np.arange(1, psl2_8_class.size), np.union1d(sets.comm, sets.chi))[0])
    tampered = gr.SeedSets(comm=sets.comm, chi=np.union1d(sets.chi, [w]))
    y = int(psl2_8_class.carry([31], [w])[0, 0])
    assert gr.cross_check_rows(psl2_8_class, tampered, (31, 62)) == (31, y)
    assert gr.cross_check_rows(psl2_8_class, tampered, (62,))[0] == 62
