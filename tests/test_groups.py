import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgl.groups as gr
from fgl import bits
from fgl.formulas import InvalidQ
from fgl.groups import (ClassSizeMismatch, GroupSpec, SzEvenExponent,
                        canonicalize, check_group_form, encode, generators,
                        identity, involution_class, make_group, mat_det,
                        mat_inv_det1, mat_mul, mat_scale, reversal,
                        seed_involution, sylow_partition)
from fgl.fusion import PiSpec, build_fusion_graph
from oracles import (carried_rows, element_order, full_generators,
                     involution_class_by_dict, product_order, psu3_unitriangular_scan,
                     vertex_index)


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
    scanned = set(psu3_unitriangular_scan(spec))
    assert len(scanned) == spec.q ** 3
    # independent closed form: z = x^q and y + y^q = x^(q+1)
    derived = set()
    for x in ctx.elements():
        for y in ctx.elements():
            if ctx.add(y, ctx.frobenius(y, spec.n)) == ctx.pow(x, spec.q + 1):
                derived.add(((1, 0, 0), (x, 1, 0), (y, ctx.frobenius(x, spec.n), 1)))
    assert scanned == derived


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
        keys = [cls.encoding(i) for i in range(cls.size)]
        assert keys == sorted(set(keys))
        assert cls.member(0) == canonicalize(cls.spec, seed_involution(cls.spec))
        again = gr.closed_class(cls.spec, cls.codes)
        assert np.array_equal(again.perms, cls.perms)


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
    vertex = vertex_index(cls)
    for i in (0, 1, 17, 62):
        assert vertex[encode(cls.spec, canonicalize(cls.spec, cls.member(i)))] == i


def test_every_member_is_an_involution(sz8_class):
    spec = sz8_class.spec
    for i in range(0, sz8_class.size, 37):
        m = sz8_class.member(i)
        assert element_order(spec, m) == 2
        check_group_form(spec, m)


def test_conjugation_closure(psl2_8_class):
    cls = psl2_8_class
    spec = cls.spec
    vertex = vertex_index(cls)
    for g in generators(spec):
        gi = mat_inv_det1(spec.ctx, g)
        for i in range(cls.size):
            c = mat_mul(spec.ctx, gi, mat_mul(spec.ctx, cls.member(i), g))
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
    with pytest.raises(ClassSizeMismatch, match="search key"):
        involution_class(sz8_class.spec)
    with pytest.raises(ClassSizeMismatch, match="search key"):
        gr.closed_class(sz8_class.spec, sz8_class.codes)


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_class_matches_the_dict_oracle(family, n):
    spec = make_group(family, n)
    codes, perms = involution_class_by_dict(spec)
    cls = involution_class(spec)
    assert cls.codes.dtype == codes.dtype and np.array_equal(cls.codes, codes)
    assert np.array_equal(cls.perms, perms)


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
    for s in gr.schreier_generators(cls):
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
    # all of them generate the stabiliser; the stop rule lost no suborbit
    assert np.array_equal(root, gr.stabiliser_suborbits(cls))


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


def test_a_permutation_moving_vertex_0_is_refused(psl2_8_class, monkeypatch):
    v = psl2_8_class.size
    forged = np.roll(np.arange(v, dtype=np.int32), 1)
    with pytest.raises(gr.NotInStabiliser, match="moves vertex 0"):
        gr.merge_suborbits(np.arange(v, dtype=np.int32), forged)
    monkeypatch.setattr(gr, "schreier_generators", lambda cls: iter([forged]))
    with pytest.raises(gr.NotInStabiliser):
        gr.orbital_order_census(gr.closed_class(psl2_8_class.spec, psl2_8_class.codes))


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
    assert len(np.unique(gr.stabiliser_suborbits(cls))) == 2 * q - 2
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


def test_closed_class_check_rejects_missing_seed(psl2_8_class):
    codes = psl2_8_class.codes.copy()
    codes[0] = 0  # the seed is row 0; the zero matrix keeps the rows sorted
    with pytest.raises(ClassSizeMismatch, match="seed"):
        gr.closed_class(psl2_8_class.spec, codes)


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


def test_carry_blocks_chunk_carry(psu3_4_class, monkeypatch):
    # the chunks are consecutive, cover xs, and unpack to at most
    # ROW_BLOCK_BITS entries each
    cls = psu3_4_class
    monkeypatch.setattr(bits, "ROW_BLOCK_BITS", 1000)
    xs = np.arange(cls.size)[::-1]
    chi = cls.seed_sets().chi
    chunks = list(cls.carry_blocks(xs, chi))
    assert len(chunks) > 1
    assert all(len(c) * cls.size <= 1000 for c, _ in chunks)
    assert np.array_equal(np.concatenate([c for c, _ in chunks]), xs)
    assert np.array_equal(np.concatenate([im for _, im in chunks]), cls.carry(xs, chi))


def test_schreier_tree_spans_the_class(psu3_4_class):
    cls = gr.closed_class(psu3_4_class.spec, psu3_4_class.codes)
    perms = cls.perms
    parent, label, levels = cls.schreier_tree()
    assert sorted(np.concatenate(levels).tolist()) == list(range(cls.size))
    x = np.concatenate(levels[1:])
    assert np.array_equal(perms[label[x], parent[x]], x)
    # each generator permutes the vertices exactly as conjugation does
    spec = cls.spec
    vertex = vertex_index(cls)
    for t in (0, len(perms) - 1):
        g = generators(spec)[t]
        gi = mat_inv_det1(spec.ctx, g)
        for i in (0, 7, cls.size - 1):
            c = mat_mul(spec.ctx, gi, mat_mul(spec.ctx, cls.member(i), g))
            assert vertex[encode(spec, canonicalize(spec, c))] == perms[t, i]


def test_fusion_graph_rejects_a_non_member(psl2_8_class):
    codes = psl2_8_class.codes.copy()
    codes[-1] = psl2_8_class.spec.q - 1  # determinant 0, the greatest encoding
    with pytest.raises(ClassSizeMismatch, match="not closed"):
        gr.closed_class(psl2_8_class.spec, codes)


def test_fusion_graph_rejects_intransitive_generators(psl2_8_class, monkeypatch):
    # the unipotents (a Sylow 2-subgroup) map the class into itself, so the
    # closure check passes, but they move the seed through only q = 8 vertices
    spec = psl2_8_class.spec
    unipotents = generators(spec)[:-1]
    monkeypatch.setattr(gr, "generators", lambda s: unipotents)
    cls = gr.closed_class(spec, psl2_8_class.codes)
    with pytest.raises(ClassSizeMismatch, match="8 of 63"):
        build_fusion_graph(cls, PiSpec.odd_complement())


def test_cross_check_names_a_differing_pair(psl2_8_class):
    sets = psl2_8_class.seed_sets()
    assert gr.cross_check_rows(psl2_8_class, sets, (31, 62)) is None
    # one vertex added to N(0) lands at its image under sigma_31 in row 31
    w = int(np.setdiff1d(np.arange(1, psl2_8_class.size), np.union1d(sets.comm, sets.chi))[0])
    tampered = gr.SeedSets(comm=sets.comm, chi=np.union1d(sets.chi, [w]))
    y = int(psl2_8_class.carry([31], [w])[0, 0])
    assert gr.cross_check_rows(psl2_8_class, tampered, (31, 62)) == (31, y)
    assert gr.cross_check_rows(psl2_8_class, tampered, (62,))[0] == 62
