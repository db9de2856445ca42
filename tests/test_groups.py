import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgl.groups as gr
from fgl import bits
from fgl.formulas import InvalidQ
from fgl.fusion import seed_set_cover3_certificate
from fgl.gf2 import FieldCtx
from fgl.groups import (ClassSizeMismatch, SzEvenExponent,
                        check_group_form, generators, involution_class,
                        make_group, reversal, seed_involution, sylow_partition)
from oracles import (block_partition_breadth_first, canonicalize, carried_rows,
                     element_order, encode, full_generators, identity,
                     involution_class_by_dict, least_scaling, mat_det, mat_inv_det1, mat_mul,
                     mat_scale, member, product_order, psu3_unitriangular_scan,
                     schreier_generators, schreier_suborbits, sigma_along_tree,
                     step_matrices, sylow_centre_rows_by_products, vertex_index)


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


@pytest.fixture(scope="module")
def psu3_8_class():
    # q + 1 = 9: the centre has 3 elements
    return involution_class(make_group("psu3", 3))


@pytest.fixture(scope="module")
def psl2_256_class():
    return involution_class(make_group("psl2", 8))


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
    ("psl2", 2, 4), ("psl2", 6, 8), ("sz", 3, 5), ("sz", 5, 7), ("sz", 7, 9),
    ("psu3", 2, 6), ("psu3", 3, 8), ("psu3", 4, 10), ("psu3", 5, 12)])
def test_generating_sets_are_small_and_distinct(family, n, count):
    # three conjugators; n + 2 permutation rows for PSL2 and Sz, 2n + 2 for PSU3
    spec = make_group(family, n)
    gens = generators(spec)
    assert len(gens) == len(set(gens)) == 3
    assert gr.sylow_generator_count(spec) + 2 == len(set(step_matrices(spec))) == count


def _gf2_rank(values) -> int:
    reduced = []  # distinct leading bits, descending
    for value in values:
        for b in reduced:
            value = min(value, value ^ b)
        if value:
            reduced = sorted(reduced + [value], reverse=True)
    return len(reduced)


def _multiplier(family, ctx, q):
    """mu with h^-1 u(a) h = u(mu a) for generators' u and h."""
    lam = ctx._exp[1]
    return {"psl2": ctx.pow(ctx.inv(lam), 2), "sz": 2,
            "psu3": ctx.pow(lam, (2 - q) % (ctx.order - 1))}[family]


@pytest.mark.parametrize("family,n", [("psl2", n) for n in range(2, 17)]
                         + [("sz", n) for n in range(3, 16, 2)]
                         + [("psu3", n) for n in range(2, 9)])
def test_derived_unipotent_parameters_span_the_field(family, n):
    # every field the tables support, beyond the int32 vertex-id limit: the
    # parameters mu^k of u_k, k < sylow_generator_count, are a GF(2)-basis
    degree = 2 * n if family == "psu3" else n
    ctx = FieldCtx(degree)
    mu = _multiplier(family, ctx, 1 << n)
    assert _gf2_rank(ctx.pow(mu, k) for k in range(degree)) == degree


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 5), ("sz", 3), ("sz", 5),
                                      ("psu3", 2), ("psu3", 3), ("psu3", 5)])
def test_step_matrices_are_the_unipotents_of_parameter_mu_power(family, n):
    spec = make_group(family, n)
    ctx, q = spec.ctx, spec.q
    mu, t = _multiplier(family, ctx, q), gr._psu3_trace_one(spec) if family == "psu3" else 0

    def unipotent(a):
        if family == "psl2":
            return ((1, a), (0, 1))
        if family == "sz":
            return gr._sz_unipotent(spec, a, 0)
        return gr._psu3_unipotent(spec, a, ctx.mul(ctx.pow(a, q + 1), t))
    m = gr.sylow_generator_count(spec)
    assert step_matrices(spec)[:m] == [unipotent(ctx.pow(mu, k)) for k in range(m)]


@pytest.mark.parametrize("family,n", [("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_full_generating_sets_give_the_same_class(family, n):
    # every element of the full sets conjugates the library's class into
    # itself; the class holds the seed and is one orbit of a subgroup of
    # theirs, so it is their orbit of the seed too, in the same numbering
    spec = make_group(family, n)
    cls = involution_class(spec)
    full = full_generators(spec)
    assert len(full) == {"sz": spec.q ** 2 + 1, "psu3": spec.q ** 3}[family]
    kern = gr._Kernels(spec)
    words = kern.encode_keys(cls.codes)
    gens = np.array(full, dtype=kern.dtype)
    for gi, g in zip(kern.inverse(gens), gens):
        images = gr._conjugate(kern, gi, g, cls.codes)[1]
        assert len(np.unique(np.concatenate([words, images]), axis=0)) == cls.size


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


def _as_tuples(arr):
    return [tuple(map(tuple, m)) for m in arr.tolist()]


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

    xs, ys = [word() for _ in range(50)], [word() for _ in range(50)]
    x, y = np.array(xs, dtype=kern.dtype), np.array(ys, dtype=kern.dtype)
    assert _as_tuples(kern.mul_batch(x, y)) == [mat_mul(spec.ctx, a, b) for a, b in zip(xs, ys)]
    assert _as_tuples(kern.inverse(x)) == [mat_inv_det1(spec.ctx, a) for a in xs]
    assert _as_tuples(kern.canonical_batch(x)[0]) == [least_scaling(spec, a) for a in xs]


@pytest.mark.parametrize("family,n", [("sz", 3), ("psu3", 3), ("psl2", 9), ("psu3", 5)])
def test_dense_table_kernels_match_the_oracles(family, n):
    # GF(8), GF(64), GF(512) and GF(1024): one- and two-byte codes, flat
    # table indices (a << n) | b up to 2^20 - 1, on random matrices outside
    # the group with zero entries
    spec = make_group(family, n)
    ctx, kern = spec.ctx, gr._Kernels(spec)
    assert kern.full is not None
    rng = np.random.default_rng(n)
    x, y = rng.integers(0, ctx.order, size=(2, 40, spec.dim, spec.dim)).astype(kern.dtype)
    x[rng.random(x.shape) < 0.3] = 0
    y[rng.random(y.shape) < 0.3] = 0
    x[0] = y[0] = ctx.order - 1  # the last table entry
    xs, ys = _as_tuples(x), _as_tuples(y)
    g = xs[1]
    assert _as_tuples(kern.mul_batch(x, y)) == [mat_mul(ctx, a, b) for a, b in zip(xs, ys)]
    assert _as_tuples(kern.mul_left(g, y)) == [mat_mul(ctx, g, b) for b in ys]
    assert _as_tuples(kern.mul_right(x, g)) == [mat_mul(ctx, a, g) for a in xs]
    for z in (0, 1, 2, ctx.order - 1):
        assert _as_tuples(kern.scale(z, x)) == [mat_scale(ctx, z, a) for a in xs]


@pytest.mark.parametrize("family,n", [("psu3", 2), ("psu3", 3), ("psu3", 5)])
def test_projective_equality_is_equality_up_to_the_centre(family, n):
    # on matrices outside the group: z*b matches b exactly for z in the
    # centre (3 elements for n = 3, 5), and no other scalar does
    spec = make_group(family, n)
    ctx, kern = spec.ctx, gr._Kernels(spec)
    rng = np.random.default_rng(n)
    b = rng.integers(0, ctx.order, size=(ctx.order - 1, 3, 3)).astype(kern.dtype)
    b[rng.random(b.shape) < 0.4] = 0
    b[b[:, 1, 1] == 0, 1, 1] = 1  # a leading entry before (2, 2), the one tampered below
    zs = np.arange(1, ctx.order)
    a = np.array([mat_scale(ctx, int(z), m) for z, m in zip(zs, _as_tuples(b))], dtype=kern.dtype)
    assert np.array_equal(kern.projective_equal(a, b), np.isin(zs, spec.center))
    a[:, 2, 2] ^= 1  # off in one entry
    assert not kern.projective_equal(a, b).any()
    scalars = zs[:, None, None] * np.eye(3, dtype=kern.dtype)
    assert np.array_equal(kern.central_scalar_mask(scalars), np.isin(zs, spec.center))
    assert not kern.central_scalar_mask(b[~np.isin(zs, spec.center)]).any()


@pytest.mark.parametrize("family,n", [("psl2", 3), ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_batch_orders_match_the_scalar_oracle(family, n):
    # products of two and of three random members, x x (central) and
    # commuting pairs among them; psu3 n=3 compares up to a 3-element centre
    cls = involution_class(make_group(family, n))
    spec, kern = cls.spec, cls.kern
    rng = np.random.default_rng(n)
    pick = rng.integers(0, cls.size, size=(3, 160))
    pick[1, :8] = pick[0, :8]
    pick[0, 8:16], pick[1, 8:16] = 0, rng.choice(cls.seed_sets().comm, 8)
    p = kern.mul_batch(cls.codes[pick[0]], cls.codes[pick[1]])
    p[80:] = kern.mul_batch(p[80:], cls.codes[pick[2, 80:]])
    want = np.array([element_order(spec, m) for m in _as_tuples(p)])
    assert np.array_equal(gr._batch_orders(kern, p, spec.order_cap), want)
    assert (want == 1).any() and (want == 2).any() and (want > 2).any()
    # a cap just below the largest order, even or odd, is exceeded
    for parity in (0, 1):
        top = int(want[want % 2 == parity].max())
        below = want <= top
        assert np.array_equal(gr._batch_orders(kern, p[below], top), want[below])
        with pytest.raises(gr.OrderCapExceeded, match=f"cap {top - 1}"):
            gr._batch_orders(kern, p[below], top - 1)


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
    # h = 1 leaves u and w, which generate only SL2(2), the subgroup over GF(2)
    u, w, _ = generators(spec)
    monkeypatch.setattr(gr, "generators", lambda s: [u, w, identity(2)])
    with pytest.raises(ClassSizeMismatch, match="3 of 15"):
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


@functools.cache
def _dict_class(family, n):
    """The class and the permutations of the steps rows' matrices
    (h^-k u h^k, w, h), conjugated one scalar matrix at a time."""
    spec = make_group(family, n)
    return involution_class_by_dict(spec, step_matrices(spec))


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_class_matches_the_dict_oracle(family, n):
    codes, perms = _dict_class(family, n)
    cls = involution_class(make_group(family, n))
    assert cls.codes.dtype == codes.dtype and np.array_equal(cls.codes, codes)
    assert np.array_equal(cls.perms, perms)


@pytest.mark.parametrize("block", [1, 7, 100])
def test_class_blocks_give_the_same_class(psl2_8_class, sz8_class, psu3_4_class,
                                          monkeypatch, block):
    # the enumeration and the closure pass run CLASS_BLOCK rows at a time;
    # psl2 n=3 keys are 1 word, sz n=3 and psu3 n=2 keys 2 words
    monkeypatch.setattr(gr, "CLASS_BLOCK", block)
    for whole in (psl2_8_class, sz8_class, psu3_4_class):
        codes, perms = _dict_class(whole.spec.family, whole.spec.n)
        cls = involution_class(whole.spec)
        assert np.array_equal(cls.codes, codes)
        assert np.array_equal(cls.perms, perms)


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("psl2", 6), ("sz", 3), ("sz", 5), ("psu3", 2),
                                      ("psu3", 3), ("psu3", 4)])
def test_centre_rows_equal_the_two_product_oracle(family, n):
    # the sum of scaled outer products is u^-1 (w z w) u; psu3 n=3 has a
    # 3-element centre, so its rows are canonical scalings
    spec = make_group(family, n)
    codes = gr._sylow_centre_rows(spec)
    want = sylow_centre_rows_by_products(spec)
    assert codes.dtype == want.dtype and np.array_equal(codes, want)


def test_enumeration_memory_is_bounded_by_the_block(monkeypatch):
    # the scale gathers take intp indices, 8 bytes per entry, so the (z, u)
    # grid runs CLASS_BLOCK rows at a time; what remains of v rows is the
    # codes, their key words and the sort's index and copy, 24 bytes a row
    # at psl2 n=8, where the whole grid at once peaks at 40 and the two
    # product oracle at 78
    spec, block = make_group("psl2", 8), 1 << 12
    monkeypatch.setattr(gr, "CLASS_BLOCK", block)
    tracemalloc.start()
    try:
        codes = gr._sylow_centre_rows(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 26 * len(codes) + 2 * 8 * spec.dim ** 2 * block
    assert peak < bound, f"the enumeration peaked at {peak} B, bound {bound} B"


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


def test_power_rows_equal_the_order_scan(psl2_8_class, sz8_class, psu3_4_class, psu3_8_class,
                                        monkeypatch):
    # the direct rows of cross_check_rows, P = P^-1 and P^2 = P^-1 (chi = 3)
    # or P^3 = (P^2)^-1 (Sz) up to the centre, against the orders of the
    # row's products; psu3 n=3 has a 3-element centre, and blocks of 97
    # rows put block boundaries inside every class
    for block in (gr.CLASS_BLOCK, 97):
        monkeypatch.setattr(gr, "CLASS_BLOCK", block)
        for cls in (psl2_8_class, sz8_class, psu3_4_class, psu3_8_class):
            for x in (0, 1, cls.size // 2, cls.size - 1):
                p = cls.kern.mul_batch(cls.codes[np.full(cls.size, x)], cls.codes)
                orders = gr._batch_orders(cls.kern, p, cls.spec.order_cap)
                comm, chi = gr._power_rows(cls, x)
                assert orders[x] == 1 and not comm[x] and not chi[x]
                assert np.array_equal(comm, orders == 2)
                assert np.array_equal(chi, orders == cls.spec.chi)


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
    cls = gr.closed_class(psl2_8_class.spec, psl2_8_class.codes)
    monkeypatch.setattr(gr, "sylow_generator_count", lambda spec: spec.n + 1)
    with pytest.raises(ClassSizeMismatch, match="no vertex is fixed by all 4 Sylow generators"):
        gr.orbital_order_census(cls)


@pytest.mark.parametrize("family,n", [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5),
                                      ("psl2", 6), ("sz", 3), ("psu3", 2), ("psu3", 3)])
def test_sylow_generators_fix_one_commuting_class(family, n):
    spec = make_group(family, n)
    k = gr.sylow_generator_count(spec)
    cls = involution_class(spec)
    assert len(generators(spec)) == 3 and len(cls.perms) == k + 2
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
    # vertex 0 loses one commuting partner, though the read keeps it with
    # its whole Sylow centre, so the class of 0 is all of B0, 7 members
    # where the base has 6
    comm = psl2_8_class.seed_sets().comm
    cls = gr.closed_class(psl2_8_class.spec, psl2_8_class.codes)
    cls._seed_sets = gr.SeedSets(comm=comm[1:], chi=psl2_8_class.seed_sets().chi)
    with pytest.raises(gr.NotAnEquivalence, match="the block of 0 has 7 members, expected 6") as ei:
        sylow_partition(cls)
    assert ei.value.witness == (0,)


def test_block_partition_rejects_a_non_block(psl2_8_class):
    # {0} + N(0) in the chi graph is no block: its closure under the
    # generators is one class of all 63 vertices
    perms = psl2_8_class.perms
    chi = psl2_8_class.seed_sets().chi
    with pytest.raises(gr.NotAnEquivalence, match="has 63 members, expected 9") as ei:
        gr.block_partition(perms, np.concatenate([[0], chi]))
    assert ei.value.witness == (0,)
    # a Sylow class is a block; the labels are numbered by least member
    labels = gr.block_partition(perms, np.concatenate([[0], psl2_8_class.seed_sets().comm]))
    assert np.array_equal(labels, sylow_partition(psl2_8_class))
    least = np.unique(labels, return_index=True)[1]
    assert (np.diff(least) > 0).all()


CLASSES_FOR_BLOCKS = [("psl2", 2), ("psl2", 3), ("psl2", 4), ("psl2", 5), ("psl2", 6),
                      ("sz", 3), ("psu3", 2), ("psu3", 3)]


@functools.cache
def _class_with_cover(family, n):
    cls = involution_class(make_group(family, n))
    return cls, seed_set_cover3_certificate(cls, cls.seed_sets().chi)


@pytest.mark.parametrize("family,n", CLASSES_FOR_BLOCKS)
def test_blocks_equal_the_breadth_first_oracle(family, n):
    # the Sylow block, the distance-3 block of the chi graph and the two
    # trivial blocks give the oracle's labels
    cls, cert = _class_with_cover(family, n)
    v = cls.size
    for base in (np.concatenate([[0], cls.seed_sets().comm]), np.concatenate([[0], cert.d3]),
                 np.zeros(1, dtype=np.int64), np.arange(v)):
        labels = gr.block_partition(cls.perms, base)
        assert np.array_equal(labels, block_partition_breadth_first(cls.perms, base))
        assert np.array_equal(np.flatnonzero(labels == 0), np.sort(base))


def _labels_of(keys):
    """Labels numbered by least member of the classes of equal keys."""
    _, least, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(least))[inverse]


@pytest.mark.parametrize("family,n", CLASSES_FOR_BLOCKS)
def test_sylow_keys_read_the_blocks(family, n):
    # the column space of x + I, rank 2 for Sz, names x's Sylow block; psu3
    # n=3 reads it from x + tr(x) I, its rows being scaled by the centre
    cls, _ = _class_with_cover(family, n)
    keys = gr.sylow_keys(cls.kern, cls.codes)
    assert keys.dtype == np.uint64
    base = np.concatenate([[0], cls.seed_sets().comm])
    want = gr.block_partition(cls.perms, base)
    assert np.array_equal(_labels_of(keys), want)
    assert np.array_equal(want, block_partition_breadth_first(cls.perms, base))
    assert np.array_equal(sylow_partition(cls), want)


@pytest.mark.parametrize("family,n", [("psl2", 6), ("sz", 3), ("psu3", 3)])
def test_a_correct_read_closes_in_one_pass(family, n, monkeypatch):
    # the closure calls _join once to join B0 and then once per permutation
    # row it visits: from the read, sylow_partition's one pass over u_(m-1),
    # w and h joins nothing and ends it, where from singletons the first pass
    # over those rows joins, so that a second follows
    cls, _ = _class_with_cover(family, n)
    base = np.concatenate([[0], cls.seed_sets().comm])
    visits, real = [], gr._join
    monkeypatch.setattr(gr, "_join", lambda root, a, b: visits.append(len(a)) or real(root, a, b))
    labels = sylow_partition(cls)
    assert visits == [len(base) - 1] + [cls.size] * 3
    visits.clear()
    assert np.array_equal(gr.block_partition(cls.perms[-3:], base), labels)
    assert len(visits) >= 1 + 2 * 3


@pytest.mark.parametrize("family,n", CLASSES_FOR_BLOCKS)
def test_non_blocks_are_refused_by_both(family, n):
    # {0} + chi(0), and the Sylow block less its last vertex
    cls, _ = _class_with_cover(family, n)
    sets = cls.seed_sets()
    for base in (np.concatenate([[0], sets.chi]), np.concatenate([[0], sets.comm[:-1]])):
        for partition in (gr.block_partition, block_partition_breadth_first):
            with pytest.raises(gr.NotAnEquivalence):
                partition(cls.perms, base)


def test_a_block_of_a_subgroup_is_refused():
    # {0, 1} is a block of <c, s>, which is transitive, and p fixes it, but
    # p carries the block {2, 3} onto {2, 4}: every row must preserve the
    # classes, also one that joins nothing when first used
    e = np.arange(6, dtype=np.int32)
    p = e.copy()
    p[[0, 1, 3, 4]] = [1, 0, 4, 3]
    c = np.array([2, 3, 4, 5, 0, 1], dtype=np.int32)
    s = np.array([1, 0, 3, 2, 5, 4], dtype=np.int32)
    base = np.array([0, 1])
    assert np.array_equal(gr.block_partition(np.stack([e, c, s]), base), [0, 0, 1, 1, 2, 2])
    for partition in (gr.block_partition, block_partition_breadth_first):
        with pytest.raises(gr.NotAnEquivalence):
            partition(np.stack([e, p, c, s]), base)


def _random_imprimitive_group(data):
    """(perms, block): v = m r points, placed at random into m blocks of r;
    each generator permutes the blocks and the points of every block, and
    the last walks all v points in one cycle, so that the group is
    transitive; block is the block of point 0."""
    m, r = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    v = m * r
    place = np.array(data.draw(st.permutations(range(v))))
    perms = np.empty((data.draw(st.integers(1, 3)) + 1, v), dtype=np.int32)
    for p in perms[:-1]:
        blocks = data.draw(st.permutations(range(m)))
        for i in range(m):
            inside = data.draw(st.permutations(range(r)))
            p[place[i * r:(i + 1) * r]] = place[[blocks[i] * r + j for j in inside]]
    column = place.reshape(m, r).T.reshape(-1)  # slot j of every block, then slot j + 1
    perms[-1][column] = np.roll(column, -1)
    home = int(np.flatnonzero(place == 0)[0]) // r  # the block of point 0
    return perms, np.sort(place[home * r:(home + 1) * r])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_blocks_of_random_imprimitive_groups_match_the_oracle(data):
    perms, block = _random_imprimitive_group(data)
    v = perms.shape[1]
    labels = gr.block_partition(perms, block)
    assert np.array_equal(labels, block_partition_breadth_first(perms, block))
    base = np.array(sorted({0} | data.draw(st.sets(st.integers(0, v - 1)))))
    try:
        want = block_partition_breadth_first(perms, base)
    except gr.NotAnEquivalence:
        with pytest.raises(gr.NotAnEquivalence):
            gr.block_partition(perms, base)
    else:
        assert np.array_equal(gr.block_partition(perms, base), want)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_hinted_closures_of_random_imprimitive_groups(data):
    # a hint that splits the blocks is joined back to the oracle's labels,
    # one that merges two blocks is refused, and no hint gives other labels
    perms, block = _random_imprimitive_group(data)
    v = perms.shape[1]
    want = block_partition_breadth_first(perms, block)
    split = data.draw(st.lists(st.integers(0, 2), min_size=v, max_size=v))
    assert np.array_equal(gr.block_partition(perms, block, hint=3 * want + split), want)
    if want.max() > 0:
        a, b = data.draw(st.permutations(range(int(want.max()) + 1)))[:2]
        with pytest.raises(gr.NotAnEquivalence):
            gr.block_partition(perms, block, hint=np.where(want == b, a, want))
    hint = np.array(data.draw(st.lists(st.integers(0, 4), min_size=v, max_size=v)))
    try:
        labels = gr.block_partition(perms, block, hint=hint)
    except gr.NotAnEquivalence:
        return
    assert np.array_equal(labels, want)


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


def test_carry_copies_no_permutation(psl2_256_class):
    # perms is a view of steps, whose last row is the identity the tree's
    # root names; carry gathers from steps in place, so carrying one vertex
    # allocates less than the permutations hold
    cls = psl2_256_class
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
    # each row permutes the vertices exactly as conjugation by its matrix does
    spec = cls.spec
    vertex = vertex_index(cls)
    for t, g in enumerate(step_matrices(spec)):
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
    # with w = 1, u and h generate the Borel subgroup U* <h>, which maps the
    # class into itself, so the closure check passes, but moves the seed
    # through only q(q - 1) = 56 vertices: closed_class refuses the class
    # before any graph is built
    spec = psl2_8_class.spec
    u, _, h = generators(spec)
    monkeypatch.setattr(gr, "generators", lambda s: [u, identity(2), h])
    with pytest.raises(ClassSizeMismatch, match="56 of 63"):
        gr.closed_class(spec, psl2_8_class.codes)
    with pytest.raises(ClassSizeMismatch, match="56 of 63"):
        involution_class(spec)


def test_cross_check_memory_is_bounded_by_the_block(psl2_256_class, monkeypatch):
    # the gathers index the product table with intp, 8 bytes per entry, so
    # the power rows run CLASS_BLOCK rows at a time: the peak is a few bool
    # rows of v and two intp indices of one block, where whole-class
    # indices at v = 65535 take 2 MB each
    cls = psl2_256_class
    sets, block = cls.seed_sets(), 1 << 12
    monkeypatch.setattr(gr, "CLASS_BLOCK", block)
    tracemalloc.start()
    try:
        assert gr.cross_check_rows(cls, sets, (cls.size // 2, cls.size - 1)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * cls.size + 2 * 8 * cls.spec.dim ** 2 * block
    assert peak < bound, f"cross_check_rows peaked at {peak} B, bound {bound} B"


def test_cross_check_names_a_differing_pair(psl2_8_class):
    sets = psl2_8_class.seed_sets()
    assert gr.cross_check_rows(psl2_8_class, sets, (31, 62)) is None
    # one vertex added to N(0) lands at its image under sigma_31 in row 31
    w = int(np.setdiff1d(np.arange(1, psl2_8_class.size), np.union1d(sets.comm, sets.chi))[0])
    tampered = gr.SeedSets(comm=sets.comm, chi=np.union1d(sets.chi, [w]))
    y = int(psl2_8_class.carry([31], [w])[0, 0])
    assert gr.cross_check_rows(psl2_8_class, tampered, (31, 62)) == (31, y)
    assert gr.cross_check_rows(psl2_8_class, tampered, (62,))[0] == 62
