"""Matrix models of PSL2(q), Sz(q), PSU3(q) for q = 2^n and their involutions.

Group elements are d x d matrices over GF(q) (GF(q^2) in the unitary case)
stored as tuples of int element codes, kept in canonical projective form:
among all center scalings of a matrix, the representative whose row-major
little-endian byte encoding is least.  The conjugacy class of involutions
is enumerated by breadth-first orbit closure of a fixed seed involution
under conjugation by the generators, deduplicating on canonical encodings;
its size is checked against the closed-form count, which certifies both the
generating set and the matrix model.

Because the class is one orbit under conjugation, which preserves product
orders, the census of product orders over all pairs is v/2 times the
census of the seed's row (orbital_order_census), an exact count from v - 1
products.  A class read from elsewhere is accepted only after
check_closed_class re-proves that it is this orbit.  The commuting and
distinguished pairs come from fixed matrix powers (power_pair_masks); the
exhaustive scan full_order_scan and the sampled sampled_order_check are
kept as oracles for both.

Bulk pairwise work runs on numpy arrays of element codes with
multiplication as table gathers; the scalar routines on tuples are the
reference path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bits, formulas
from .formulas import InvalidQ, PSL2, PSU3, SZ
from .gf2 import FieldCtx

Matrix = tuple[tuple[int, ...], ...]

ORDER_CAP_FACTOR = 4
PAIR_BLOCK = 1 << 21


class SzEvenExponent(InvalidQ):
    """Sz(q) needs q = 2^n with odd n >= 3."""


class GeneratorValidationFailed(RuntimeError):
    pass


class NotInGroupForm(ValueError):
    pass


class OrderCapExceeded(RuntimeError):
    pass


class ClassSizeMismatch(RuntimeError):
    pass


class SeedNotInvolution(RuntimeError):
    pass


class NotAnEquivalence(RuntimeError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SylowCountMismatch(RuntimeError):
    pass


# -- dense matrices over a field context -------------------------------------


def identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(ctx: FieldCtx, a: Matrix, b: Matrix) -> Matrix:
    d = len(a)
    mul = ctx.mul
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            s = 0
            for k in range(d):
                s ^= mul(a[i][k], b[k][j])
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_det(ctx: FieldCtx, a: Matrix) -> int:
    # Leibniz sum; in characteristic 2 the permutation signs vanish
    d = len(a)
    s = 0
    for perm in itertools.permutations(range(d)):
        t = 1
        for i in range(d):
            t = ctx.mul(t, a[i][perm[i]])
            if t == 0:
                break
        s ^= t
    return s


def _minor_det(ctx: FieldCtx, a: Matrix, r: int, c: int) -> int:
    d = len(a)
    rows = [i for i in range(d) if i != r]
    cols = [j for j in range(d) if j != c]
    sub = tuple(tuple(a[i][j] for j in cols) for i in rows)
    return mat_det(ctx, sub)


def mat_inv_det1(ctx: FieldCtx, a: Matrix) -> Matrix:
    """Inverse via the adjugate; requires det(a) = 1."""
    if mat_det(ctx, a) != 1:
        raise NotInGroupForm("matrix does not have determinant 1")
    d = len(a)
    return tuple(tuple(_minor_det(ctx, a, j, i) for j in range(d)) for i in range(d))


def mat_scale(ctx: FieldCtx, s: int, a: Matrix) -> Matrix:
    return tuple(tuple(ctx.mul(s, e) for e in row) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    d = len(a)
    return tuple(tuple(a[j][i] for j in range(d)) for i in range(d))


def conj_transpose(ctx: FieldCtx, a: Matrix, half: int) -> Matrix:
    """Transpose with entrywise x -> x^(2^half) (the order-2 field automorphism)."""
    d = len(a)
    return tuple(tuple(ctx.frobenius(a[j][i], half) for j in range(d)) for i in range(d))


def scalar_code(a: Matrix) -> int | None:
    """The scalar s if a = s*I, else None."""
    d = len(a)
    s = a[0][0]
    for i in range(d):
        for j in range(d):
            if a[i][j] != (s if i == j else 0):
                return None
    return s


def reversal(d: int) -> Matrix:
    return tuple(tuple(1 if i + j == d - 1 else 0 for j in range(d)) for i in range(d))


# -- group specifications -----------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """Family descriptor with its field context and center scalars."""

    family: str
    n: int
    q: int
    l: int
    chi: int
    dim: int
    ctx: FieldCtx
    center: tuple[int, ...]

    @property
    def order_cap(self) -> int:
        return ORDER_CAP_FACTOR * self.q * self.q

    def class_size(self) -> int:
        return formulas.class_size(self.family, self.q)


def _cube_roots_of_unity(ctx: FieldCtx) -> tuple[int, int]:
    e = (ctx.order - 1) // 3
    for x in range(2, ctx.order):
        z = ctx.pow(x, e)
        if z != 1:
            if ctx.pow(z, 3) != 1:
                raise AssertionError("cube root search failed")
            return z, ctx.mul(z, z)
    raise AssertionError("no cube root of unity found")


def make_group(family: str, n: int) -> GroupSpec:
    family = formulas.normalize_family(family)
    if n < 2:
        raise InvalidQ(f"need q = 2^n >= 4, got n = {n}")
    if family == SZ and n % 2 == 0:
        raise SzEvenExponent(f"Sz(q) needs odd n >= 3, got n = {n}")
    q = 1 << n
    l = formulas.SYLOW_EXPONENT[family]
    chi = formulas.ASSOCIATED_PRIME[family]
    dim = formulas.MATRIX_DIM[family]
    if family == PSU3:
        ctx = FieldCtx(2 * n)
        if (q + 1) % 3 == 0:
            z, z2 = _cube_roots_of_unity(ctx)
            center = (1, z, z2)
        else:
            center = (1,)
    else:
        ctx = FieldCtx(n)
        center = (1,)
    return GroupSpec(family=family, n=n, q=q, l=l, chi=chi, dim=dim,
                     ctx=ctx, center=center)


# -- family forms and generators ----------------------------------------------


def check_group_form(spec: GroupSpec, m: Matrix) -> None:
    """Necessary membership conditions: det 1 plus the invariant form."""
    d = spec.dim
    if len(m) != d or any(len(r) != d for r in m):
        raise NotInGroupForm(f"expected a {d}x{d} matrix")
    if any(not (0 <= e < spec.ctx.order) for row in m for e in row):
        raise NotInGroupForm("entry out of field range")
    if mat_det(spec.ctx, m) != 1:
        raise NotInGroupForm("determinant is not 1")
    if spec.family == SZ:
        b = reversal(4)
        if mat_mul(spec.ctx, mat_transpose(m), mat_mul(spec.ctx, b, m)) != b:
            raise NotInGroupForm("alternating form not preserved")
    elif spec.family == PSU3:
        j = reversal(3)
        if mat_mul(spec.ctx, conj_transpose(spec.ctx, m, spec.n),
                   mat_mul(spec.ctx, j, m)) != j:
            raise NotInGroupForm("unitary form not preserved")


def seed_involution(spec: GroupSpec) -> Matrix:
    return reversal(spec.dim)


def _sz_unipotent(spec: GroupSpec, a: int, b: int) -> Matrix:
    ctx = spec.ctx
    th = 1 << ((spec.n + 1) // 2)
    return (
        (1, 0, 0, 0),
        (a, 1, 0, 0),
        (ctx.pow(a, 1 + th) ^ b, ctx.pow(a, th), 1, 0),
        (ctx.pow(a, 2 + th) ^ ctx.mul(a, b) ^ ctx.pow(b, th), b, a, 1),
    )


def _sz_torus(spec: GroupSpec) -> Matrix:
    ctx = spec.ctx
    half = 1 << ((spec.n - 1) // 2)
    x = 2
    e = (1 + half, half, spec.q - 1 - half, spec.q - 2 - half)
    return tuple(tuple(ctx.pow(x, e[i]) if i == j else 0 for j in range(4))
                 for i in range(4))


def _psu3_unipotents(spec: GroupSpec) -> list[Matrix]:
    """Brute-force scan of lower unitriangular matrices against the form."""
    ctx = spec.ctx
    out = []
    for x in ctx.elements():
        xq = ctx.frobenius(x, spec.n)
        for y in ctx.elements():
            m = ((1, 0, 0), (x, 1, 0), (y, xq, 1))
            try:
                check_group_form(spec, m)
            except NotInGroupForm:
                continue
            out.append(m)
    return out


def generators(spec: GroupSpec) -> list[Matrix]:
    """A generating set; every element is form-checked here, and sufficiency
    is certified downstream by the involution-class size contract."""
    ctx = spec.ctx
    if spec.family == PSL2:
        gens = [((1, 1 << i), (0, 1)) for i in range(spec.n)]
        gens.append(((0, 1), (1, 0)))
    elif spec.family == SZ:
        gens = [_sz_unipotent(spec, a, b)
                for a in ctx.elements() for b in ctx.elements()
                if (a, b) != (0, 0)]
        if len(set(gens)) != spec.q * spec.q - 1:
            raise GeneratorValidationFailed(
                f"unipotent family has {len(set(gens))} matrices, expected {spec.q ** 2 - 1}")
        gens.append(_sz_torus(spec))
        gens.append(reversal(4))
    else:
        gens = [m for m in _psu3_unipotents(spec) if m != identity(3)]
        if len(gens) != spec.q ** 3 - 1:
            raise GeneratorValidationFailed(
                f"unitriangular scan found {len(gens)} matrices, expected {spec.q ** 3 - 1}")
        gens.append(reversal(3))
    for g in gens:
        try:
            check_group_form(spec, g)
        except NotInGroupForm as e:
            raise GeneratorValidationFailed(f"generator fails form check: {e}") from e
    return gens


# -- canonical projective form -------------------------------------------------


def _byte_width(spec: GroupSpec) -> int:
    return (spec.ctx.n + 7) // 8


def encode(spec: GroupSpec, m: Matrix) -> bytes:
    """Row-major, fixed-width little-endian bytes per entry."""
    w = _byte_width(spec)
    return b"".join(e.to_bytes(w, "little") for row in m for e in row)


def canonicalize(spec: GroupSpec, m: Matrix) -> Matrix:
    """Encoding-least representative of {z*m : z in center}; idempotent."""
    check_group_form(spec, m)
    if len(spec.center) == 1:
        return m
    best = m
    best_key = encode(spec, m)
    for z in spec.center[1:]:
        cand = mat_scale(spec.ctx, z, m)
        key = encode(spec, cand)
        if key < best_key:
            best, best_key = cand, key
    return best


# -- orders ---------------------------------------------------------------------


def element_order(spec: GroupSpec, m: Matrix) -> int:
    """Least k >= 1 with m^k a center scalar (projective order)."""
    cur = m
    for k in range(1, spec.order_cap + 1):
        s = scalar_code(cur)
        if s is not None and s in spec.center:
            return k
        cur = mat_mul(spec.ctx, cur, m)
    raise OrderCapExceeded(
        f"no power of the element is central within {spec.order_cap} steps")


# -- vectorized kernels ----------------------------------------------------------


class _Kernels:
    """Batched matrix products over element-code arrays (table gathers)."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.dtype = spec.ctx.code_dtype
        self.full = spec.ctx.np_mul_table()
        if self.full is None:
            self.log, self.exp3 = spec.ctx.np_tables()

    def _mul(self, a, b):
        if self.full is not None:
            return self.full[a, b]
        return self.exp3[self.log[a] + self.log[b]]

    def mul_batch(self, a, b):
        """(m, d, d) @ (m, d, d)."""
        d = a.shape[-1]
        out = self._mul(a[..., :, 0, None], b[..., 0, None, :])
        for k in range(1, d):
            out ^= self._mul(a[..., :, k, None], b[..., k, None, :])
        return out

    def mul_left(self, g, x):
        """Fixed (d, d) times batch (m, d, d)."""
        d = len(g)
        out = np.zeros_like(x)
        for i in range(d):
            for k in range(d):
                e = int(g[i][k])
                if e:
                    out[:, i, :] ^= self._mul(np.asarray(e, dtype=self.dtype), x[:, k, :])
        return out

    def mul_right(self, x, g):
        """Batch (m, d, d) times fixed (d, d)."""
        d = len(g)
        out = np.zeros_like(x)
        for j in range(d):
            for k in range(d):
                e = int(g[k][j])
                if e:
                    out[:, :, j] ^= self._mul(x[:, :, k], np.asarray(e, dtype=self.dtype))
        return out

    def scale(self, z, x):
        return self._mul(np.asarray(z, dtype=self.dtype), x)

    def central_scalar_mask(self, x):
        """Per-matrix: is x a scalar matrix with scalar in the center."""
        d = x.shape[-1]
        diag0 = x[:, 0, 0]
        ok = np.zeros(len(x), dtype=bool)
        for z in self.spec.center:
            ok |= diag0 == z
        for i in range(d):
            for j in range(d):
                if i == j:
                    if i:
                        ok &= x[:, i, i] == diag0
                else:
                    ok &= x[:, i, j] == 0
        return ok

    def encode_keys(self, x):
        """(m, d, d) codes -> (m, B) uint8 byte encodings, matching encode()."""
        m, d = x.shape[0], x.shape[-1]
        flat = x.reshape(m, d * d)
        w = _byte_width(self.spec)
        if w == 1:
            return flat.astype(np.uint8)
        if w == 2:
            return flat.astype("<u2").view(np.uint8).reshape(m, d * d * 2)
        return _wide_encode(flat, w)

    def canonical_batch(self, x):
        """Canonicalize a batch; returns (codes, keys)."""
        keys = self.encode_keys(x)
        if len(self.spec.center) == 1:
            return x, keys
        best_x = x.copy()
        best_k = keys.copy()
        for z in self.spec.center[1:]:
            cand = self.scale(z, x)
            ck = self.encode_keys(cand)
            less = _lex_less(ck, best_k)
            if less.any():
                best_x[less] = cand[less]
                best_k[less] = ck[less]
        return best_x, best_k


def _wide_encode(flat, w):
    m, e = flat.shape
    out = np.zeros((m, e * w), dtype=np.uint8)
    for b in range(w):
        out[:, b::w] = (flat >> (8 * b)).astype(np.uint8)
    return out


def _void_keys(keys):
    """One opaque scalar per key row, for sorting and set membership."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.shape[1]))).ravel()


def _lex_less(a, b):
    """Row-wise lexicographic a < b for equal-shape uint8 key arrays."""
    neq = a != b
    any_neq = neq.any(axis=1)
    first = np.where(any_neq, neq.argmax(axis=1), 0)
    rows = np.arange(len(a))
    return any_neq & (a[rows, first] < b[rows, first])


# -- the involution class ----------------------------------------------------------


class InvolutionClass:
    """The conjugacy class of involutions, indexed as graph vertices.

    Vertex numbering is deterministic: breadth-first levels from the seed,
    lexicographic on canonical encodings within a level.
    """

    def __init__(self, spec: GroupSpec, codes: np.ndarray):
        self.spec = spec
        self.codes = codes
        self.kern = _Kernels(spec)
        keys = self.kern.encode_keys(codes)
        self.index = {k.tobytes(): i for i, k in enumerate(keys)}
        self._sylow_labels = None
        self._pair_masks = None
        self._order_scan = None

    @property
    def size(self) -> int:
        return len(self.codes)

    def member(self, i: int) -> Matrix:
        return tuple(tuple(int(e) for e in row) for row in self.codes[i])

    def encoding(self, i: int) -> bytes:
        return encode(self.spec, self.member(i))

    def vertex_of(self, m: Matrix) -> int:
        key = self.kern.encode_keys(
            np.array(canonicalize(self.spec, m), dtype=self.kern.dtype)[None])[0]
        return self.index[key.tobytes()]

    def pair_masks(self) -> "PairMasks":
        if self._pair_masks is None:
            self._pair_masks = power_pair_masks(self)
        return self._pair_masks

    def order_scan(self) -> "OrderScan":
        if self._order_scan is None:
            self._order_scan = full_order_scan(self)
        return self._order_scan

    def sylow_labels(self) -> np.ndarray:
        if self._sylow_labels is None:
            self._sylow_labels = sylow_partition(self)
        return self._sylow_labels


def _conjugators(spec: GroupSpec, kern: _Kernels):
    """(g^-1, g) code arrays for every generator g."""
    return [(np.array(mat_inv_det1(spec.ctx, g), dtype=kern.dtype),
             np.array(g, dtype=kern.dtype)) for g in generators(spec)]


def _conjugate(kern: _Kernels, gi, g, x):
    """Canonical g^-1 x g for a batch x; returns (codes, keys)."""
    return kern.canonical_batch(kern.mul_right(kern.mul_left(gi, x), g))


def _seed_codes(spec: GroupSpec, dtype) -> np.ndarray:
    seed = seed_involution(spec)
    if mat_mul(spec.ctx, seed, seed) != identity(spec.dim) or scalar_code(seed) is not None:
        raise SeedNotInvolution("seed does not square to the identity")
    return np.array(canonicalize(spec, seed), dtype=dtype)[None]


def involution_class(spec: GroupSpec) -> InvolutionClass:
    kern = _Kernels(spec)
    seed_codes = _seed_codes(spec, kern.dtype)
    conjugators = _conjugators(spec, kern)

    expected = spec.class_size()
    members = [seed_codes]
    seen = {kern.encode_keys(seed_codes)[0].tobytes(): 0}
    frontier = seed_codes
    total = 1
    while frontier.size:
        level_new = {}
        for gi, g in conjugators:
            cand, keys = _conjugate(kern, gi, g, frontier)
            uniq_keys, first = np.unique(keys, axis=0, return_index=True)
            for row, src in zip(uniq_keys, first):
                kb = row.tobytes()
                if kb not in seen and kb not in level_new:
                    level_new[kb] = cand[src]
        if not level_new:
            break
        # deterministic numbering: lexicographic on encodings within the level
        items = sorted(level_new.items())
        frontier = np.stack([m for _, m in items])
        for kb, _ in items:
            seen[kb] = total
            total += 1
        members.append(frontier)
        if total > expected:
            break
    codes = np.concatenate(members, axis=0)
    if len(codes) != expected:
        raise ClassSizeMismatch(
            f"orbit closure found {len(codes)} involutions, expected {expected}")
    return InvolutionClass(spec, codes)


def check_closed_class(cls: InvolutionClass) -> None:
    """Raise ClassSizeMismatch unless cls holds exactly the class of the seed.

    The rows must be distinct, include the canonical seed and be closed
    under conjugation by every generator, and their number must be the
    closed-form class size.  Closure puts the seed's whole orbit in the
    set.  That orbit has the closed-form size (involution_class checks it
    for the same generators), so the set is exactly the orbit, which is
    what the orbital order census relies on.
    """
    spec = cls.spec
    if cls.size != spec.class_size():
        raise ClassSizeMismatch(f"class has {cls.size} rows, expected {spec.class_size()}")
    if len(cls.index) != cls.size:
        raise ClassSizeMismatch(f"class has {cls.size - len(cls.index)} duplicate rows")
    kern = cls.kern
    if kern.encode_keys(_seed_codes(spec, kern.dtype))[0].tobytes() not in cls.index:
        raise ClassSizeMismatch("class lacks the canonical seed involution")
    members = _void_keys(kern.encode_keys(cls.codes))
    for t, (gi, g) in enumerate(_conjugators(spec, kern)):
        _, keys = _conjugate(kern, gi, g, cls.codes)
        if not np.isin(_void_keys(keys), members).all():
            raise ClassSizeMismatch(f"class is not closed under conjugation by generator {t}")


def product_order(spec: GroupSpec, x: int, y: int, cls: InvolutionClass) -> int:
    return element_order(spec, mat_mul(spec.ctx, cls.member(x), cls.member(y)))


def sylow_partition(cls: InvolutionClass) -> np.ndarray:
    """Classes of the commuting relation; verified to be an equivalence."""
    spec = cls.spec
    labels, witness = bits.equivalence_classes(
        cls.pair_masks().comm | bits.identity(cls.size), cls.size)
    if witness:
        x, y, z = witness
        raise NotAnEquivalence(f"commuting is not transitive at ({x},{y},{z})",
                               witness=witness)
    sizes = np.bincount(labels)
    nclass = len(sizes)
    want_m = spec.q ** spec.l + 1
    want_r = spec.q - 1
    if nclass != want_m or (sizes != want_r).any():
        raise SylowCountMismatch(
            f"{nclass} commuting classes of sizes {sorted(set(map(int, sizes)))}, "
            f"expected {want_m} classes of size {want_r}")
    return labels


# -- bulk pair scans -----------------------------------------------------------


@dataclass
class PairMasks:
    """Bit rows over vertices: distinct commuting pairs / distinguished pairs."""

    comm: np.ndarray
    chi: np.ndarray


@dataclass
class OrderCensus:
    """Product-order census over unordered vertex pairs, with the first pair
    (i, j, order) whose product has even order above 2."""

    census: dict[int, int] = field(default_factory=dict)
    n_pairs: int = 0
    max_order: int = 0
    even_gt2_pairs: int = 0
    even_witness: tuple | None = None

    @property
    def noncommuting_all_odd(self) -> bool:
        return self.even_gt2_pairs == 0

    def add_block(self, cls: "InvolutionClass", i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Tally the product orders of the pairs (i[t], j[t]); returns them."""
        p = cls.kern.mul_batch(cls.codes[i], cls.codes[j])
        orders = _batch_orders(cls.kern, p, cls.spec.order_cap)
        self.n_pairs += len(orders)
        self.max_order = max(self.max_order, int(orders.max()))
        for val, cnt in zip(*np.unique(orders, return_counts=True)):
            self.census[int(val)] = self.census.get(int(val), 0) + int(cnt)
        even = (orders % 2 == 0) & (orders > 2)
        if even.any():
            self.even_gt2_pairs += int(even.sum())
            if self.even_witness is None:
                t = int(np.nonzero(even)[0][0])
                self.even_witness = (int(i[t]), int(j[t]), int(orders[t]))
        return orders


@dataclass
class OrderScan(OrderCensus):
    """Exhaustive scan over all pairs, with the commuting / distinguished masks."""

    comm: np.ndarray | None = None
    chi: np.ndarray | None = None


def _pair_blocks(v: int, target: int = PAIR_BLOCK):
    row = 0
    while row < v - 1:
        rows = []
        n = 0
        while row < v - 1 and n < target:
            rows.append(row)
            n += v - 1 - row
            row += 1
        counts = [v - 1 - r for r in rows]
        i = np.repeat(np.array(rows, dtype=np.int64), counts)
        j = np.concatenate([np.arange(r + 1, v, dtype=np.int64) for r in rows])
        yield i, j


def _symplectic_inverse_batch(x: np.ndarray) -> np.ndarray:
    """Inverse of symplectic matrices w.r.t. the antidiagonal form, char 2.

    M^T B M = B gives M^-1 = B M^T B, which is entrywise
    (M^-1)[i, j] = M[d-1-j, d-1-i]: a pure index shuffle.
    """
    return np.ascontiguousarray(x.transpose(0, 2, 1)[:, ::-1, ::-1])


def power_pair_masks(cls: InvolutionClass) -> PairMasks:
    """Commuting and distinguished masks from fixed matrix powers.

    A product P of two distinct involutions commutes iff P^2 is central,
    and has order chi iff P^chi is central (chi is prime, so no smaller
    order can collapse there).  For chi = 5 the suspect P^5 = 1 is tested
    as P^3 = (P^2)^-1 with the form-based inverse, saving a product.
    """
    spec = cls.spec
    kern = cls.kern
    v = cls.size
    ci, cj, xi, xj = [], [], [], []
    for i, j in _pair_blocks(v):
        p = kern.mul_batch(cls.codes[i], cls.codes[j])
        p2 = kern.mul_batch(p, p)
        comm = kern.central_scalar_mask(p2)
        p3 = kern.mul_batch(p2, p)
        if spec.chi == 3:
            dist = kern.central_scalar_mask(p3)
        else:
            inv2 = _symplectic_inverse_batch(p2)
            dist = (p3 == inv2).all(axis=(1, 2))
        ci.append(i[comm]); cj.append(j[comm])
        xi.append(i[dist]); xj.append(j[dist])
    comm_rows = bits.rows_from_pairs(v, np.concatenate(ci), np.concatenate(cj))
    chi_rows = bits.rows_from_pairs(v, np.concatenate(xi), np.concatenate(xj))
    return PairMasks(comm=comm_rows, chi=chi_rows)


def _batch_orders(kern: _Kernels, p: np.ndarray, cap: int) -> np.ndarray:
    """Projective orders of a batch of matrices by masked iteration."""
    m = len(p)
    orders = np.zeros(m, dtype=np.int32)
    alive = np.arange(m)
    cur = p
    base = p
    k = 1
    while alive.size:
        done = kern.central_scalar_mask(cur)
        if done.any():
            orders[alive[done]] = k
            keep = ~done
            alive = alive[keep]
            cur = cur[keep]
            base = base[keep]
            if not alive.size:
                break
        k += 1
        if k > cap:
            raise OrderCapExceeded(f"order exceeds cap {cap}")
        cur = kern.mul_batch(cur, base)
    return orders


def orbital_order_census(cls: InvolutionClass) -> OrderCensus:
    """Exact product-order census of all pairs from the v - 1 products of row 0.

    Conjugation permutes the class, preserves product orders, and acts on
    the class transitively (it is the orbit of the seed; a cached class
    passes check_closed_class first).  So every vertex has the same
    multiset of orders with the other vertices, and the census over
    unordered pairs is v/2 times that of row 0.  The witness, if any,
    lies in row 0.
    """
    v = cls.size
    j = np.arange(1, v, dtype=np.int64)
    row = OrderCensus()
    row.add_block(cls, np.zeros_like(j), j)
    return OrderCensus(census={o: v * c // 2 for o, c in row.census.items()},
                       n_pairs=v * (v - 1) // 2, max_order=row.max_order,
                       even_gt2_pairs=v * row.even_gt2_pairs // 2,
                       even_witness=row.even_witness)


def full_order_scan(cls: InvolutionClass) -> OrderScan:
    """Orders of every pair's product; the oracle for the orbital census."""
    scan = OrderScan()
    ci, cj, xi, xj = [], [], [], []
    for i, j in _pair_blocks(cls.size):
        orders = scan.add_block(cls, i, j)
        comm = orders == 2
        dist = orders == cls.spec.chi
        ci.append(i[comm]); cj.append(j[comm])
        xi.append(i[dist]); xj.append(j[dist])
    scan.comm = bits.rows_from_pairs(cls.size, np.concatenate(ci), np.concatenate(cj))
    scan.chi = bits.rows_from_pairs(cls.size, np.concatenate(xi), np.concatenate(xj))
    return scan


def sampled_order_check(cls: InvolutionClass, n_pairs: int, seed: int = 0) -> dict:
    """Product orders for uniformly random distinct pairs (with replacement)."""
    rng = np.random.default_rng(seed)
    tally = OrderCensus()
    while tally.n_pairs < n_pairs:
        m = min(PAIR_BLOCK, n_pairs - tally.n_pairs)
        i = rng.integers(0, cls.size, size=m)
        j = rng.integers(0, cls.size - 1, size=m)
        j += (j >= i).astype(j.dtype)
        tally.add_block(cls, i, j)
    return {
        "pairs": tally.n_pairs,
        "census": tally.census,
        "max_order": tally.max_order,
        "even_gt2_pairs": tally.even_gt2_pairs,
        "even_witness": tally.even_witness,
        "noncommuting_all_odd": tally.noncommuting_all_odd,
    }
