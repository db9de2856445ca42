"""Matrix models of PSL2(q), Sz(q), PSU3(q) for q = 2^n and their involutions.

Group elements are d x d matrices over GF(q) (GF(q^2) in the unitary case)
stored as tuples of int element codes, kept in canonical projective form:
among all center scalings of a matrix, the representative whose row-major
little-endian byte encoding is least.  The generating sets have O(n)
elements: unipotents over a GF(2)-basis, the reversal and, for Sz, a torus
element (generators).  The conjugacy class of involutions is enumerated by
breadth-first orbit closure of a fixed seed involution under conjugation by
the generators, deduplicating on canonical encodings; its size is checked
against the closed-form count, which certifies both the generating set and
the matrix model.  Vertices are numbered by the lexicographic order of
their canonical encodings, so the numbering, and every vertex id derived
from it, does not depend on the generating set.

The orbit closure conjugates the class once by each generator, which
yields its permutations of the vertices; a breadth-first Schreier tree over
them reaches every vertex from the seed (the transitivity proof), and the
generators on the tree path to x compose to a conjugation sigma_x with
sigma_x(0) = x (InvolutionClass.carry).  Conjugation preserves product
orders, so every product-order fact is one about vertex 0 and constant on
the orbits of vertex 0's stabiliser, whose Schreier generators
sigma_g(u)^-1 g sigma_u the tree also yields (stabiliser_suborbits).  One
product per class, 2q - 3 on every instance the tests cover, gives the
table every vertex-0 fact reads (InvolutionClass.suborbits): the order
census is v/2 times the seed's row (orbital_order_census), the partners
of x are sigma_x of the seed's classes of order 2 and chi (seed_sets), and
the commuting classes are the orbit of one block (sylow_partition).  A
class is proven where it is made: involution_class builds the orbit, and
closed_class returns codes read from elsewhere as a class only once it
re-proves that they are this orbit, each row at its vertex id (the
encodings strictly increase), in one pass that yields the same
permutations.  Graph construction carries vertex 0's partner sets the
same way (InvolutionClass.carry_blocks); full_order_scan,
sampled_order_check and the direct products of cross_check_rows are
oracles.

Bulk pairwise work runs on numpy arrays of element codes with
multiplication as table gathers; the scalar routines on tuples are the
reference path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bits, formulas
from .formulas import InvalidQ, PSL2, PSU3, SZ
from .gf2 import TABLE_MAX_ORDER, FieldCtx

Matrix = tuple[tuple[int, ...], ...]

ORDER_CAP_FACTOR = 4
PAIR_BLOCK = 1 << 21
SEARCH_BLOCK = 1 << 16  # conjugates involution_class looks up in one search


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


class NotInStabiliser(RuntimeError):
    """A permutation offered as one of vertex 0's stabiliser moves vertex 0."""


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
    degree = 2 * n if family == PSU3 else n
    if 1 << degree > TABLE_MAX_ORDER:
        raise InvalidQ(f"the {family} matrices need GF(2^{degree}), above the "
                       f"GF({TABLE_MAX_ORDER}) the vectorized arithmetic supports")
    q = 1 << n
    v = formulas.class_size(family, q)
    if v > np.iinfo(np.int32).max:
        raise InvalidQ(f"the {family} class for q = 2^{n} has {v} involutions, more than "
                       f"the int32 vertex ids hold")
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


def _psu3_unipotent(spec: GroupSpec, x: int, y: int) -> Matrix:
    """Lower unitriangular; unitary exactly when y + y^q = x^(q+1)."""
    return ((1, 0, 0), (x, 1, 0), (y, spec.ctx.frobenius(x, spec.n), 1))


def _gf2_basis(values) -> list[int]:
    """The values, in order, that raise the GF(2)-rank of those before them."""
    basis, reduced = [], []  # reduced: distinct leading bits, descending
    for value in values:
        r = value
        for b in reduced:
            r = min(r, r ^ b)
        if r:
            basis.append(value)
            reduced = sorted(reduced + [r], reverse=True)
    return basis


def _psu3_unipotents(spec: GroupSpec) -> list[Matrix]:
    """One unipotent over each GF(2)-basis element x of GF(q^2), and the
    central ones (x = 0) over a GF(2)-basis y of GF(q).

    The trace y + y^q maps GF(q^2) onto GF(q).  The code 2, the polynomial
    t, generates GF(q^2), so it lies outside GF(q) and w = 2 / (2 + 2^q) has
    trace 1; y = x^(q+1) w then solves y + y^q = x^(q+1).  The traces of
    the basis of GF(q^2) span GF(q).
    """
    ctx, n, q = spec.ctx, spec.n, spec.q
    w = ctx.mul(2, ctx.inv(2 ^ ctx.frobenius(2, n)))
    basis = [1 << i for i in range(2 * n)]
    moving = [_psu3_unipotent(spec, x, ctx.mul(ctx.pow(x, q + 1), w)) for x in basis]
    centre = _gf2_basis(e ^ ctx.frobenius(e, n) for e in basis)
    return moving + [_psu3_unipotent(spec, 0, y) for y in centre]


def generators(spec: GroupSpec) -> list[Matrix]:
    """A generating set of O(n) matrices, each form-checked here.

    PSL2: the n unipotents over the GF(2)-basis 2^i of GF(q), and the
    reversal (n + 1).  Sz: the unipotents S(2^i, 0) and S(0, 2^i), a torus
    element and the reversal (2n + 2).  PSU3: the 2n + n unipotents of
    _psu3_unipotents and the reversal (3n + 1).  Sufficiency is certified
    downstream: the orbit closure must reach the closed-form class size
    and the Schreier tree every vertex.
    """
    n = spec.n
    if spec.family == PSL2:
        gens = [((1, 1 << i), (0, 1)) for i in range(n)]
    elif spec.family == SZ:
        gens = [_sz_unipotent(spec, 1 << i, 0) for i in range(n)]
        gens += [_sz_unipotent(spec, 0, 1 << i) for i in range(n)]
        gens.append(_sz_torus(spec))
    else:
        gens = _psu3_unipotents(spec)
    gens.append(reversal(spec.dim))
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
        """(m, d, d) codes -> the _word_keys of their byte encodings, which
        match encode().

        Kernels exist only up to GF(2^16) (np_tables), so a code is 1 or 2 bytes."""
        m, d = x.shape[0], x.shape[-1]
        flat = x.reshape(m, d * d)
        if _byte_width(self.spec) == 1:
            return _word_keys(flat.astype(np.uint8))
        return _word_keys(flat.astype("<u2").view(np.uint8).reshape(m, d * d * 2))

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


def _word_keys(keys):
    """(m, B) uint8 encodings -> (m, W) uint64 words, W = ceil(B / 8): the
    bytes zero-padded to 8W and read big-endian, so that the word-wise
    lexicographic order of the rows is the byte order of the encodings."""
    m, b = keys.shape
    padded = np.zeros((m, -(-b // 8) * 8), dtype=np.uint8)
    padded[:, :b] = keys
    return padded.view(">u8").astype(np.uint64)


_FOLD_COLLISION = "two distinct encodings share a search key (their fold)"
_FOLD_MIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))


def _fold(words):
    """One uint64 search key per row of words: the word itself when there
    is one, else each word XORed into a mix (the 64-bit finaliser of
    MurmurHash3) of the fold of those before it.  Not injective: a fold
    only finds a row, and _KeyIndex confirms every match on all words."""
    out = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        for mul in _FOLD_MIX:
            out ^= out >> np.uint64(33)
            out *= mul
        out ^= out >> np.uint64(33)
        out ^= words[:, j]
    return out


class _KeyIndex:
    """Vertex ids by canonical encoding, as _word_keys rows.

    words[i] holds vertex i's words for the first size vertices, which
    are distinct; the rows after them are room for add.  The search runs
    over one sorted uint64 array, the vertices' _fold values, with the
    vertex ids in the same order.  A fold match is a hit only if all its words agree; a match
    whose words differ, or two vertices with one fold, raises
    ClassSizeMismatch, so no two involutions are ever taken for one.
    """

    def __init__(self, words: np.ndarray, size: int):
        self.words, self.size = words, size
        folds = _fold(words[:size])
        self.ids = np.argsort(folds)
        self.folds = folds[self.ids]
        if (self.folds[1:] == self.folds[:-1]).any():
            raise ClassSizeMismatch(_FOLD_COLLISION)

    def _search(self, words: np.ndarray):
        """The rows of words in fold order (order), their folds, where each
        sorts among the vertices' (at), whether it is a vertex (known) and
        which (ids, where known)."""
        folds = _fold(words)
        order = np.argsort(folds)  # sorted queries search faster
        folds = folds[order]
        at = np.searchsorted(self.folds, folds)
        pos = np.minimum(at, self.size - 1)
        known = self.folds[pos] == folds
        ids = self.ids[pos]
        if not (self.words[ids[known]] == words[order[known]]).all():
            raise ClassSizeMismatch(_FOLD_COLLISION)
        return order, folds, at, known, ids

    def find(self, words: np.ndarray):
        """(ids, known): the vertex of each row of words, where it is one."""
        order, _, _, known, ids = self._search(words)
        out, found = np.empty_like(ids), np.empty_like(known)
        out[order], found[order] = ids, known
        return out, found

    def add(self, words: np.ndarray):
        """find, with the distinct rows that are not vertices numbered as new
        vertices in the order of their folds and merged into the index;
        returns (ids, first): each row's vertex, and the first row of each
        new vertex."""
        order, folds, at, known, ids = self._search(words)
        new = np.flatnonzero(~known)
        lead = np.ones(len(new), dtype=bool)
        lead[1:] = folds[new[1:]] != folds[new[:-1]]
        first, group = new[lead], np.cumsum(lead) - 1
        if not (words[order[new]] == words[order[first[group]]]).all():
            raise ClassSizeMismatch(_FOLD_COLLISION)
        lo, hi = self.size, self.size + len(first)
        if hi > len(self.words):
            raise ClassSizeMismatch(
                f"orbit closure found {hi} involutions, expected {len(self.words)}")
        level = np.arange(lo, hi)
        self.words[lo:hi] = words[order[first]]
        self.folds = np.insert(self.folds, at[first], folds[first])
        self.ids = np.insert(self.ids, at[first], level)
        self.size = hi
        ids[new] = level[group]
        out = np.empty_like(ids)
        out[order] = ids
        return out, order[first]


def _lex_less(a, b):
    """Row-wise lexicographic a < b for equal-shape key arrays."""
    neq = a != b
    any_neq = neq.any(axis=1)
    first = np.where(any_neq, neq.argmax(axis=1), 0)
    rows = np.arange(len(a))
    return any_neq & (a[rows, first] < b[rows, first])


# -- the involution class ----------------------------------------------------------


class InvolutionClass:
    """The conjugacy class of involutions, indexed as graph vertices.

    involution_class numbers the vertices by the lexicographic order of
    their canonical encodings.  With one-byte codes the seed's encoding is
    the least, so it is vertex 0; the certificates work from vertex 0
    whichever involution it is.  perms[t, x] is the vertex g_t^-1 x g_t
    for the t-th generator g_t.  Only involution_class and closed_class
    make one, and both prove it the class, in this numbering, first.
    """

    def __init__(self, spec: GroupSpec, codes: np.ndarray, perms: np.ndarray):
        self.spec = spec
        self.codes = codes
        self.perms = perms
        self.kern = _Kernels(spec)
        self._sylow_labels = None
        self._seed_sets = None
        self._suborbits = None
        self._order_scan = None
        self._schreier_tree = None
        self._tree_steps = None

    @property
    def size(self) -> int:
        return len(self.codes)

    def member(self, i: int) -> Matrix:
        return tuple(tuple(int(e) for e in row) for row in self.codes[i])

    def encoding(self, i: int) -> bytes:
        return encode(self.spec, self.member(i))

    def suborbits(self) -> "Suborbits":
        """stabiliser_suborbits with the order of one product per class."""
        if self._suborbits is None:
            root = stabiliser_suborbits(self)
            reps, sizes = np.unique(root[1:], return_counts=True)
            p = self.kern.mul_batch(self.codes[np.zeros_like(reps)], self.codes[reps])
            self._suborbits = Suborbits(root, reps, sizes,
                                        _batch_orders(self.kern, p, self.spec.order_cap))
        return self._suborbits

    def seed_sets(self) -> "SeedSets":
        """Vertex 0's partners of order 2 and chi, unions of suborbit classes."""
        if self._seed_sets is None:
            table = self.suborbits()
            row = table.spread(table.orders)
            self._seed_sets = SeedSets(comm=np.flatnonzero(row == 2),
                                       chi=np.flatnonzero(row == self.spec.chi))
        return self._seed_sets

    def schreier_tree(self):
        if self._schreier_tree is None:
            self._schreier_tree = schreier_tree(self.perms)
        return self._schreier_tree

    def tree_steps(self):
        """(flat, offset, depth): the generator permutations end to end, then
        the identity; the tree edge into x (the root's: the identity) moves y
        to flat[offset[x] + y], and x is depth[x] edges below the root."""
        if self._tree_steps is None:
            perms, (_, label, levels) = self.perms, self.schreier_tree()
            flat = np.append(perms, np.arange(self.size, dtype=perms.dtype))
            depth = np.empty(self.size, dtype=np.int64)
            for d, level in enumerate(levels):
                depth[level] = d
            self._tree_steps = flat, np.where(label < 0, len(perms), label) * self.size, depth
        return self._tree_steps

    def carry(self, xs, seed) -> np.ndarray:
        """(len(xs), len(seed)) array of sigma_x(seed) for x in xs: sigma_x,
        the generators on the tree path from 0 to x, carries 0 to x and 0's
        partners in a conjugation-invariant relation to x's."""
        parent, _, _ = self.schreier_tree()
        flat, offset, depth = self.tree_steps()
        up = np.asarray(xs, dtype=np.int64)
        steps = []  # the edges into the ancestors, one step up at a time
        for _ in range(int(depth[up].max(initial=0))):
            steps.append(offset[up][:, None])
            up = parent[up]
        images = np.tile(np.asarray(seed, dtype=flat.dtype), (len(up), 1))
        for step in reversed(steps):  # the generator nearest the root acts first
            images = flat[step + images]
        return images

    def carry_blocks(self, xs, seed):
        """carry(xs, seed) as (xs_chunk, images) over consecutive chunks of
        xs, each of bits.ROW_BLOCK_BITS // v vertices: a chunk's images, or
        its rows unpacked, hold at most bits.ROW_BLOCK_BITS entries."""
        xs = np.asarray(xs, dtype=np.int64)
        step = max(1, bits.ROW_BLOCK_BITS // self.size)
        for lo in range(0, len(xs), step):
            chunk = xs[lo:lo + step]
            yield chunk, self.carry(chunk, seed)

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
    """The class as the breadth-first orbit of the seed under conjugation.

    Each vertex is in exactly one frontier, so conjugating the frontiers
    by every generator conjugates the class once, and the images are the
    generator permutations (cls.perms).  The images of a
    frontier (of each chunk of it, on large levels) are looked up in one
    _KeyIndex search; those not found are numbered as vertices of the next
    level, which the index takes in by a merge.  Reaching the
    closed-form size proves the set closed, as closed_class does for
    given codes.  The breadth-first numbers are then replaced by the
    ranks of the encodings, in the codes and in the permutations.
    """
    kern = _Kernels(spec)
    seed_codes = _seed_codes(spec, kern.dtype)
    conjugators = _conjugators(spec, kern)

    expected = spec.class_size()
    perms = np.empty((len(conjugators), expected), dtype=np.int32)
    seed_words = kern.encode_keys(seed_codes)
    words = np.empty((expected, seed_words.shape[1]), dtype=np.uint64)
    words[:1] = seed_words
    index = _KeyIndex(words, 1)  # vertices numbered breadth-first
    step = max(1, SEARCH_BLOCK // len(conjugators))
    members = [seed_codes]
    frontier, start = seed_codes, 0
    while len(frontier):
        found = []
        for lo in range(0, len(frontier), step):
            chunk = frontier[lo:lo + step]
            images = [_conjugate(kern, gi, g, chunk) for gi, g in conjugators]
            ids, first = index.add(np.concatenate([k for _, k in images]))
            perms[:, start + lo:start + lo + len(chunk)] = ids.reshape(len(conjugators), -1)
            found.append(np.concatenate([c for c, _ in images])[first])
        start += len(frontier)
        frontier = np.concatenate(found)
        members.append(frontier)
    if index.size != expected:
        raise ClassSizeMismatch(
            f"orbit closure found {index.size} involutions, expected {expected}")
    codes = np.concatenate(members, axis=0)
    # renumber by encoding: ids lists the breadth-first numbers in key order
    ids = np.lexsort(words.T[::-1])
    rank = np.empty(expected, dtype=np.int32)
    rank[ids] = np.arange(expected, dtype=np.int32)
    for row in perms:  # in place, so that one copy of the permutations is held
        row[:] = rank[row[ids]]
    return InvolutionClass(spec, codes[ids], perms)


def closed_class(spec: GroupSpec, codes: np.ndarray) -> InvolutionClass:
    """The class whose vertex i is row i of codes, once proven to be
    exactly the class of the seed in involution_class's numbering;
    ClassSizeMismatch otherwise.  It is the one check on codes from
    outside the program.

    The rows must be d x d matrices of field codes, as many as the
    closed-form class size, with strictly increasing encodings (so
    distinct, and each at its vertex id); they must include the canonical
    seed and be closed under conjugation by every generator.  Closure
    puts the seed's whole orbit in the set.  That orbit has the
    closed-form size (involution_class checks it for the same
    generators), so the set is exactly the orbit, which is what the
    orbital order census relies on.  The closure pass yields the
    generator permutations of the class.
    """
    d = spec.dim
    if (codes.dtype.kind not in "iu" or codes.ndim != 3 or codes.shape[1:] != (d, d)
            or codes.size and not (0 <= codes.min() and codes.max() < spec.ctx.order)):
        raise ClassSizeMismatch(f"class rows are not {d}x{d} matrices over GF({spec.ctx.order})")
    if len(codes) != spec.class_size():
        raise ClassSizeMismatch(f"class has {len(codes)} rows, expected {spec.class_size()}")
    codes = codes.astype(spec.ctx.code_dtype, copy=False)
    kern = _Kernels(spec)
    words = kern.encode_keys(codes)
    if not _lex_less(words[:-1], words[1:]).all():
        raise ClassSizeMismatch("class has a duplicate or a reordered row: "
                                "encodings do not strictly increase")
    index = _KeyIndex(words, len(codes))
    if not index.find(kern.encode_keys(_seed_codes(spec, kern.dtype)))[1][0]:
        raise ClassSizeMismatch("class lacks the canonical seed involution")
    conjugators = _conjugators(spec, kern)
    perms = np.empty((len(conjugators), len(codes)), dtype=np.int32)
    for t, (gi, g) in enumerate(conjugators):
        _, keys = _conjugate(kern, gi, g, codes)
        ids, known = index.find(keys)
        if not known.all():
            raise ClassSizeMismatch(f"class is not closed under conjugation by generator {t}")
        perms[t] = ids
    return InvolutionClass(spec, codes, perms)


def schreier_tree(perms: np.ndarray):
    """Breadth-first Schreier tree of vertex 0 as (parent, label, levels).

    Vertex x other than the root is perms[label[x], parent[x]]; the root
    is its own parent.  levels lists the vertices by distance from the
    root.  Raises ClassSizeMismatch unless the tree reaches every vertex,
    that is, unless the class is one orbit.
    """
    v = perms.shape[1]
    parent = np.full(v, -1, dtype=np.int64)
    label = np.full(v, -1, dtype=np.int64)
    parent[0] = 0
    levels = [np.zeros(1, dtype=np.int64)]
    while True:
        frontier = levels[-1]
        images = perms[:, frontier]
        t, k = np.nonzero(parent[images] < 0)
        if not t.size:
            break
        # the first generator (then the first parent) to reach a vertex names its edge
        new, first = np.unique(images[t, k], return_index=True)
        parent[new] = frontier[k[first]]
        label[new] = t[first]
        levels.append(new)
    if (parent < 0).any():
        raise ClassSizeMismatch(f"the generators carry the seed to "
                                f"{int((parent >= 0).sum())} of {v} vertices")
    return parent, label, levels


def schreier_generators(cls: InvolutionClass):
    """Permutations s = sigma_g(u)^-1 o g o sigma_u of vertex 0's stabiliser,
    one for each vertex u and generator g, less the identities.  The u run
    k * stride mod v for k = 0 .. v - 1, stride the integer nearest v / phi^2
    that is prime to v, so that every vertex comes once and consecutive
    ones lie far apart.

    sigma_x is the generators' composite along the Schreier tree, carried
    over all vertices (InvolutionClass.carry), so s(0) = 0, and s is
    conjugation by an element commuting with vertex 0's involution.  By
    Schreier's lemma all of them generate the stabiliser.  When g is the
    tree edge into g(u), sigma_g(u) = g o sigma_u and s is the identity, so
    no sigma is carried for it.  Each s is made when asked for, so memory
    stays O(v).
    """
    perms = cls.perms
    parent, label, _ = cls.schreier_tree()
    every = np.arange(cls.size, dtype=perms.dtype)
    back = np.empty_like(every)
    stride = max(1, round(cls.size * (3 - 5 ** 0.5) / 2))
    while math.gcd(stride, cls.size) != 1:
        stride += 1
    for k in range(cls.size):
        u, sigma_u = k * stride % cls.size, None
        for t, g in enumerate(perms):
            w = g[u]
            if parent[w] == u and label[w] == t:
                continue
            if sigma_u is None:
                sigma_u = cls.carry([u], every)[0]
            back[cls.carry([w], every)[0]] = every
            s = back[g[sigma_u]]
            if not np.array_equal(s, every):
                yield s


def merge_suborbits(root: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, bool]:
    """Join the classes of root (root[y] is the least vertex of y's class)
    that s links, y with s(y); returns the new root and whether any joined.

    Raises NotInStabiliser unless s fixes vertex 0: only a conjugation
    fixing vertex 0 keeps the order of 0's products.
    """
    if s[0] != 0:
        raise NotInStabiliser(f"the permutation moves vertex 0 to {int(s[0])}")
    a, b = root, root[s]
    joined = False
    while True:
        differ = a != b
        if not differ.any():
            return root, joined
        lo, hi = np.minimum(a[differ], b[differ]), np.maximum(a[differ], b[differ])
        root = root.copy()
        np.minimum.at(root, hi, lo)  # each class's least vertex hooks under a smaller one
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        a, b, joined = root[lo], root[hi], True


def stabiliser_suborbits(cls: InvolutionClass) -> np.ndarray:
    """root[y]: the least vertex of y's class, the classes being the orbits
    of the group generated by the Schreier generators merged so far.

    Each class lies in one suborbit (orbit of vertex 0's stabiliser), and
    {0} is a class of its own.  Merging stops once |generators| Schreier
    generators in a row have joined nothing; run to the end it would give
    the suborbits themselves, and stopping early can only leave a suborbit
    split into more classes.
    """
    root = np.arange(cls.size, dtype=np.int32)
    idle, patience = 0, len(cls.perms)
    for s in schreier_generators(cls):
        root, joined = merge_suborbits(root, s)
        idle = 0 if joined else idle + 1
        if idle == patience:
            break
    return root


def block_partition(perms: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Labels, numbered by least member, of the orbit of the vertex set base
    under the permutations, proven a partition breadth-first over blocks:
    every image of a block must be a known block or meet none, and new
    images must be pairwise equal or disjoint.  Otherwise NotAnEquivalence,
    with the witness (t, x, y) when generator t carries a block onto a set
    holding x and y from different blocks (y = -1: none yet), or (x,) when
    two new images overlap at x.
    """
    v, s = perms.shape[1], len(base)
    label = np.full(v, -1, dtype=np.int64)
    label[base] = 0
    count, frontier = 1, base[None]
    step = max(1, bits.ROW_BLOCK_BITS // (len(perms) * s))
    while len(frontier):
        found = []
        for lo in range(0, len(frontier), step):
            chunk = frontier[lo:lo + step]
            images = perms[:, chunk].reshape(-1, s)
            lab = label[images]
            split = np.flatnonzero((lab != lab[:, :1]).any(axis=1))
            if split.size:
                i = int(split[0])
                t, x = i // len(chunk), int(images[i, 0])
                y = int(images[i, np.argmax(lab[i] != lab[i, 0])])
                raise NotAnEquivalence(f"generator {t} carries a block onto a set meeting "
                                       f"two blocks, at {x} and {y}", witness=(t, x, y))
            new = np.unique(np.sort(images[lab[:, 0] < 0], axis=1), axis=0)
            members, counts = np.unique(new, return_counts=True)
            if (counts > 1).any():
                x = int(members[np.argmax(counts > 1)])
                raise NotAnEquivalence(f"two images of a block overlap at {x} without "
                                       f"being equal", witness=(x,))
            label[new] = np.arange(count, count + len(new))[:, None]
            count += len(new)
            found.append(new)
        frontier = np.concatenate(found)
    if (label < 0).any():
        raise NotAnEquivalence(f"the blocks cover {int((label >= 0).sum())} of {v} vertices")
    _, least, inverse = np.unique(label, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(least))[inverse]


def sylow_partition(cls: InvolutionClass) -> np.ndarray:
    """Classes of the commuting relation, proven an equivalence at vertex 0:
    with B0 = {0} + comm(0), comm(y) + {y} must be B0 for y in comm(0) and
    the orbit of B0 a partition, whose block of x is {x} + comm(x)."""
    spec = cls.spec
    comm = cls.seed_sets().comm
    base = np.concatenate([[0], comm])
    classes = np.sort(np.concatenate([comm[:, None], cls.carry(comm, comm)], axis=1), axis=1)
    bad = np.nonzero((classes != base).any(axis=1))[0]
    if bad.size:
        y = int(comm[bad[0]])
        z = int(np.setxor1d(classes[bad[0]], base)[0])
        raise NotAnEquivalence(f"commuting is not transitive at (0,{y},{z})", witness=(0, y, z))
    labels = block_partition(cls.perms, base)
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
class SeedSets:
    """Vertex 0's commuting and distinguished partners, sorted vertex arrays."""

    comm: np.ndarray
    chi: np.ndarray


class Suborbits(NamedTuple):
    """The classes of stabiliser_suborbits but {0}: root[y] is the least
    vertex of y's class; class t has least vertex reps[t], sizes[t] members
    and orders[t], the order of x0 y for every y in it, since each Schreier
    generator s conjugates by an h fixing x0: order(x0 y) = order(x0 s(y))."""

    root: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray
    orders: np.ndarray

    def spread(self, per_class: np.ndarray) -> np.ndarray:
        """A value per class as one per vertex; vertex 0 gets zero."""
        out = np.zeros(len(self.root), dtype=per_class.dtype)
        out[self.reps] = per_class
        return out[self.root]


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


def _power_rows(cls: InvolutionClass, x: int) -> np.ndarray:
    """(2, v) bool: the commuting and distinguished rows of vertex x from
    fixed powers of its products with every vertex.

    A product P of two distinct involutions commutes iff P^2 is central,
    and has order chi iff P^chi is central (chi is prime, so no smaller
    order can collapse there).
    """
    kern = cls.kern
    p = kern.mul_left(cls.codes[x], cls.codes)
    p2 = kern.mul_batch(p, p)
    p3 = kern.mul_batch(p2, p)
    pchi = p3 if cls.spec.chi == 3 else kern.mul_batch(p3, p2)
    rows = np.stack([kern.central_scalar_mask(p2), kern.central_scalar_mask(pchi)])
    rows[:, x] = False
    return rows


def cross_check_rows(cls: InvolutionClass, sets: SeedSets, xs) -> tuple | None:
    """First (x, y) with x in xs where sigma_x of the seed sets disagrees
    with the direct products of vertex x, or None when every row agrees."""
    for x in xs:
        got = np.zeros((2, cls.size), dtype=bool)
        for row, seed in zip(got, (sets.comm, sets.chi)):
            row[cls.carry([x], seed)[0]] = True
        bad = np.nonzero((got != _power_rows(cls, x)).any(axis=0))[0]
        if bad.size:
            return int(x), int(bad[0])
    return None


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
    """Exact product-order census of all pairs from cls.suborbits().

    Conjugation permutes the class, preserves product orders, and acts on
    the class transitively (it is the orbit of the seed; closed_class
    proves a cached class so).  So the census over unordered pairs
    is v/2 times that of row 0, each class's order weighted by its size.
    The witness, if any, is the least such vertex of row 0.
    """
    v, (_, reps, sizes, orders) = cls.size, cls.suborbits()
    even = (orders % 2 == 0) & (orders > 2)
    witness = (0, int(reps[even][0]), int(orders[even][0])) if even.any() else None
    return OrderCensus(census={int(o): v * int(sizes[orders == o].sum()) // 2
                               for o in np.unique(orders)},
                       n_pairs=v * (v - 1) // 2, max_order=int(orders.max()),
                       even_gt2_pairs=v * int(sizes[even].sum()) // 2,
                       even_witness=witness)


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
