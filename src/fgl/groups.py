"""Matrix models of PSL2(q), Sz(q), PSU3(q) for q = 2^n and their involutions.

Group elements are d x d matrices over GF(q) (GF(q^2) in the unitary case)
stored as tuples of int element codes, kept in canonical projective form:
among all center scalings of a matrix, the representative whose row-major
little-endian byte encoding is least.  The scalings share their zero
entries, so their encodings first differ at the leading (first nonzero)
entry e, and the least is the scaling z*m whose z*e encodes least
(_Kernels.canonical_batch).  Three matrices act on the class
(generators): a unipotent u of a Sylow 2-subgroup U*, the reversal w and
a torus element h normalising U*.  The conjugacy class of involutions is
the disjoint union of the q^l + 1 Sylow 2-centres less the identity:
Z(U)^# for the lower unitriangular Sylow subgroup U (sylow_unipotents)
and its conjugates u^-1 (w Z(U)^# w) u by the reversal w and each u in U
(involution_class), each the identity plus scaled outer products of u^-1's
columns and u's rows (_sylow_centre_rows).  Vertices are numbered by the
lexicographic order of their canonical encodings, so the numbering, and
every vertex id derived from it, does not depend on the generating set.

A class is proven where it is made, and only closed_class makes one: it
takes rows from the enumeration or from a cache and proves them the class,
each row at its vertex id (the encodings strictly increase).  Conjugating
the class once by each of u, w and h yields their permutations of the
vertices and proves the set closed.  Conjugation is a homomorphism, so the
permutations of u_k = h^-k u h^k, which generate U*, follow by gathers.  All
are kept with an identity row in one int32 buffer (InvolutionClass.steps);
a breadth-first int32 Schreier tree over them, its root labelled with the
identity row, reaches every vertex from vertex 0 (the transitivity proof),
and the permutations on the tree path to x compose to a conjugation
sigma_x with sigma_x(0) = x, gathered from the buffer with no copy
(InvolutionClass.carry).  Conjugation preserves product orders, so every
product-order fact is one about vertex 0 and constant on the orbits of
vertex 0's stabiliser.  The u_k fix the q - 1 involutions of U*'s
centre; with sigma = sigma_x* for the least such x*, sigma^-1 p sigma
fixes vertex 0 for each of their permutations p, and these generate
sigma^-1 U* sigma, whose 2q - 2 orbits are the classes
(stabiliser_suborbits).  One product per class but {0}, 2q - 3, gives the
table every vertex-0 fact reads (InvolutionClass.suborbits): the order
census is v/2 times the seed's row (orbital_order_census), the partners of
x are sigma_x of the seed's classes of order 2 and chi (seed_sets), and
the commuting classes are the orbit of one block, closed under the
generators by the suborbits' union-find (_join, block_partition).  The
closure starts from the Sylow 2-centres read from the rows, x's being the
column space of x + I (sylow_keys), so that one pass over u_(m-1), w and
h proves them (sylow_partition).  Graph construction carries vertex 0's
partner sets the same way (fusion._carried_graph); full_order_scan,
sampled_order_check and the direct products of cross_check_rows are
oracles.

All matrix arithmetic runs on numpy arrays of element codes with
multiplication as table gathers (_Kernels): one take from the flat dense
product table at the intp index (a << n) | b up to GF(1024), and the
antilog of summed logs above it.  Tuples only spell out the generators, the
seed and U.  Each family preserves the form of the reversal W, xbar^T W x
= W (bar is e -> e^q for PSU3 and the identity otherwise), so x^-1 = W
xbar^T W is an index flip and, for PSU3, one gather (_Kernels.inverse), and
check_group_form is one batch check of det 1 and x^-1 x = I.  Power tests
compare with that inverse instead of forming the power: P^(2j) is central
iff P^j is P^-j up to the centre (_Kernels.projective_equal), and
P^(2j + 1) iff P^(j + 1) is, so _batch_orders makes one product per two
orders and _power_rows one or two per row block.  The scalar products,
adjugate inverse, canonical form and encoding are the tests' references
(tests/oracles.py).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bits, formulas
from .formulas import InvalidQ, PSL2, PSU3, SZ
from .gf2 import TABLE_MAX_ORDER, FieldCtx

Matrix = tuple[tuple[int, ...], ...]

ORDER_CAP_FACTOR = 4
PAIR_BLOCK = 1 << 21
CLASS_BLOCK = 1 << 17  # class rows conjugated or multiplied at once: bounds their intp indices


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


# -- the reversal, whose form each family preserves ---------------------------


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
        if (q + 1) % 3 == 0:  # the cube roots of unity g^(k(q^2 - 1)/3)
            center = tuple(int(ctx.exp3[k * (ctx.order - 1) // 3]) for k in range(3))
        else:
            center = (1,)
    else:
        ctx = FieldCtx(n)
        center = (1,)
    return GroupSpec(family=family, n=n, q=q, l=l, chi=chi, dim=dim,
                     ctx=ctx, center=center)


# -- family forms and generators ----------------------------------------------


def check_group_form(spec: GroupSpec, ms) -> None:
    """Necessary membership conditions on a batch of matrices (a sequence
    of d x d matrices or an (m, d, d) array): entries in the field, det 1
    and the invariant form, that is, _Kernels.inverse(x) x = I."""
    d = spec.dim
    x = np.array(ms, dtype=np.int64)
    if x.ndim != 3 or x.shape[1:] != (d, d):
        raise NotInGroupForm(f"expected {d}x{d} matrices")
    if ((x < 0) | (x >= spec.ctx.order)).any():
        raise NotInGroupForm("entry out of field range")
    kern = _Kernels(spec)
    x = x.astype(kern.dtype)
    if (kern.det(x) != 1).any():
        raise NotInGroupForm("determinant is not 1")
    if (kern.mul_batch(kern.inverse(x), x) != np.eye(d, dtype=kern.dtype)).any():
        raise NotInGroupForm("invariant form not preserved")


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


def _psu3_trace_one(spec: GroupSpec) -> int:
    """w = 2 / (2 + 2^q), of trace w + w^q = 1, so that y = x^(q+1) w
    solves y + y^q = x^(q+1).  The code 2, the polynomial t, generates
    GF(q^2), so it lies outside GF(q) and 2 + 2^q is not 0."""
    ctx = spec.ctx
    return ctx.mul(2, ctx.inv(2 ^ ctx.frobenius(2, spec.n)))


def sylow_unipotents(spec: GroupSpec) -> tuple[list[Matrix], list[Matrix]]:
    """(U, Z(U)^#): the q^l elements of the lower unitriangular Sylow
    2-subgroup U, identity first, and the q - 1 involutions of its centre.

    PSL2: [[1, 0], [a, 1]], all of U central.  Sz: S(a, b), centre S(0, b).
    PSU3: (x, x^(q+1) w + t) for x in GF(q^2) and t in GF(q), w of trace 1
    (_psu3_trace_one), centre (0, t).  Not checked here: closed_class
    proves whatever involution_class makes of them.
    """
    ctx, q = spec.ctx, spec.q
    if spec.family == PSL2:
        unip = [((1, 0), (a, 1)) for a in range(q)]
    elif spec.family == SZ:
        unip = [_sz_unipotent(spec, a, b) for a in range(q) for b in range(q)]
    else:
        w = _psu3_trace_one(spec)
        subfield = [t for t in range(ctx.order) if ctx.frobenius(t, spec.n) == t]
        unip = [_psu3_unipotent(spec, x, y ^ t)
                for x, y in ((x, ctx.mul(ctx.pow(x, q + 1), w)) for x in range(ctx.order))
                for t in subfield]
    return unip, unip[1:q]  # a = 0 (psl2: any a), b or t != 0


def generators(spec: GroupSpec) -> list[Matrix]:
    """The three conjugators [u, w, h], each form-checked here: a unipotent
    u of one Sylow 2-subgroup U* (upper unitriangular for PSL2, lower for
    Sz and PSU3), the reversal w and a torus element h normalising U*.

    With lam = ctx._exp[1], a generator of the multiplicative group: PSL2
    u = ((1, 1), (0, 1)), h = diag(lam, lam^-1); Sz u = S(1, 0), h =
    _sz_torus; PSU3 u = (1, w) of _psu3_unipotent, w of trace 1, h =
    diag(lam, lam^(q-1), lam^-q).  h^-1 u(a) h = u(mu a) for mu = lam^-2,
    2 (the polynomial t) and lam^(2-q), in no proper subfield, so the
    parameters mu^k of u_k = h^-k u h^k, k < sylow_generator_count(spec),
    are a GF(2)-basis of the field of a: the u_k span U* modulo its
    Frattini subgroup (trivial for PSL2, the centre for Sz and PSU3), so
    they generate U*.  closed_class derives their permutations from u's
    and h's and proves the set sufficient with its Schreier tree;
    run_verify's class count refuses u_k that generate less than U*.
    """
    ctx, q = spec.ctx, spec.q
    lam = ctx._exp[1]
    if spec.family == PSL2:
        u, h = ((1, 1), (0, 1)), ((lam, 0), (0, ctx.inv(lam)))
    elif spec.family == SZ:
        u, h = _sz_unipotent(spec, 1, 0), _sz_torus(spec)
    else:
        u = _psu3_unipotent(spec, 1, _psu3_trace_one(spec))
        h = ((lam, 0, 0), (0, ctx.pow(lam, q - 1), 0), (0, 0, ctx.inv(ctx.pow(lam, q))))
    gens = [u, reversal(spec.dim), h]
    try:
        check_group_form(spec, gens)
    except NotInGroupForm as e:
        raise GeneratorValidationFailed(f"generator fails form check: {e}") from e
    return gens


def sylow_generator_count(spec: GroupSpec) -> int:
    """How many rows of InvolutionClass.steps, from the first, are the
    u_k = h^-k u h^k of generators(spec), which generate U*: the degree of
    the field of their parameter, n for PSL2 and Sz, 2n for PSU3."""
    return spec.ctx.n


# -- canonical projective form -------------------------------------------------


def encodings(codes: np.ndarray) -> np.ndarray:
    """(m, d, d) codes -> (m, B) uint8 rows, each matrix's encoding: its
    entries row-major, each little-endian in the width of the codes' dtype,
    1 byte up to GF(2^8) and 2 above (fields stop at GF(2^16))."""
    m, d = codes.shape[0], codes.shape[-1]
    le = np.ascontiguousarray(codes, dtype=codes.dtype.newbyteorder("<"))
    return le.view(np.uint8).reshape(m, d * d * le.itemsize)


# -- vectorized kernels ----------------------------------------------------------


class _Kernels:
    """Batched matrix products over element-code arrays (table gathers)."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.dtype = spec.ctx.code_dtype
        self.full, self.log, self.exp3 = spec.ctx.full, spec.ctx.log, spec.ctx.exp3
        self.shift = spec.ctx.n
        # flat[(a << n) | b] = a * b, the dense table's rows end to end
        self.flat = None if self.full is None else self.full.reshape(-1)
        # the centre's scalar matrices z*I, which central_scalar_mask compares with
        z = np.array(spec.center, dtype=self.dtype)
        self.scalars = z[:, None, None] * np.eye(spec.dim, dtype=self.dtype)
        # reciprocal[e] = 1/e (0 for 0), for projective_equal and the Sylow keys
        self.reciprocal = np.zeros(spec.ctx.order, dtype=self.dtype)
        self.reciprocal[1:] = self.exp3[spec.ctx.order - 1 - self.log[1:]]
        self.least_scale = None  # least_scale[e]: the z in the centre whose z*e encodes least
        self.central = None  # central[e]: e in the centre, for projective_equal
        if len(z) > 1:
            scaled = self._mul(z[:, None], np.arange(spec.ctx.order, dtype=self.dtype))
            self.least_scale = z[scaled.byteswap().argmin(axis=0)]
            self.central = np.zeros(spec.ctx.order, dtype=bool)
            self.central[z] = True
        self.bar = None  # bar[e] = e^q, the field automorphism of the PSU3 form
        if spec.family == PSU3:
            self.bar = np.arange(spec.ctx.order, dtype=self.dtype)
            for _ in range(spec.n):
                self.bar = self._mul(self.bar, self.bar)

    def _mul(self, a, b):
        """Entrywise a * b of broadcast code arrays: one gather from the flat
        dense table at the intp index (a << n) | b, or, above
        FULL_TABLE_MAX_ORDER, the antilog of the summed logs."""
        if self.flat is not None:
            return self.flat.take((a.astype(np.intp) << self.shift) | b)
        return self.exp3.take(self.log.take(a) + self.log.take(b))

    def mul_batch(self, a, b):
        """(m, d, d) @ (m, d, d)."""
        d = a.shape[-1]
        out = self._mul(a[..., :, 0, None], b[..., 0, None, :])
        for k in range(1, d):
            out ^= self._mul(a[..., :, k, None], b[..., k, None, :])
        return out

    def mul_left(self, g, x):
        """Fixed (d, d) times batch (m, d, d).  Row k of every matrix,
        x[:, k, :], is a slice numpy cannot flatten (stride d^2, length d),
        so the rows are copied out once, each one contiguous (m, d) block."""
        d = len(g)
        rows = np.ascontiguousarray(x.transpose(1, 0, 2))
        out = np.zeros_like(rows)
        for i in range(d):
            for k in range(d):
                e = int(g[i][k])
                if e:
                    out[i] ^= self.scale(e, rows[k])
        return np.ascontiguousarray(out.transpose(1, 0, 2))

    def mul_right(self, x, g):
        """Batch (m, d, d) times fixed (d, d)."""
        d = len(g)
        out = np.zeros_like(x)
        for j in range(d):
            for k in range(d):
                e = int(g[k][j])
                if e:
                    out[:, :, j] ^= self.scale(e, x[:, :, k])
        return out

    def scale(self, z: int, x):
        """z * x for a field element z; x itself, not a copy, for z = 1,
        which most generator and unipotent entries are."""
        if z == 1:
            return x
        if self.full is not None:
            return self.full[z].take(x)
        return self.exp3.take(self.log.take(x) + self.log[z])

    def inverse(self, x):
        """Per-matrix inverse of group elements: each preserves the form of
        the reversal W, xbar^T W x = W (bar the identity, or e -> e^q for
        PSU3), so x^-1 = W xbar^T W, x reflected in its antidiagonal and
        barred.  For other matrices it is the form's adjoint of x."""
        flipped = x[..., ::-1, ::-1].swapaxes(-1, -2)
        return flipped if self.bar is None else self.bar[flipped]

    def det(self, x):
        """Per-matrix determinant: the Leibniz sum, whose signs vanish in
        characteristic 2."""
        d = x.shape[-1]
        out = np.zeros(x.shape[:-2], dtype=self.dtype)
        for perm in itertools.permutations(range(d)):
            term = x[..., 0, perm[0]]
            for i in range(1, d):
                term = self._mul(term, x[..., i, perm[i]])
            out ^= term
        return out

    def central_scalar_mask(self, x):
        """Per-matrix: is x one of the centre's scalar matrices z*I."""
        return (x[:, None] == self.scalars).all(axis=(2, 3)).any(axis=1)

    def projective_equal(self, a, b):
        """Per-matrix: is a = z*b for a z in the centre, so that a and b are
        one element of the projective group.  With a trivial centre that is
        a = b.  Otherwise z can only be the ratio of a's and b's entries at
        b's leading (first nonzero) entry: one ratio per matrix, checked to
        lie in the centre, and one gather that scales b by it."""
        if self.central is None:
            return (a == b).all(axis=(-2, -1))
        m, d = len(b), b.shape[-1]
        fa, fb, rows = a.reshape(m, d * d), b.reshape(m, d * d), np.arange(m)
        lead = (fb != 0).argmax(axis=1)
        z = self._mul(fa[rows, lead], self.reciprocal[fb[rows, lead]])
        return self.central[z] & (a == self._mul(z[:, None, None], b)).all(axis=(-2, -1))

    def encode_keys(self, x):
        """(m, d, d) codes -> the _word_keys of their encodings."""
        return _word_keys(encodings(x))

    def canonical_batch(self, x):
        """Canonicalize a batch; returns (codes, keys).

        The centre scalings z*m of a matrix m have the same zero entries,
        so their encodings first differ at m's leading entry e: z*e differs
        for each z, and an entry's little-endian bytes compare like its
        code byteswapped (1-byte codes: the code itself).  So the least is
        the one scaling by least_scale[e]."""
        if self.least_scale is not None:
            flat = x.reshape(len(x), x.shape[-1] ** 2)
            lead = flat[np.arange(len(x)), (flat != 0).argmax(axis=1)]
            x = self._mul(self.least_scale[lead][:, None, None], x)
        return x, self.encode_keys(x)


def _word_keys(keys):
    """(m, B) uint8 encodings -> (m, W) uint64 words, W = ceil(B / 8): the
    bytes zero-padded to 8W and read big-endian, so that the word-wise
    lexicographic order of the rows is the byte order of the encodings."""
    m, b = keys.shape
    padded = np.zeros((m, -(-b // 8) * 8), dtype=np.uint8)
    padded[:, :b] = keys
    return padded.view(">u8").astype(np.uint64)


_FOLD_COLLISION = "two distinct encodings share a sort key (their fold)"
_FOLD_MIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))


def _fold(words):
    """One uint64 sort key per row of words: the word itself when there
    is one, else each word XORed into a mix (the 64-bit finaliser of
    MurmurHash3) of the fold of those before it.  Not injective: a fold
    only orders rows, and _closure_perms compares every image it matches
    on all words."""
    out = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        for mul in _FOLD_MIX:
            out ^= out >> np.uint64(33)
            out *= mul
        out ^= out >> np.uint64(33)
        out ^= words[:, j]
    return out


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

    Vertices are numbered by the lexicographic order of their canonical
    encodings.  With one-byte codes the seed's encoding is the least, so
    it is vertex 0; the certificates work from vertex 0 whichever
    involution it is.  steps is one (t + 1, v) int32 buffer: steps[i, x]
    is the vertex g_i^-1 x g_i for the i-th of t matrices g_i, the u_k =
    h^-k u h^k, k < sylow_generator_count, then w and h (_closure_perms),
    and its last row is the identity.  perms is the view steps[:-1], and
    tree is their Schreier tree of vertex 0 (schreier_tree), whose root's
    label t names that identity row.  Only closed_class makes one, once it
    has proven codes the class, in this numbering.
    """

    def __init__(self, spec: GroupSpec, codes: np.ndarray, steps: np.ndarray, tree):
        self.spec = spec
        self.codes = codes
        self.steps = steps
        self.perms = steps[:-1]
        self.tree = tree
        self.kern = _Kernels(spec)
        self._sylow_labels = None
        self._seed_sets = None
        self._suborbits = None
        self._order_scan = None

    @property
    def size(self) -> int:
        return len(self.codes)

    def suborbits(self) -> "Suborbits":
        """stabiliser_suborbits, the 2q - 2 orbits of sigma^-1 U* sigma on
        the vertices, with the order of vertex 0's product with the least
        vertex of each class but {0}: 2q - 3 products."""
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

    def carry(self, xs, seed) -> np.ndarray:
        """(len(xs), len(seed)) array of sigma_x(seed) for x in xs: sigma_x,
        the generators on the tree path from 0 to x, carries 0 to x and 0's
        partners in a conjugation-invariant relation to x's.  The edge into
        y moves z to steps[label[y], z], read from the flat view of steps
        at the int64 offset label[y] * v (t * v can pass 2^31)."""
        parent, label, depth = self.tree
        flat = self.steps.reshape(-1)
        up = np.asarray(xs, dtype=np.int64)
        path = np.empty((int(depth[up].max(initial=0)), len(up)), dtype=np.int64)
        for row in path:  # xs, then their parents, one step up at a time
            row[:] = up
            up = parent[row]
        offsets = label[path].astype(np.int64) * self.size
        images = np.tile(np.asarray(seed, dtype=flat.dtype), (len(up), 1))
        for offset in offsets[::-1, :, None]:  # the generator nearest the root acts first
            images = flat[offset + images]
        return images

    def order_scan(self) -> "OrderScan":
        if self._order_scan is None:
            self._order_scan = full_order_scan(self)
        return self._order_scan

    def sylow_labels(self) -> np.ndarray:
        if self._sylow_labels is None:
            self._sylow_labels = sylow_partition(self)
        return self._sylow_labels


def _conjugate(kern: _Kernels, gi, g, x):
    """Canonical g^-1 x g for a batch x; returns (codes, keys)."""
    return kern.canonical_batch(kern.mul_right(kern.mul_left(gi, x), g))


def _seed_keys(spec: GroupSpec, kern: _Kernels) -> np.ndarray:
    """The keys of the canonical seed, once it is form-checked and proven
    an involution: not central, and its own inverse up to the centre."""
    seed = [seed_involution(spec)]
    check_group_form(spec, seed)
    seed = np.array(seed, dtype=kern.dtype)
    if kern.central_scalar_mask(seed)[0] or not kern.projective_equal(seed, kern.inverse(seed))[0]:
        raise SeedNotInvolution("seed is not an involution: it is central or its square is not")
    return kern.canonical_batch(seed)[1]


def _sylow_centre_rows(spec: GroupSpec) -> np.ndarray:
    """The canonical rows of Z(U)^# and of u^-1 (w z w) u for u in U and z
    in Z(U)^#, sorted by encoding (w the reversal).  A function of its
    own, so that its temporaries are freed before closed_class runs.

    Conjugation is linear: with M(z) = w z w + I, u^-1 (w z w) u is I plus
    the sum of M(z)_ij (u^-1 e_i)(e_j^T u) over the support of M, the
    entries nonzero for some z (one for PSL2 and PSU3, three for Sz).  The
    outer products are formed once per u, so each row costs one product
    gather per support entry and matrix entry, the entry of M(z) times the
    outer product's.  The rows are summed in place into one array, the
    (z, u) grid z-major in blocks of at most CLASS_BLOCK rows, and then
    canonicalised and keyed CLASS_BLOCK rows at a time, which bounds the
    gathers' intp indices and leaves no list of blocks to join."""
    kern = _Kernels(spec)
    unip, centre = sylow_unipotents(spec)
    u = np.array(unip, dtype=kern.dtype)
    z = np.array(centre, dtype=kern.dtype)
    d, nu, eye = spec.dim, len(u), np.eye(spec.dim, dtype=kern.dtype)
    w = reversal(d)
    m = kern.mul_right(kern.mul_left(w, z), w) ^ eye
    support = np.argwhere(m.any(axis=0))
    ui = kern.inverse(u)
    outer = [kern._mul(ui[:, :, i, None], u[:, None, j, :]) for i, j in support]
    codes = np.empty((len(z) * (nu + 1), d, d), dtype=kern.dtype)
    codes[:len(z)] = z
    grid = codes[len(z):].reshape(len(z), nu, d, d)
    step_u = min(nu, CLASS_BLOCK)
    step_z = max(1, CLASS_BLOCK // nu)
    for zlo in range(0, len(z), step_z):
        scalars = m[zlo:zlo + step_z, None, None, None]
        for ulo in range(0, nu, step_u):
            x = grid[zlo:zlo + step_z, ulo:ulo + step_u]
            x[:] = eye
            for (i, j), o in zip(support, outer):
                x ^= kern._mul(scalars[..., i, j], o[None, ulo:ulo + step_u])
    keys = np.empty((len(codes), -(-codes[0].nbytes // 8)), dtype=np.uint64)  # _word_keys
    for lo in range(0, len(codes), CLASS_BLOCK):
        block = slice(lo, lo + CLASS_BLOCK)
        codes[block], keys[block] = kern.canonical_batch(codes[block])
    return codes[np.lexsort(keys.T[::-1])]


def involution_class(spec: GroupSpec) -> InvolutionClass:
    """The class from the Sylow 2-centres, proven by closed_class.

    The Sylow 2-subgroups are U (sylow_unipotents) and u^-1 U^w u for u in
    U, w the reversal; each centre holds q - 1 involutions, and the class
    is their disjoint union: Z(U)^# and u^-1 (w z w) u for u in U and z in
    Z(U)^#, (q - 1)(q^l + 1) rows, each summed from scaled outer products
    (_sylow_centre_rows).  Canonical and sorted by encoding, they are only
    candidates: closed_class proves them the class and finds the generator
    permutations.
    """
    return closed_class(spec, _sylow_centre_rows(spec))


def closed_class(spec: GroupSpec, codes: np.ndarray) -> InvolutionClass:
    """The class whose vertex i is row i of codes, once proven to be
    exactly the class of the seed in the numbering by encoding;
    ClassSizeMismatch otherwise.  It is the one check on codes, whether
    involution_class enumerated them or they were read from outside the
    program.

    The rows must be d x d matrices of field codes, as many as the
    closed-form class size, with strictly increasing encodings (so
    distinct, and each at its vertex id); they must include the canonical
    seed and be closed under conjugation by each of generators(spec), u,
    w and h, and the permutations must act on them transitively: their
    Schreier tree from vertex 0 reaches every vertex.  The u_k's, derived
    from u's and h's, are conjugations by elements of <u, h>, so closure
    and transitivity make the set the seed's orbit under <u, w, h>, a
    subset of its class; the closed-form size makes it the whole class,
    which is what the orbital order census relies on.  The closure pass
    yields the permutations (_closure_perms).
    """
    d = spec.dim
    if (codes.dtype.kind not in "iu" or codes.ndim != 3 or codes.shape[1:] != (d, d)
            or codes.size and not (0 <= codes.min() and codes.max() < spec.ctx.order)):
        raise ClassSizeMismatch(f"class rows are not {d}x{d} matrices over GF({spec.ctx.order})")
    if len(codes) != spec.class_size():
        raise ClassSizeMismatch(f"class has {len(codes)} rows, expected {spec.class_size()}")
    codes = codes.astype(spec.ctx.code_dtype, copy=False)
    steps = _closure_perms(spec, codes)
    return InvolutionClass(spec, codes, steps, schreier_tree(steps[:-1]))


def _closure_perms(spec: GroupSpec, codes: np.ndarray) -> np.ndarray:
    """closed_class's permutations of the rows in one (m + 3, v) int32
    buffer (InvolutionClass.steps), once their encodings strictly increase,
    they hold the seed and each of generators(spec) = [u, w, h] conjugates
    them into themselves.  Each pass fills its generator's row, 0, m or
    m + 1 (m = sylow_generator_count(spec)), matching its images to the
    rows in order of fold: a permutation, whose images all equal their rows
    exactly when the generator permutes the rows.  Folds and comparisons
    run CLASS_BLOCK rows at a time, so the only temporary of v rows is each
    generator's fold order.  Conjugation is a homomorphism, so rows 1 to
    m - 1, u_k = h^-1 u_(k-1) h, are two gathers each: h's row at
    u_(k-1)'s row at the inverse of h's row."""
    kern = _Kernels(spec)
    words = kern.encode_keys(codes)
    if not _lex_less(words[:-1], words[1:]).all():
        raise ClassSizeMismatch("class has a duplicate or a reordered row: "
                                "encodings do not strictly increase")
    if not (words == _seed_keys(spec, kern)).all(axis=1).any():
        raise ClassSizeMismatch("class lacks the canonical seed involution")
    folds = _fold(words)
    rows_by_fold = np.argsort(folds).astype(np.int32)
    if (np.diff(folds[rows_by_fold]) == 0).any():
        raise ClassSizeMismatch(_FOLD_COLLISION)
    m = sylow_generator_count(spec)
    steps = np.empty((m + 3, len(codes)), dtype=np.int32)
    images, image_folds = np.empty_like(words), np.empty_like(folds)
    gens = np.array(generators(spec), dtype=kern.dtype)
    for t, (row, gi, g) in enumerate(zip((0, m, m + 1), kern.inverse(gens), gens)):
        for lo in range(0, len(codes), CLASS_BLOCK):
            block = slice(lo, lo + CLASS_BLOCK)
            images[block] = _conjugate(kern, gi, g, codes[block])[1]
            image_folds[block] = _fold(images[block])
        steps[row, np.argsort(image_folds)] = rows_by_fold
        for lo in range(0, len(codes), CLASS_BLOCK):
            block = slice(lo, lo + CLASS_BLOCK)
            if not (words[steps[row, block]] == images[block]).all():
                raise ClassSizeMismatch(f"class is not closed under conjugation by generator {t}")
    steps[-1] = np.arange(len(codes))
    h, h_inverse = steps[m + 1], np.empty_like(steps[-1])
    h_inverse[h] = steps[-1]
    for k in range(1, m):
        steps[k] = h[steps[k - 1][h_inverse]]
    return steps


def schreier_tree(perms: np.ndarray):
    """Breadth-first Schreier tree of vertex 0 as int32 (parent, label, depth).

    Vertex x other than the root is perms[label[x], parent[x]], depth[x]
    edges below the root; the root is its own parent, at depth 0, with
    label len(perms), the identity row of InvolutionClass.steps.  Raises
    ClassSizeMismatch unless the tree reaches every vertex, that is,
    unless the class is one orbit.
    """
    v = perms.shape[1]
    parent = np.full(v, -1, dtype=np.int32)
    label = np.full(v, len(perms), dtype=np.int32)
    depth = np.zeros(v, dtype=np.int32)
    parent[0] = 0
    frontier, d = np.zeros(1, dtype=np.int32), 0
    while len(frontier):
        d += 1
        # the first generator to reach a vertex names its edge; a permutation
        # reaches each vertex from one parent, and one at a time bounds the
        # temporaries by the frontier
        found = []
        for t, p in enumerate(perms):
            images = p[frontier]
            fresh = parent[images] < 0
            new = images[fresh]
            parent[new], label[new], depth[new] = frontier[fresh], t, d
            found.append(new)
        frontier = np.concatenate(found)
    if (parent < 0).any():
        raise ClassSizeMismatch(f"the generators carry vertex 0 to "
                                f"{int((parent >= 0).sum())} of {v} vertices")
    return parent, label, depth


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Join the class of a[i] with that of b[i] for each i, where a and b
    hold least vertices and root[y] is the least vertex of y's class;
    returns a new root and whether any classes joined."""
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


def merge_suborbits(root: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, bool]:
    """Join the classes of root (root[y] is the least vertex of y's class)
    that s links, y with s(y); returns the new root and whether any joined.

    Raises NotInStabiliser unless s fixes vertex 0: only a conjugation
    fixing vertex 0 keeps the order of 0's products.
    """
    if s[0] != 0:
        raise NotInStabiliser(f"the permutation moves vertex 0 to {int(s[0])}")
    return _join(root, root, root[s])


def stabiliser_suborbits(cls: InvolutionClass) -> np.ndarray:
    """root[y]: the least vertex of y's class, the classes being the orbits
    of sigma^-1 U* sigma, a subgroup of vertex 0's stabiliser.

    U* is generated by the Sylow generators (sylow_generator_count), which
    fix x*, the least vertex they all fix; ClassSizeMismatch if there is
    none.  sigma = sigma_x* carries 0 to x*, so s = sigma^-1 p sigma fixes
    0 for each Sylow generator's permutation p, and is conjugation by an
    element commuting with vertex 0's involution; merge_suborbits checks
    that s(0) = 0.  U* fixes the q - 1 involutions of its centre and acts
    regularly on the other q^l Sylow 2-centres, so on the rest of the class
    it has q - 1 orbits of q^l involutions: 2q - 2 classes, {0} one of
    them.  Each class lies in one suborbit (orbit of the stabiliser)
    whatever the generators are: a wrong set can only split a suborbit.
    """
    every = cls.steps[-1]
    sylow = cls.perms[:sylow_generator_count(cls.spec)]
    fixed = np.ones(cls.size, dtype=bool)
    for p in sylow:
        fixed &= p == every
    if not fixed.any():
        raise ClassSizeMismatch(f"no vertex is fixed by all {len(sylow)} Sylow generators")
    sigma = cls.carry([np.argmax(fixed)], every)[0]
    back = np.empty_like(sigma)
    back[sigma] = every
    root = every.copy()
    for p in sylow:
        root, _ = merge_suborbits(root, back[p[sigma]])
    return root


def _least_members(keys: np.ndarray) -> np.ndarray:
    """root[y]: the least y' with keys[y'] = keys[y], as int32.  One sort
    groups equal keys, and each run's least vertex is its minimum."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]]))
    root = np.empty(len(keys), dtype=np.int32)
    root[order] = np.repeat(np.minimum.reduceat(order, starts).astype(np.int32),
                            np.diff(starts, append=len(keys)))
    return root


def block_partition(perms: np.ndarray, base: np.ndarray,
                    hint: np.ndarray | None = None) -> np.ndarray:
    """Labels, numbered by least member, of the orbit of the vertex set base
    under the permutations, which must act transitively, as a class's do
    (schreier_tree), proven a partition as in Atkinson's block algorithm.

    The closure starts from the classes of hint (vertices with one hint
    value), or from singletons, joins base into one class and then passes
    over every permutation p, joining the class of p(y) with that of
    p(root[y]) (_join), until a whole pass joins nothing.  The result is
    then an equivalence that every permutation preserves and whose class of
    0 holds base; it has only classes of len(base) exactly when the class of
    0 is base and the classes are its orbit, whatever the hint was.  A hint
    that splits the blocks is joined back; one that merges two blocks leaves
    a class too large.  So a hint of the blocks themselves is proven in one
    pass, and from singletons the closure is the least such equivalence.
    Otherwise NotAnEquivalence, witness (x,) for the least x whose class
    has another size.
    """
    v, s = perms.shape[1], len(base)
    root = np.arange(v, dtype=perms.dtype) if hint is None else _least_members(hint)
    root, _ = _join(root, root[base[:-1]], root[base[1:]])
    joined = True
    while joined:
        joined = False
        for p in perms:
            # y ~ root[y], so p(y) ~ p(root[y]); a[y] is the least vertex of p(y)'s class
            a = root[p]
            root, moved = _join(root, a, a[root])
            joined |= moved
    sizes = np.bincount(root, minlength=v)[root]
    if (sizes != s).any():
        x = int(np.argmax(sizes != s))
        raise NotAnEquivalence(f"the block of {x} has {sizes[x]} members, expected {s}",
                               witness=(x,))
    return (np.cumsum(root == np.arange(v)) - 1)[root]


def _first_nonzero(rows: np.ndarray) -> np.ndarray:
    """Per column of rows, the index of its first nonzero entry (0 if none);
    a few times faster than argmax down the columns of rows != 0."""
    out = np.zeros(rows.shape[1], dtype=np.intp)
    for i in range(len(rows) - 1, -1, -1):
        out[rows[i] != 0] = i
    return out


def sylow_keys(kern: _Kernels, codes: np.ndarray) -> np.ndarray:
    """One uint64 key per class row x: the reduced echelon form of the
    column space of x + I, the Sylow 2-centre holding x, read CLASS_BLOCK
    rows at a time.

    The involutions of one centre are I + N for matrices N of one column
    space, of rank 1 for PSL2 and PSU3 and 2 for Sz; an involution's x + I
    squares to 0, so its rank is at most d / 2, and d // 2 elimination
    steps give the form.  A row scaled by a central omega has trace omega
    (the trace of I + N is 1 for d = 3), so with a non-trivial centre
    x + tr(x) I, whose column space is that of x / tr(x) + I, takes its
    place.  Each step takes c, the least coordinate where a column is
    nonzero, and the first such column, scaled to 1 at c, as the next form
    row; it clears c from the earlier form rows, and from the columns when
    another step follows.  The entries are held entry-major, y[i, j] the
    (m,) entries (i, j) of the block, so every operation runs on whole
    rows.  A form row, its pivot 1 with zeros before it, packs n bits an
    entry into n (d - 1) + 1 bits, n the field degree; make_group's int32
    vertex ids stop at psl2 n = 15, sz n = 9 and psu3 n = 7 (degree 14),
    so a key takes at most 16, 56 and 29 bits.
    """
    d, n = codes.shape[-1], kern.spec.ctx.n
    steps, width = d // 2, n * (d - 1) + 1
    keys = np.empty(len(codes), dtype=np.uint64)
    for lo in range(0, len(codes), CLASS_BLOCK):
        block = codes[lo:lo + CLASS_BLOCK]
        m = len(block)
        y = np.ascontiguousarray(block.reshape(m, d * d).T)
        diagonal = y[::d + 1]
        diagonal ^= 1 if kern.central is None else np.bitwise_xor.reduce(diagonal, axis=0)
        flat, offsets, coords = y.reshape(-1), np.arange(m), np.arange(d)[:, None]
        y = y.reshape(d, d, m)
        form = []
        for k in range(steps):
            c = _first_nonzero(np.bitwise_or.reduce(y, axis=1))
            at_c = flat.take(c * (d * m) + offsets + m * coords)  # y[c, j]
            j = _first_nonzero(at_c)
            pivot = flat.take(j * m + offsets + (d * m) * coords)  # y[i, j]
            pivot = kern._mul(kern.reciprocal[at_c.reshape(-1).take(j * m + offsets)], pivot)
            if k + 1 < steps:
                y ^= kern._mul(pivot[:, None, :], at_c[None, :, :])
            for row in form:
                row ^= kern._mul(row.reshape(-1).take(c * m + offsets), pivot)
            form.append(pivot)
        key = np.zeros(m, dtype=np.uint64)
        for r, row in enumerate(form):
            for i in range(d):
                key |= row[i].astype(np.uint64) << np.uint64(r * width + n * (d - 1 - i))
        keys[lo:lo + CLASS_BLOCK] = key
    return keys


def sylow_partition(cls: InvolutionClass) -> np.ndarray:
    """Classes of the commuting relation: the orbit of B0 = {0} + comm(0), a
    partition (block_partition) of q^l + 1 classes of q - 1, whose block of x
    is {x} + comm(x) = sigma_x(B0), the image holding x.  The closure starts
    from the Sylow 2-centres read from the rows (sylow_keys), so that the
    blocks it proves are found in one pass over the generators.  It passes
    over the last three permutations alone, u_(m-1), w and h: the other u_k
    are conjugates of u_(m-1) by powers of h, so a partition those three
    preserve is preserved by every permutation of the class."""
    spec = cls.spec
    labels = block_partition(cls.perms[sylow_generator_count(spec) - 1:],
                             np.concatenate([[0], cls.seed_sets().comm]),
                             hint=sylow_keys(cls.kern, cls.codes))
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
    and orders[t], the order of x0 y for every y in it, since each
    conjugated Sylow generator s = sigma^-1 p sigma conjugates by an h
    fixing x0: order(x0 y) = order(x0 s(y))."""

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
    fixed powers of its products P with every vertex, CLASS_BLOCK rows at a
    time, which bounds the gathers' intp indices.

    A product P of two distinct involutions commutes iff P^2 is central,
    that is, iff P is its own form inverse P^-1 up to the centre
    (_Kernels.projective_equal).  It has order chi iff P^chi is central (chi
    is prime, so no smaller order can collapse there): iff P^2 is P^-1 up
    to the centre for chi = 3, and P^3 is (P^2)^-1 for chi = 5.  That is
    one batch product per row block for PSL2 and PSU3, and two for Sz.
    """
    kern, v = cls.kern, cls.size
    rows = np.empty((2, v), dtype=bool)
    for lo in range(0, v, CLASS_BLOCK):
        block = slice(lo, lo + CLASS_BLOCK)
        p = kern.mul_left(cls.codes[x], cls.codes[block])
        p2, p_inverse = kern.mul_batch(p, p), kern.inverse(p)
        rows[0, block] = kern.projective_equal(p, p_inverse)
        if cls.spec.chi == 3:
            rows[1, block] = kern.projective_equal(p2, p_inverse)
        else:
            rows[1, block] = kern.projective_equal(kern.mul_batch(p2, p), kern.inverse(p2))
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
    """Projective orders of a batch of group elements by masked iteration;
    OrderCapExceeded if one exceeds cap.

    Order 1 is P central.  Then for j = 1, 2, ..., with P^j at hand, P^(2j)
    is central iff P^j is P^-j up to the centre, and P^(2j + 1) iff
    P^(j + 1) is.  P^-j is the form inverse of P^j (_Kernels.inverse), so
    each step makes one product, P^(j + 1), and tests two orders."""
    orders = np.zeros(len(p), dtype=np.int32)
    central = kern.central_scalar_mask(p)
    orders[central] = 1
    alive = np.flatnonzero(~central)
    base = cur = p[alive]
    j = 1
    while alive.size:
        if 2 * j > cap:
            raise OrderCapExceeded(f"order exceeds cap {cap}")
        back = kern.inverse(cur)
        even = kern.projective_equal(cur, back)
        cur = kern.mul_batch(cur, base)
        odd = kern.projective_equal(cur, back) & ~even
        if 2 * j + 1 > cap and odd.any():
            raise OrderCapExceeded(f"order exceeds cap {cap}")
        orders[alive[even]], orders[alive[odd]] = 2 * j, 2 * j + 1
        keep = ~(even | odd)
        alive, base, cur = alive[keep], base[keep], cur[keep]
        j += 1
    return orders


def orbital_order_census(cls: InvolutionClass) -> OrderCensus:
    """Exact product-order census of all pairs from cls.suborbits().

    Conjugation permutes the class, preserves product orders, and acts on
    the class transitively (closed_class proves every class so, by its
    Schreier tree).  So the census over unordered pairs
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
