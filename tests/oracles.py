"""Exhaustive graph and group oracles for the library's certificates.

These brute-force routines check every vertex pair or every source; the
library certifies the same facts more cheaply (the cover certificate from
vertex 0's neighbor set), and the tests compare the two.  The scalar
product order is the reference for the batched order kernels.  The edge list and JSON
writer oracles walk the vertices one at a time, as the library did before
it moved to a single edge array; the JSON reader oracle is json.loads with
a type check per endpoint, where the library parses the bytes in chunks,
and validate checks that bit rows are a graph, which the library's readers
hold by construction.  The full generating sets (every
nontrivial unipotent of the Sz and PSU3 models, the PSU3 ones found by a
scan of all lower unitriangular matrices) must give the same class as the
library's O(n) sets.  distances_from and connected_components search
breadth-first from one source at a time, where the library labels the
classes of an equivalence given as bit rows; clique_rows builds the dense
same-label relation.  carried_rows carries the seed's partner sets to
every vertex in one dense call, where the library works a block at a time;
sigma_along_tree composes one sigma_x a generator at a time along the
tree path, where the library gathers whole levels from its flat buffer.
schreier_suborbits merges Schreier generators of vertex 0's stabiliser,
one (vertex, generator) pair at a time, where the library merges the
Sylow generators conjugated once.
The per-source and per-row certificates (one BFS per source, one
row-AND + popcount pass per vertex) are the references for the library's
blocked adjacency products.  involution_class_by_dict is the only
breadth-first builder of the class: the orbit of the seed under the
generators, with a Python dict keyed by encode() bytes, one matrix at a
time, where the library enumerates the Sylow 2-centres in closed form.
least_scaling encodes every centre scaling of one tuple matrix and keeps
the least (canonicalize form-checks it first), where the library scales
each matrix once, by its leading entry (_Kernels.canonical_batch).
mat_mul, mat_det (the Leibniz sum) and mat_inv_det1 (the adjugate) work on
tuple matrices one entry at a time, multiplying entries with the
carry-less reference FieldCtx.mul_poly, where the library gathers whole
batches from the field's log and product tables and inverts through the
invariant form (_Kernels.inverse).
from_edges builds a graph from a pair list and to_graph6 returns the
graph6 text, which the library only writes to files.
"""

import functools
import gc
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from fgl import bits
from fgl.formulas import PSU3, SZ, IntersectionArray
from fgl.graphio import GraphParseError, _graph6_chunks
from fgl.graphs import (DdgCert, DezaCert, Disconnected, Graph, MoreThanTwoValues,
                        NotAntipodal, NotDistanceRegular, NotRegular,
                        PartitionNotUniform)
from fgl.groups import (NotInGroupForm, OrderCapExceeded, _sz_torus, _sz_unipotent,
                        check_group_form, generators, merge_suborbits, reversal,
                        seed_involution)


@dataclass(frozen=True)
class ExhaustiveCover3Cert:
    """The fields of fusion.Cover3Cert with the distance relations as full
    packed rows: d2_rows / d3_rows / d13_rows are the adjacencies of the
    distance-2, distance-3 and distance-{1,3} graphs."""

    array: IntersectionArray
    labels: np.ndarray
    r: int
    cn_spectrum: dict
    d2_rows: np.ndarray
    d3_rows: np.ndarray
    d13_rows: np.ndarray


def distances_from(g: Graph, src: int) -> np.ndarray:
    """Exact BFS distances from src; unreachable vertices get -1."""
    dist = np.full(g.v, -1, dtype=np.int32)
    dist[src] = 0
    frontier, d = np.array([src]), 0
    while frontier.size:
        d += 1
        reached = bits.unpack_rows(np.bitwise_or.reduce(g.rows[frontier], axis=0), g.v)
        frontier = np.flatnonzero(reached & (dist < 0))
        dist[frontier] = d
    return dist


def connected_components(g: Graph) -> np.ndarray:
    """Component labels, numbered by least member, one BFS per component."""
    labels = np.full(g.v, -1, dtype=np.int64)
    nxt = 0
    for x in range(g.v):
        if labels[x] >= 0:
            continue
        labels[distances_from(g, x) >= 0] = nxt
        nxt += 1
    return labels


def clique_rows(labels) -> np.ndarray:
    """(v, W) bit matrix joining distinct items with equal labels."""
    labels = np.asarray(labels, dtype=np.int64)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    return bits.pack_bool(same)


def from_edges(v: int, pairs) -> Graph:
    """Graph on vertices 0..v-1 from an (m, 2) array or sequence of pairs."""
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= v):
        raise ValueError("vertex id out of range")
    return Graph(v, bits.rows_from_pairs(v, e[:, 0], e[:, 1]))


def to_graph6(g: Graph) -> str:
    """The graph6 text of g, as write_graph writes it less the newline."""
    return b"".join(_graph6_chunks(g)).decode("ascii")


def edges(g: Graph) -> np.ndarray:
    """(m, 2) int64 array of the pairs i < j, sorted lexicographically."""
    return np.concatenate([np.zeros((0, 2), dtype=np.int64), *g.edge_blocks()], dtype=np.int64)


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Sorted (i, j) pairs with i < j, one vertex at a time."""
    out = []
    for i in range(g.v):
        js = g.neighbors(i)
        out.extend((i, int(j)) for j in js[js > i])
    return out


def json_dumps_graph(g: Graph) -> str:
    """The graph JSON form as json.dumps of the edge lists."""
    return json.dumps({"v": g.v, "edges": [[i, j] for i, j in edge_list(g)]})


def load_json(text: str):
    """json.loads with the cyclic collector paused.  The parse allocates
    only acyclic lists and dicts, one per edge, and the collections they
    would trigger cost about as much as the parse itself."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise GraphParseError(f"bad JSON: {e}") from e
    finally:
        if enabled:
            gc.enable()


def from_json_obj(obj) -> Graph:
    try:
        v = obj["v"]
        edges = obj["edges"]
    except (KeyError, TypeError) as e:
        raise GraphParseError(f"bad graph JSON: {e}") from e
    if type(v) is not int:
        raise GraphParseError(f"vertex count must be an integer, not {type(v).__name__}")
    if v < 0:
        raise GraphParseError("negative vertex count")
    if not (type(edges) is list and {list}.issuperset(map(type, edges))
            and {2}.issuperset(map(len, edges))):
        raise GraphParseError("edges must be a list of [i, j] pairs")
    # fromiter would take true/false as 1/0, so the types are checked first
    endpoints = itertools.chain.from_iterable
    if not {int}.issuperset(map(type, endpoints(edges))):
        raise GraphParseError("edge endpoints must be integers within int64")
    try:
        e = np.fromiter(endpoints(edges), np.int64, count=2 * len(edges)).reshape(-1, 2)
    except OverflowError as err:
        raise GraphParseError("edge endpoints must be integers within int64") from err
    try:
        return from_edges(v, e)
    except ValueError as err:
        raise GraphParseError(str(err)) from err


def read_json_graph(text: str) -> Graph:
    """The reference graph JSON reader: json.loads, then a type check per
    endpoint and per pair, as read_graph did before it parsed bytes."""
    g = from_json_obj(load_json(text))
    validate(g)
    return g


def validate(g: Graph) -> None:
    """Raise ValueError unless g's bit rows are a graph: no loop, symmetric,
    and no bit set past column v - 1."""
    loops = (g.rows & bits.identity(g.v)).any(axis=1)
    if loops.any():
        raise ValueError(f"loop at vertex {int(np.argmax(loops))}")
    if (g.rows & ~bits.pad_mask(g.v)).any():
        raise ValueError("bit set past the last vertex")
    if not np.array_equal(bits.transpose(g.rows, g.v), g.rows):
        raise ValueError("adjacency is not symmetric")


def iter_common_neighbor_counts(g: Graph, chunk: int = 8192):
    """Yield (x, counts) where counts[t] = |N(x) & N(y)| for y = x+1+t, by
    row-AND + popcount, one row x at a time."""
    rows = g.rows
    v, w = g.v, rows.shape[1]
    andbuf = np.empty((chunk, w), dtype=rows.dtype)
    cntbuf = np.empty((chunk, w), dtype=np.uint8)
    for x in range(v - 1):
        counts = np.empty(v - x - 1, dtype=np.int64)
        row = rows[x]
        for lo in range(x + 1, v, chunk):
            hi = min(lo + chunk, v)
            m = hi - lo
            np.bitwise_and(row, rows[lo:hi], out=andbuf[:m])
            np.bitwise_count(andbuf[:m], out=cntbuf[:m], casting="unsafe")
            counts[lo - x - 1 : hi - x - 1] = cntbuf[:m].sum(axis=1, dtype=np.int64)
        yield x, counts


def intersection_array_per_source(g: Graph) -> IntersectionArray:
    """graphs.intersection_array with one BFS per source."""
    v = g.v
    if v == 0:
        raise Disconnected("empty graph")
    ref = distances_from(g, 0)
    if (ref < 0).any():
        raise Disconnected("graph is not connected")
    d = int(ref.max())
    bvals = [None] * (d + 1)
    cvals = [None] * (d + 1)
    for src in range(v):
        dist = distances_from(g, src) if src else ref
        if int(dist.max()) != d:
            raise NotDistanceRegular(
                f"eccentricity of {src} is {int(dist.max())}, expected {d}",
                witness=(src, int(dist.argmax())))
        masks = [bits.pack_bool(dist == i, v) for i in range(d + 1)]
        for i in range(d + 1):
            ys = np.nonzero(dist == i)[0]
            sub = g.rows[ys]
            for name, store, mask_i in (("c", cvals, i - 1), ("b", bvals, i + 1)):
                if not (0 <= mask_i <= d):
                    continue
                cnt = bits.popcount(sub & masks[mask_i])
                first = int(cnt[0])
                bad = np.nonzero(cnt != first)[0]
                if bad.size:
                    y = int(ys[bad[0]])
                    raise NotDistanceRegular(
                        f"{name}_{i} not constant: {int(cnt[bad[0]])} vs {first} "
                        f"(pair {src},{y} at distance {i})",
                        witness=(src, y, f"{name}{i}", first, int(cnt[bad[0]])))
                if store[i] is None:
                    store[i] = first
                elif store[i] != first:
                    raise NotDistanceRegular(
                        f"{name}_{i} differs between sources: {first} vs {store[i]}",
                        witness=(src, int(ys[0]), f"{name}{i}", store[i], first))
    return IntersectionArray(b=tuple(bvals[:d]), c=tuple(cvals[1:]))


def common_neighbor_spectrum_per_row(g: Graph) -> dict[int, int]:
    """graphs.common_neighbor_spectrum, one row at a time."""
    out: dict[int, int] = {}
    for _, cn in iter_common_neighbor_counts(g):
        for val, cnt in zip(*np.unique(cn, return_counts=True)):
            out[int(val)] = out.get(int(val), 0) + int(cnt)
    return dict(sorted(out.items()))


def deza_check_per_row(g: Graph) -> DezaCert:
    """graphs.deza_check, one row at a time; a third value is the first met
    in row order, the values of one row in increasing order."""
    k = g.valency()
    v = g.v
    values: list[int] = []
    edge_vals: set[int] = set()
    nonedge_vals: set[int] = set()
    diam2 = v > 1
    for x, cn in iter_common_neighbor_counts(g):
        adj = bits.unpack_rows(g.rows[x], v)[x + 1:]
        edge_vals.update(map(int, cn[adj]))
        nonedge_vals.update(map(int, cn[~adj]))
        if (cn[~adj] == 0).any():
            diam2 = False
        for val in map(int, np.unique(cn)):
            if val not in values:
                values.append(val)
                if len(values) > 2:
                    y = x + 1 + int(np.nonzero(cn == val)[0][0])
                    raise MoreThanTwoValues(
                        f"third common-neighbor value {val} at pair ({x},{y}); "
                        f"already saw {sorted(values[:2])}",
                        witness=(x, y, sorted(values)))
    a, b = min(values, default=0), max(values, default=0)
    is_edge_regular = len(edge_vals) <= 1
    return DezaCert(v=v, k=k, b=b, a=a, is_strict=diam2 and k != v - 1 and a != b,
                    is_edge_regular=is_edge_regular,
                    is_strongly_regular=is_edge_regular and len(nonedge_vals) <= 1,
                    spectrum=common_neighbor_spectrum_per_row(g))


def ddg_check_per_row(g: Graph, labels) -> DdgCert:
    """graphs.ddg_check, one row at a time."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.v,) or not g.v:
        raise PartitionNotUniform("labels must assign a class to every vertex, of at least one")
    classes, sizes = np.unique(labels, return_counts=True)
    if (sizes != sizes[0]).any():
        raise PartitionNotUniform(f"class sizes differ: {sorted(set(map(int, sizes)))}")
    g.valency()
    lam = {"within": None, "cross": None}
    for x, cn in iter_common_neighbor_counts(g):
        same = labels[x + 1:] == labels[x]
        for sel, name in ((same, "within"), (~same, "cross")):
            vals = set(map(int, cn[sel]))
            cur = lam[name]
            if len(vals) > 1 or (cur is not None and vals and vals != {cur}):
                got = sorted(vals | ({cur} if cur is not None else set()))
                y = x + 1 + int(np.nonzero(sel)[0][0])
                raise MoreThanTwoValues(
                    f"{name}-class common-neighbor count not constant: {got}",
                    witness=(x, y, got))
            if vals and cur is None:
                lam[name] = vals.pop()
    if lam["within"] is None or lam["cross"] is None:
        raise PartitionNotUniform("partition admits no within- or no cross-class pair")
    return DdgCert(m=int(classes.size), r=int(sizes[0]),
                   lambda_within=lam["within"], lambda_cross=lam["cross"])


def diameter(g: Graph) -> int:
    """Largest eccentricity, one BFS per source."""
    if g.v == 0:
        raise Disconnected("empty graph")
    dist = distances_from(g, 0)
    if (dist < 0).any():
        raise Disconnected(f"vertex {int(np.nonzero(dist < 0)[0][0])} unreachable from 0")
    ecc = int(dist.max())
    for src in range(1, g.v):
        dist = distances_from(g, src)
        if (dist < 0).any():
            raise Disconnected(f"vertex unreachable from {src}")
        ecc = max(ecc, int(dist.max()))
    return ecc


def identity(d: int):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(ctx, a, b):
    """The product of two tuple matrices, one entry at a time."""
    d = len(a)
    return tuple(tuple(functools.reduce(operator.xor, (ctx.mul_poly(a[i][k], b[k][j]) for k in range(d)))
                       for j in range(d)) for i in range(d))


def mat_det(ctx, a) -> int:
    """The Leibniz sum; in characteristic 2 the permutation signs vanish."""
    d = len(a)
    s = 0
    for perm in itertools.permutations(range(d)):
        s ^= functools.reduce(ctx.mul_poly, (a[i][perm[i]] for i in range(d)))
    return s


def mat_inv_det1(ctx, a):
    """The inverse of a determinant-1 matrix as its adjugate, the (i, j)
    entry being the determinant of a without row j and column i."""
    if mat_det(ctx, a) != 1:
        raise NotInGroupForm("matrix does not have determinant 1")
    d = len(a)

    def minor(r, c):
        return mat_det(ctx, tuple(tuple(a[i][j] for j in range(d) if j != c)
                                  for i in range(d) if i != r))

    return tuple(tuple(minor(j, i) for j in range(d)) for i in range(d))


def scalar_code(a) -> int | None:
    """The scalar s if a = s*I, else None."""
    s = a[0][0]
    return s if a == tuple(tuple(s if i == j else 0 for j in range(len(a)))
                           for i in range(len(a))) else None


def mat_scale(ctx, s: int, a):
    return tuple(tuple(ctx.mul_poly(s, e) for e in row) for row in a)


def encode(spec, m) -> bytes:
    """Row-major bytes, each entry little-endian in the field's width."""
    w = (spec.ctx.n + 7) // 8
    return b"".join(int(e).to_bytes(w, "little") for row in m for e in row)


def least_scaling(spec, m):
    """The encode()-least of the centre scalings z*m, found by encoding
    every one of them."""
    return min((mat_scale(spec.ctx, z, m) for z in spec.center), key=lambda a: encode(spec, a))


def canonicalize(spec, m):
    """The canonical form of a group element: form-checked, then least_scaling."""
    check_group_form(spec, [m])
    return least_scaling(spec, m)


def member(cls, i: int):
    """Vertex i of cls as a tuple matrix."""
    return tuple(tuple(int(e) for e in row) for row in cls.codes[i])


def element_order(spec, m) -> int:
    """Least k >= 1 with m^k a center scalar (projective order)."""
    cur = m
    for k in range(1, spec.order_cap + 1):
        s = scalar_code(cur)
        if s is not None and s in spec.center:
            return k
        cur = mat_mul(spec.ctx, cur, m)
    raise OrderCapExceeded(
        f"no power of the element is central within {spec.order_cap} steps")


def product_order(spec, x: int, y: int, cls) -> int:
    return element_order(spec, mat_mul(spec.ctx, member(cls, x), member(cls, y)))


def vertex_index(cls) -> dict[bytes, int]:
    """encode() bytes of each member of cls -> its vertex."""
    return {encode(cls.spec, member(cls, i)): i for i in range(cls.size)}


def involution_class_by_dict(spec):
    """(codes, perms) of the class: breadth-first from the seed
    under conjugation by the library's generators, on scalar matrices, with
    a dict from canonical encodings to breadth-first numbers; vertices are
    then numbered by encoding, as the library numbers them."""
    ctx = spec.ctx
    gens = [(mat_inv_det1(ctx, g), g) for g in generators(spec)]
    seed = canonicalize(spec, seed_involution(spec))
    members, number = [seed], {encode(spec, seed): 0}
    images = [[] for _ in gens]
    for m in members:  # grows as the search goes
        for row, (gi, g) in zip(images, gens):
            c = least_scaling(spec, mat_mul(ctx, gi, mat_mul(ctx, m, g)))
            key = encode(spec, c)
            if key not in number:
                number[key] = len(members)
                members.append(c)
            row.append(number[key])
    keys = list(number)  # in breadth-first order
    order = sorted(range(len(members)), key=keys.__getitem__)
    rank = np.empty(len(members), dtype=np.int64)
    rank[order] = np.arange(len(members))
    codes = np.array([members[i] for i in order], dtype=spec.ctx.code_dtype)
    return codes, rank[np.array(images)[:, order]]


def psu3_unitriangular_scan(spec) -> list:
    """Every lower unitriangular matrix ((1,0,0),(x,1,0),(y,x^q,1)) that
    passes the form check, found by trying all q^4 pairs (x, y)."""
    ctx = spec.ctx
    out = []
    for x in range(ctx.order):
        xq = ctx.frobenius(x, spec.n)
        for y in range(ctx.order):
            m = ((1, 0, 0), (x, 1, 0), (y, xq, 1))
            try:
                check_group_form(spec, [m])
            except NotInGroupForm:
                continue
            out.append(m)
    return out


def full_generators(spec) -> list:
    """Sz: all q^2 - 1 nontrivial unipotents S(a, b), a torus element and
    the reversal.  PSU3: all q^3 - 1 nontrivial unitriangular unitary
    matrices and the reversal.  PSL2: the library's set."""
    ctx = spec.ctx
    if spec.family == SZ:
        gens = [_sz_unipotent(spec, a, b)
                for a in range(ctx.order) for b in range(ctx.order) if (a, b) != (0, 0)]
        return gens + [_sz_torus(spec), reversal(4)]
    if spec.family == PSU3:
        return [m for m in psu3_unitriangular_scan(spec) if m != identity(3)] + [reversal(3)]
    return generators(spec)


def carried_rows(cls, seed) -> np.ndarray:
    """Packed rows of the relation whose row x is sigma_x(seed), all rows
    carried at once by InvolutionClass.carry."""
    v = cls.size
    mat = np.zeros((v, v), dtype=bool)
    mat[np.arange(v)[:, None], cls.carry(np.arange(v), seed)] = True
    return bits.pack_bool(mat, v)


def sigma_along_tree(cls, x: int) -> np.ndarray:
    """sigma_x over all vertices, composed one generator permutation at a
    time along the Schreier tree path from vertex 0 down to x."""
    parent, label, _ = cls.tree
    path = []
    while x != 0:
        path.append(int(label[x]))
        x = int(parent[x])
    sigma = np.arange(cls.size)
    for t in reversed(path):  # the edge nearest the root acts first
        sigma = cls.perms[t][sigma]
    return sigma


def schreier_generators(cls):
    """Permutations s = sigma_g(u)^-1 o g o sigma_u of vertex 0's stabiliser,
    one for each vertex u and generator g, less the identities.  The u run
    k * stride mod v for k = 0 .. v - 1, stride the integer nearest v / phi^2
    that is prime to v, so that every vertex comes once and consecutive
    ones lie far apart.

    sigma_x is carried over all vertices (InvolutionClass.carry), so
    s(0) = 0; by Schreier's lemma all of them generate the stabiliser.
    When g is the tree edge into g(u), sigma_g(u) = g o sigma_u and s is
    the identity, so no sigma is carried for it.
    """
    perms = cls.perms
    parent, label, _ = cls.tree
    every = cls.steps[-1]
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


def schreier_suborbits(cls) -> np.ndarray:
    """root[y], the least vertex of y's class, from the Schreier generators
    merged until |generators| of them in a row join nothing; run to the
    end they would give the suborbits themselves."""
    root = np.arange(cls.size, dtype=np.int32)
    idle, patience = 0, len(cls.perms)
    for s in schreier_generators(cls):
        root, joined = merge_suborbits(root, s)
        idle = 0 if joined else idle + 1
        if idle == patience:
            break
    return root


def antipodal_classes_two_pass(g: Graph) -> np.ndarray:
    """Labels of the distance-{0, d} relation from a diameter pass and a
    second BFS per source."""
    v = g.v
    d = diameter(g)
    far = bits.zero_rows(v, v)
    for src in range(v):
        dist = distances_from(g, src)
        sel = dist == d
        sel[src] = True
        far[src] = bits.pack_bool(sel, v)
    labels, witness = bits.equivalence_classes(far, v)
    if witness:
        x, y, z = witness
        raise NotAntipodal(
            f"distance-{{0,{d}}} relation is not transitive at ({x},{y},{z})", witness=witness)
    return labels


class InvalidDistanceSet(ValueError):
    """Distance-power index set is not a subset of {1..diameter}."""


class NotEdgeRegular(Exception):
    pass


def distance_power(g: Graph, dist_set) -> Graph:
    """Graph joining vertices whose distance lies in dist_set (0 rejected)."""
    ds = set(int(x) for x in dist_set)
    if 0 in ds:
        raise InvalidDistanceSet("0 is not an edge relation")
    d = diameter(g)
    if not ds or not ds.issubset(range(1, d + 1)):
        raise InvalidDistanceSet(f"distance set {sorted(ds)} not within 1..{d}")
    rows = bits.zero_rows(g.v, g.v)
    for src in range(g.v):
        dist = distances_from(g, src)
        sel = np.isin(dist, list(ds))
        rows[src] = bits.pack_bool(sel, g.v)
    return Graph(g.v, rows)


def edge_regular_lambda(g: Graph) -> int:
    """Common neighbor count on edges; NotEdgeRegular if not constant."""
    g.valency()
    lam = None
    for x, cn in iter_common_neighbor_counts(g):
        adj = bits.unpack_rows(g.rows[x], g.v)[x + 1:]
        vals = np.unique(cn[adj])
        for val in vals:
            if lam is None:
                lam = int(val)
            elif int(val) != lam:
                raise NotEdgeRegular(f"edge common-neighbor counts {lam} and {int(val)}")
    if lam is None:
        raise NotEdgeRegular("graph has no edges")
    return lam


def clique_union_per_vertex(g: Graph):
    """recognize_clique_union by comparing each vertex's row with its component."""
    labels = connected_components(g)
    _, sizes = np.unique(labels, return_counts=True)
    if (sizes != sizes[0]).any():
        return None
    for x in range(g.v):
        comp = labels == labels[x]
        comp[x] = False
        if not np.array_equal(bits.unpack_rows(g.rows[x], g.v), comp):
            return None
    return int(sizes.size), int(sizes[0])


def antipodal_cover3_certificate(g: Graph) -> ExhaustiveCover3Cert:
    """Certify that g is an antipodal distance-regular graph of diameter 3.

    Single pass over all vertex pairs.  Each pair is classified by adjacency
    and common-neighbor count (adjacent -> distance 1; cn > 0 -> distance 2;
    cn = 0 -> distance >= 3), the candidate distance-3 relation is checked to
    be an equivalence with uniform classes, and b2 = 1 / c3 = k are verified
    through per-class neighbor counts.  Equivalent to intersection_array +
    antipodal_classes on such graphs but quadratic instead of cubic.
    """
    v = g.v
    try:
        k = g.valency()
    except NotRegular as e:
        raise NotDistanceRegular(f"b_0 not constant: {e}") from e
    if k == 0 or k == v - 1:
        raise NotDistanceRegular(f"valency {k} leaves no diameter-3 structure")
    a1 = None
    mu = None
    census: dict[int, int] = {}
    up2 = bits.zero_rows(v, v)   # strict upper triangle of the distance-2 relation
    up3 = bits.zero_rows(v, v)
    for x, cn in iter_common_neighbor_counts(g):
        adj = bits.unpack_rows(g.rows[x], v)[x + 1:]
        if adj.any():
            if a1 is None:
                a1 = int(cn[adj][0])
            bad = adj & (cn != a1)
            if bad.any():
                off = int(np.nonzero(bad)[0][0])
                raise NotDistanceRegular(
                    f"a_1 not constant on edges near vertex {x}",
                    witness=(x, x + 1 + off, "a1", a1, int(cn[off])))
        non = ~adj
        d2 = non & (cn > 0)
        if d2.any():
            if mu is None:
                mu = int(cn[d2][0])
            bad = d2 & (cn != mu)
            if bad.any():
                off = int(np.nonzero(bad)[0][0])
                raise NotDistanceRegular(
                    f"c_2 not constant at distance 2 near vertex {x}",
                    witness=(x, x + 1 + off, "c2", mu, int(cn[off])))
        d3 = non & (cn == 0)
        pad = np.zeros(x + 1, dtype=bool)
        up2[x] = bits.pack_bool(np.concatenate([pad, d2]), v)
        up3[x] = bits.pack_bool(np.concatenate([pad, d3]), v)
        for val, cnt in zip(*np.unique(cn, return_counts=True)):
            census[int(val)] = census.get(int(val), 0) + int(cnt)
    if a1 is None or mu is None:
        raise NotDistanceRegular("no edge or no distance-2 pair present")
    d2_rows = up2 | bits.transpose(up2, v)
    d3_rows = up3 | bits.transpose(up3, v)

    # distance-3 candidate relation must be an equivalence with uniform classes
    far_sizes = bits.popcount(d3_rows)
    if (far_sizes != far_sizes[0]).any():
        x = int(np.nonzero(far_sizes != far_sizes[0])[0][0])
        raise NotDistanceRegular(
            f"|distance-3 set| not constant: vertex {x}",
            witness=(0, x, "k3", int(far_sizes[0]), int(far_sizes[x])))
    r = int(far_sizes[0]) + 1
    if r < 2 or v % r:
        raise NotAntipodal(f"antipodal class size {r} does not divide v = {v}")
    labels, witness = bits.equivalence_classes(d3_rows | bits.identity(v), v)
    if witness:
        x, y, z = witness
        raise NotAntipodal(f"distance-3 relation not transitive at ({x},{y},{z})",
                           witness=witness)
    nclass = int(labels.max()) + 1

    # per-class neighbor counts: every vertex has exactly one neighbor in
    # each class other than its own (certifies b2 = 1; c3 = k follows)
    counts = np.zeros((nclass, v), dtype=np.int32)
    for c in range(nclass):
        members = np.nonzero(labels == c)[0]
        counts[c] = bits.unpack_rows(g.rows[members], v).sum(axis=0, dtype=np.int32)
    own = counts[labels, np.arange(v)]
    if own.any():
        y = int(np.nonzero(own)[0][0])
        raise NotAntipodal(f"vertex {y} adjacent to an antipodal partner")
    counts[labels, np.arange(v)] = 1
    if (counts != 1).any():
        c, y = map(int, np.argwhere(counts != 1)[0])
        x = int(np.nonzero(labels == c)[0][0])
        raise NotDistanceRegular(
            f"vertex {y} has {int(counts[c, y])} neighbors in class {c}, expected 1",
            witness=(x, y, "b2", 1, int(counts[c, y])))

    arr = IntersectionArray(b=(k, k - 1 - a1, 1), c=(1, mu, k))
    return ExhaustiveCover3Cert(array=arr, labels=labels, r=r, cn_spectrum=census,
                                d2_rows=d2_rows, d3_rows=d3_rows,
                                d13_rows=(g.rows | d3_rows))
