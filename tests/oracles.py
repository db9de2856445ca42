"""Exhaustive graph and group oracles for the library's certificates.

These brute-force routines check every vertex pair or every source; the
library certifies the same facts more cheaply (the cover certificate from
vertex 0's neighbor set), and the tests compare the two.  The scalar
product order is the reference for the batched order kernels.  The edge list and JSON
writer oracles walk the vertices one at a time, as the library did before
it moved to a single edge array.  The full generating sets (every
nontrivial unipotent of the Sz and PSU3 models, the PSU3 ones found by a
scan of all lower unitriangular matrices) must give the same class as the
library's O(n) sets.  carried_rows carries the seed's partner sets to
every vertex in one dense call, where the library works a block at a time.
"""

import json
from dataclasses import dataclass

import numpy as np

from fgl import bits
from fgl.formulas import PSU3, SZ, IntersectionArray
from fgl.graphs import (Disconnected, Graph, NotAntipodal, NotDistanceRegular,
                        NotRegular, connected_components, distances_from,
                        iter_common_neighbor_counts)
from fgl.groups import (NotInGroupForm, OrderCapExceeded, _sz_torus, _sz_unipotent,
                        check_group_form, generators, identity, mat_mul, reversal,
                        scalar_code)


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


def diameter(g: Graph) -> int:
    """Largest eccentricity, one BFS per source."""
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
    return element_order(spec, mat_mul(spec.ctx, cls.member(x), cls.member(y)))


def psu3_unitriangular_scan(spec) -> list:
    """Every lower unitriangular matrix ((1,0,0),(x,1,0),(y,x^q,1)) that
    passes the form check, found by trying all q^4 pairs (x, y)."""
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


def full_generators(spec) -> list:
    """Sz: all q^2 - 1 nontrivial unipotents S(a, b), a torus element and
    the reversal.  PSU3: all q^3 - 1 nontrivial unitriangular unitary
    matrices and the reversal.  PSL2: the library's set."""
    ctx = spec.ctx
    if spec.family == SZ:
        gens = [_sz_unipotent(spec, a, b)
                for a in ctx.elements() for b in ctx.elements() if (a, b) != (0, 0)]
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
