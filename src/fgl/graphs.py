"""Exact graph algorithms on bitset adjacency rows.

Graphs are undirected, loop-free, and stored as packed bit rows (see
:mod:`fgl.bits`).  Every certificate in this module is computed by
exhaustive enumeration — common-neighbor counts by row-AND + popcount
over all vertex pairs, distance parameters over all (source, target)
pairs — so a returned certificate is a proof for the given graph, and
failures carry a minimal witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bits
from .formulas import IntersectionArray


class Disconnected(Exception):
    """Graph is not connected."""


class NotDistanceRegular(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAntipodal(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidDistanceSet(ValueError):
    """Distance-power index set is not a subset of {1..diameter}."""


class NotRegular(Exception):
    pass


class MoreThanTwoValues(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PartitionNotUniform(ValueError):
    pass


class NotEdgeRegular(Exception):
    pass


class Graph:
    """Immutable undirected graph on vertices 0..v-1 with bit-row adjacency."""

    __slots__ = ("v", "rows")

    def __init__(self, v: int, rows: np.ndarray):
        if rows.shape != (v, bits.word_count(v)):
            raise ValueError("adjacency rows have wrong shape")
        self.v = v
        self.rows = rows

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls, v: int) -> "Graph":
        return cls(v, bits.zero_rows(v, v))

    @classmethod
    def from_edges(cls, v: int, edges) -> "Graph":
        e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= v:
                raise ValueError("vertex id out of range")
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("loops not allowed")
        return cls(v, bits.rows_from_pairs(v, e[:, 0], e[:, 1]))

    @classmethod
    def from_bool(cls, mat: np.ndarray) -> "Graph":
        mat = np.asarray(mat, dtype=bool)
        v = mat.shape[0]
        if mat.shape != (v, v):
            raise ValueError("adjacency matrix must be square")
        if (mat != mat.T).any() or mat.diagonal().any():
            raise ValueError("adjacency must be symmetric and loop-free")
        return cls(v, bits.pack_bool(mat, v))

    # -- basic accessors ---------------------------------------------------

    def degrees(self) -> np.ndarray:
        return bits.popcount(self.rows)

    def valency(self) -> int:
        """Common valency; raises NotRegular when degrees differ."""
        deg = self.degrees()
        if self.v == 0:
            return 0
        if (deg != deg[0]).any():
            x = int(np.nonzero(deg != deg[0])[0][0])
            raise NotRegular(f"vertex {x} has degree {deg[x]} != {deg[0]}")
        return int(deg[0])

    def edge_count(self) -> int:
        return int(self.degrees().sum()) // 2

    def neighbors(self, i: int) -> np.ndarray:
        return bits.indices(self.rows[i], self.v)

    def edges(self):
        """Sorted (i, j) pairs with i < j."""
        out = []
        for i in range(self.v):
            js = self.neighbors(i)
            js = js[js > i]
            out.extend((i, int(j)) for j in js)
        return out

    def complement(self) -> "Graph":
        return Graph(self.v, ~(self.rows | bits.identity(self.v)) & bits.pad_mask(self.v))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.v == other.v
            and bool(np.array_equal(self.rows, other.rows))
        )

    def __hash__(self):
        raise TypeError("Graph is not hashable")

    def __repr__(self) -> str:
        return f"Graph(v={self.v}, edges={self.edge_count()})"

    def validate(self) -> None:
        """Check symmetry and zero diagonal (used on import)."""
        for i in range(self.v):
            if bits.get_bit(self.rows[i], i):
                raise ValueError(f"loop at vertex {i}")
        if not np.array_equal(bits.transpose(self.rows, self.v), self.rows):
            raise ValueError("adjacency is not symmetric")


# -- distances ------------------------------------------------------------


def distances_from(g: Graph, src: int) -> np.ndarray:
    """Exact BFS distances from src; unreachable vertices get -1."""
    v = g.v
    dist = np.full(v, -1, dtype=np.int32)
    dist[src] = 0
    seen = bits.zero_rows(1, v)[0]
    bits.set_bit(seen, src)
    frontier = np.array([src], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nxt = np.bitwise_or.reduce(g.rows[frontier], axis=0)
        nxt &= ~seen
        seen |= nxt
        frontier = bits.indices(nxt, v)
        dist[frontier] = d
    return dist


def diameter(g: Graph) -> int:
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


# -- distance-regularity ----------------------------------------------------


def intersection_array(g: Graph) -> IntersectionArray:
    """Verify distance-regularity over all vertex pairs and return the array.

    Raises NotDistanceRegular with a witness (src, y, parameter, expected,
    got) on the first violated constancy, Disconnected if not connected.
    """
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
        if (dist < 0).any():
            raise Disconnected("graph is not connected")
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
                if cnt.size == 0:
                    continue
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


def antipodal_classes(g: Graph) -> np.ndarray:
    """Class labels of the distance-{0, d} relation; NotAntipodal with witness."""
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


# -- common-neighbor machinery ---------------------------------------------


def iter_common_neighbor_counts(g: Graph, chunk: int = 8192):
    """Yield (x, counts) where counts[t] = |N(x) & N(y)| for y = x+1+t.

    Works in fixed-size chunks with preallocated buffers; the all-pairs
    passes are memory-bandwidth bound, so temporaries are kept small.
    """
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


def common_neighbor_spectrum(g: Graph) -> dict[int, int]:
    """Census {count: number of unordered distinct pairs realizing it}."""
    acc = np.zeros(1, dtype=np.int64)
    for _, cn in iter_common_neighbor_counts(g):
        if cn.size == 0:
            continue
        m = int(cn.max()) + 1
        if m > acc.size:
            acc = np.concatenate([acc, np.zeros(m - acc.size, dtype=np.int64)])
        acc += np.bincount(cn, minlength=acc.size)
    return {int(c): int(n) for c, n in enumerate(acc) if n}


@dataclass(frozen=True)
class DezaCert:
    """Certificate that every distinct pair has a or b common neighbors."""

    v: int
    k: int
    b: int
    a: int
    is_strict: bool
    is_edge_regular: bool
    is_strongly_regular: bool
    spectrum: dict

    def params(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.b, self.a)

    def to_dict(self) -> dict:
        return {
            "v": self.v, "k": self.k, "b": self.b, "a": self.a,
            "strict": self.is_strict,
            "edge_regular": self.is_edge_regular,
            "strongly_regular": self.is_strongly_regular,
        }


@dataclass(frozen=True)
class DdgCert:
    """Certificate of divisible-design structure for a given partition."""

    m: int
    r: int
    lambda_within: int
    lambda_cross: int

    def to_dict(self) -> dict:
        return {
            "num_classes": self.m, "class_size": self.r,
            "lambda_within": self.lambda_within, "lambda_cross": self.lambda_cross,
        }


def deza_check(g: Graph) -> DezaCert:
    """Exhaustive Deza certificate; raises NotRegular / MoreThanTwoValues."""
    k = g.valency()
    v = g.v
    values: list[int] = []
    edge_vals: set[int] = set()
    nonedge_vals: set[int] = set()
    spectrum: dict[int, int] = {}
    diam2 = v > 1
    for x, cn in iter_common_neighbor_counts(g):
        adj = bits.unpack_rows(g.rows[x], v)[x + 1:]
        for val in np.unique(cn[adj]):
            edge_vals.add(int(val))
        non = cn[~adj]
        for val in np.unique(non):
            nonedge_vals.add(int(val))
        if (non == 0).any():
            diam2 = False
        for val, cnt in zip(*np.unique(cn, return_counts=True)):
            val = int(val)
            spectrum[val] = spectrum.get(val, 0) + int(cnt)
            if val not in values:
                values.append(val)
                if len(values) > 2:
                    y = x + 1 + int(np.nonzero(cn == val)[0][0])
                    raise MoreThanTwoValues(
                        f"third common-neighbor value {val} at pair ({x},{y}); "
                        f"already saw {sorted(values[:2])}",
                        witness=(x, y, sorted(values)))
    if not values:
        values = [0]
    a = min(values)
    b = max(values)
    complete = (k == v - 1)
    is_strict = diam2 and not complete and a != b
    is_edge_regular = len(edge_vals) <= 1
    is_sr = is_edge_regular and len(nonedge_vals) <= 1
    return DezaCert(v=v, k=k, b=b, a=a, is_strict=is_strict,
                    is_edge_regular=is_edge_regular, is_strongly_regular=is_sr,
                    spectrum=spectrum)


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


def ddg_check(g: Graph, labels) -> DdgCert:
    """Verify common-neighbor counts depend only on same-class vs cross-class."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.v,):
        raise PartitionNotUniform("labels must assign a class to every vertex")
    classes, sizes = np.unique(labels, return_counts=True)
    if (sizes != sizes[0]).any():
        raise PartitionNotUniform(f"class sizes differ: {sorted(set(map(int, sizes)))}")
    g.valency()
    lam_w = None
    lam_c = None
    for x, cn in iter_common_neighbor_counts(g):
        same = labels[x + 1:] == labels[x]
        for sel, name, cur in ((same, "within", lam_w), (~same, "cross", lam_c)):
            vals = np.unique(cn[sel])
            if vals.size > 1 or (cur is not None and vals.size and int(vals[0]) != cur):
                got = sorted(set(map(int, vals)) | ({cur} if cur is not None else set()))
                y = x + 1 + int(np.nonzero(sel)[0][0])
                raise MoreThanTwoValues(
                    f"{name}-class common-neighbor count not constant: {got}",
                    witness=(x, y, got))
            if vals.size and cur is None:
                if name == "within":
                    lam_w = int(vals[0])
                else:
                    lam_c = int(vals[0])
    if lam_w is None or lam_c is None:
        raise PartitionNotUniform("partition admits no within- or no cross-class pair")
    return DdgCert(m=int(classes.size), r=int(sizes[0]),
                   lambda_within=lam_w, lambda_cross=lam_c)


# -- component / structure recognizers --------------------------------------


def connected_components(g: Graph) -> np.ndarray:
    labels = np.full(g.v, -1, dtype=np.int64)
    nxt = 0
    for x in range(g.v):
        if labels[x] >= 0:
            continue
        dist = distances_from(g, x)
        labels[dist >= 0] = nxt
        nxt += 1
    return labels


def recognize_clique_union(g: Graph):
    """(count, size) if g is a disjoint union of equal-size cliques, else None."""
    labels = connected_components(g)
    _, sizes = np.unique(labels, return_counts=True)
    if (sizes != sizes[0]).any():
        return None
    s = int(sizes[0])
    for x in range(g.v):
        comp = labels == labels[x]
        comp[x] = False
        if not np.array_equal(bits.unpack_rows(g.rows[x], g.v), comp):
            return None
    return int(sizes.size), s


def recognize_complete_multipartite(g: Graph):
    """(parts, size) if g is complete multipartite with equal parts, else None."""
    return recognize_clique_union(g.complement())


# -- fast exhaustive certificate for diameter-3 antipodal covers -------------


@dataclass(frozen=True)
class Cover3Cert:
    """Exhaustive distance-regularity + antipodality certificate, diameter 3.

    d2_rows / d3_rows / d13_rows are the packed adjacencies of the
    distance-2, distance-3 and distance-{1,3} graphs, labels the
    antipodal classes.
    """

    array: IntersectionArray
    labels: np.ndarray
    r: int
    cn_spectrum: dict
    d2_rows: np.ndarray
    d3_rows: np.ndarray
    d13_rows: np.ndarray


def antipodal_cover3_certificate(g: Graph) -> Cover3Cert:
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
    return Cover3Cert(array=arr, labels=labels, r=r, cn_spectrum=census,
                      d2_rows=d2_rows, d3_rows=d3_rows,
                      d13_rows=(g.rows | d3_rows))
