"""Exact graph algorithms on bitset adjacency rows.

Graphs are undirected, loop-free, and stored as packed bit rows (see
:mod:`fgl.bits`).  The generic certificates (intersection arrays,
antipodal classes, Deza and divisible-design checks, the recognizers)
enumerate exhaustively: common-neighbor counts by row-AND + popcount over
all vertex pairs, distance parameters over all (source, target) pairs.
So a returned certificate is a proof for the given graph, and failures
carry a witness.  The fusion graphs of the pipeline are certified from
vertex 0 instead (fusion.seed_set_cover3_certificate).
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


class NotRegular(Exception):
    pass


class MoreThanTwoValues(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PartitionNotUniform(ValueError):
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
        """Graph on vertices 0..v-1 from an (m, 2) array or sequence of pairs."""
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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

    def edges(self) -> np.ndarray:
        """(m, 2) int64 array of the pairs i < j, sorted lexicographically.

        Rows are unpacked at most bits.ROW_BLOCK_BITS entries at a time.
        """
        step = max(1, bits.ROW_BLOCK_BITS // max(self.v, 1))
        parts = [np.zeros((0, 2), dtype=np.int64)]
        for lo in range(0, self.v, step):
            block = bits.unpack_rows(self.rows[lo:lo + step], self.v)
            i, j = np.nonzero(np.triu(block, lo + 1))
            parts.append(np.stack([i + lo, j], axis=1))
        return np.concatenate(parts, dtype=np.int64)

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
        loops = (self.rows & bits.identity(self.v)).any(axis=1)
        if loops.any():
            raise ValueError(f"loop at vertex {int(np.argmax(loops))}")
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
    """Class labels of the distance-{0, d} relation; NotAntipodal with witness.

    One BFS per source records its eccentricity and the row of its vertices
    at that distance; a source whose eccentricity is below the diameter d
    relates only to itself.
    """
    v = g.v
    if v == 0:
        raise Disconnected("empty graph")
    ecc = np.zeros(v, dtype=np.int64)
    far = bits.zero_rows(v, v)
    for src in range(v):
        dist = distances_from(g, src)
        if (dist < 0).any():
            if src == 0:
                raise Disconnected(f"vertex {int(np.nonzero(dist < 0)[0][0])} unreachable from 0")
            raise Disconnected(f"vertex unreachable from {src}")
        ecc[src] = dist.max()
        sel = dist == ecc[src]
        sel[src] = True
        far[src] = bits.pack_bool(sel, v)
    d = int(ecc.max())
    short = ecc < d
    far[short] = bits.identity(v)[short]
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


def ddg_check(g: Graph, labels) -> DdgCert:
    """Verify common-neighbor counts depend only on same-class vs cross-class."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.v,) or not g.v:
        raise PartitionNotUniform("labels must assign a class to every vertex, of at least one")
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
    if not g.v or (sizes != sizes[0]).any() or not np.array_equal(g.rows, bits.clique_rows(labels)):
        return None
    return int(sizes.size), int(sizes[0])


def recognize_complete_multipartite(g: Graph):
    """(parts, size) if g is complete multipartite with equal parts, else None."""
    return recognize_clique_union(g.complement())
