"""Exact graph algorithms on bitset adjacency rows.

Graphs are undirected, loop-free, and stored as packed bit rows (see
:mod:`fgl.bits`).  The generic certificates (intersection arrays,
antipodal classes, Deza and divisible-design checks, the common-neighbor
spectrum) are exhaustive over all vertex pairs, all from one kernel: a
block of at most bits.ROW_BLOCK_BITS entries of source rows, unpacked to
0/1 float32, times the unpacked adjacency A.  Common-neighbor counts are
A[block] @ A; the distance checks search the whole block breadth-first,
one product per distance layer.  Each count is exact: every partial sum
is an integer of at most v, and float32 holds every integer below 2^24
(larger graphs are refused), so no BLAS thread count or summation order
changes it.  So a returned certificate is a proof for the given graph,
and failures carry a witness that names a violating pair.  The fusion
graphs of the pipeline are certified from vertex 0 instead
(fusion.seed_set_cover3_certificate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bits
from .formulas import IntersectionArray

EXACT_LIMIT = 1 << 24  # float32 holds every integer count below this exactly


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
        if e.size and (e.min() < 0 or e.max() >= v):
            raise ValueError("vertex id out of range")
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
        """(m, 2) int64 array of the pairs i < j, sorted lexicographically."""
        return np.concatenate([np.zeros((0, 2), dtype=np.int64), *self.edge_blocks()],
                              dtype=np.int64)

    def edge_blocks(self, max_edges: int = bits.ROW_BLOCK_BITS):
        """Yield edges() in consecutive pieces, one per row range.

        A range unpacks at most bits.ROW_BLOCK_BITS entries, and its
        degrees sum to at most max_edges unless it is a single row.
        """
        ends = np.cumsum(self.degrees())
        for lo, hi in _row_blocks(self.v):
            while lo < hi:
                budget = (ends[lo - 1] if lo else 0) + max_edges
                top = min(hi, max(lo + 1, int(np.searchsorted(ends, budget, side="right"))))
                block = bits.unpack_rows(self.rows[lo:top], self.v)
                i, j = np.nonzero(np.triu(block, lo + 1))
                yield np.stack([i + lo, j], axis=1)
                lo = top

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
    dist = np.full(g.v, -1, dtype=np.int32)
    dist[src] = 0
    frontier, d = np.array([src]), 0
    while frontier.size:
        d += 1
        reached = bits.unpack_rows(np.bitwise_or.reduce(g.rows[frontier], axis=0), g.v)
        frontier = np.flatnonzero(reached & (dist < 0))
        dist[frontier] = d
    return dist


def _row_blocks(v: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of at most bits.ROW_BLOCK_BITS entries each."""
    step = max(1, bits.ROW_BLOCK_BITS // max(v, 1))
    return [(lo, min(lo + step, v)) for lo in range(0, v, step)]


def _adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix in float32, unpacked a row block at a time."""
    if g.v >= EXACT_LIMIT:
        raise ValueError(f"{g.v} vertices: float32 counts are exact only below 2^24 vertices")
    a = np.empty((g.v, g.v), dtype=np.float32)
    for lo, hi in _row_blocks(g.v):
        a[lo:hi] = bits.unpack_rows(g.rows[lo:hi], g.v)
    return a


def _common_neighbor_blocks(g: Graph):
    """Yield (xs, cn, upper) per row block: cn[t, y] = |N(xs[t]) & N(y)|
    from A[xs] @ A, and upper[t, y] = y > xs[t]."""
    a = _adjacency(g)
    for lo, hi in _row_blocks(g.v):
        xs = np.arange(lo, hi)
        yield xs, (a[lo:hi] @ a).astype(np.int32), np.arange(g.v) > xs[:, None]


def _distance_blocks(g: Graph):
    """Yield (lo, dist, c, b) per block of sources lo, lo+1, ...: dist[t, y]
    is the distance from lo + t to y (-1 if unreachable) and, for y at
    distance i, c[t, y] = |N(y) & D_{i-1}| and b[t, y] = |N(y) & D_{i+1}|.

    N_i = D_i @ A counts N(y) & D_i for each y (N_0 and D_1 are A[block]):
    it gives c on D_{i+1} and a on D_i, and D_{i+1} is its support outside
    the layers seen; b = deg - c - a, and 0 on the layer that sees the last
    vertex.
    """
    a = _adjacency(g)
    deg = g.degrees().astype(np.int32)
    for lo, hi in _row_blocks(g.v):
        dist = np.full((hi - lo, g.v), -1, dtype=np.int32)
        np.fill_diagonal(dist[:, lo:], 0)
        c, same = np.zeros_like(dist), np.zeros_like(dist)
        layer, count, i = dist == 0, a[lo:hi], 0
        while True:
            nxt = (count > 0) & (dist < 0)
            np.copyto(c, count, casting="unsafe", where=nxt)
            np.copyto(same, count, casting="unsafe", where=layer)
            dist[nxt] = i + 1
            if not nxt.any() or (dist >= 0).all():
                break
            layer, count, i = nxt, (a[lo:hi] if i == 0 else nxt.astype(np.float32)) @ a, i + 1
        b = deg - c - same
        b[nxt] = 0
        yield lo, dist, c, b


# -- distance-regularity ----------------------------------------------------


def intersection_array(g: Graph) -> IntersectionArray:
    """Verify distance-regularity over all vertex pairs and return the array.

    Every source's c and b counts must equal source 0's at each distance.
    Raises NotDistanceRegular with a witness (src, y, parameter, expected,
    got) at the first violation in source order, Disconnected if not connected.
    """
    if g.v == 0:
        raise Disconnected("empty graph")
    for lo, dist, c, b in _distance_blocks(g):
        if lo == 0:
            if (dist[0] < 0).any():
                raise Disconnected("graph is not connected")
            d = int(dist[0].max())
            firsts = np.unique(dist[0], return_index=True)[1]
            c0, b0 = c[0, firsts], b[0, firsts]
        at = np.minimum(dist, d)
        bad = (dist.max(axis=1) != d) | ((c != c0[at]) | (b != b0[at])).any(axis=1)
        if bad.any():
            t = int(np.argmax(bad))
            raise _drg_violation(lo + t, dist[t], c[t], b[t], c0, b0, d)
    return IntersectionArray(b=tuple(map(int, b0[:d])), c=tuple(map(int, c0[1:])))


def _drg_violation(src: int, dist, c, b, c0, b0, d: int) -> NotDistanceRegular:
    """The first violation at a failing source: its eccentricity, then per
    distance i the c and then the b counts, constancy before source 0's value."""
    if dist.max() != d:
        return NotDistanceRegular(f"eccentricity of {src} is {int(dist.max())}, expected {d}",
                                  witness=(src, int(dist.argmax())))
    for i in range(d + 1):
        ys = np.nonzero(dist == i)[0]
        for name, cnt, want in (("c", c, int(c0[i])), ("b", b, int(b0[i]))):
            first, bad = int(cnt[ys[0]]), ys[cnt[ys] != cnt[ys[0]]]
            if bad.size:
                y, got = int(bad[0]), int(cnt[bad[0]])
                return NotDistanceRegular(
                    f"{name}_{i} not constant: {got} vs {first} (pair {src},{y} at distance {i})",
                    witness=(src, y, f"{name}{i}", first, got))
            if first != want:
                return NotDistanceRegular(f"{name}_{i} differs between sources: {first} vs {want}",
                                          witness=(src, int(ys[0]), f"{name}{i}", want, first))


def antipodal_classes(g: Graph) -> np.ndarray:
    """Class labels of the distance-{0, d} relation; NotAntipodal with witness.

    A source relates to the vertices at its eccentricity, or only to itself
    if that is below the diameter d.
    """
    if g.v == 0:
        raise Disconnected("empty graph")
    ecc, far = np.zeros(g.v, dtype=np.int64), bits.zero_rows(g.v, g.v)
    for lo, dist, _, _ in _distance_blocks(g):
        if lo == 0 and (dist[0] < 0).any():
            raise Disconnected(f"vertex {int(np.argmax(dist[0] < 0))} unreachable from 0")
        hi = lo + len(dist)
        ecc[lo:hi] = dist.max(axis=1)
        sel = dist == ecc[lo:hi, None]
        np.fill_diagonal(sel[:, lo:], True)
        far[lo:hi] = bits.pack_bool(sel, g.v)
    d = int(ecc.max())
    short = ecc < d
    far[short] = bits.identity(g.v)[short]
    labels, witness = bits.equivalence_classes(far, g.v)
    if witness:
        x, y, z = witness
        raise NotAntipodal(
            f"distance-{{0,{d}}} relation is not transitive at ({x},{y},{z})", witness=witness)
    return labels


# -- common-neighbor certificates --------------------------------------------


def _census(counts: np.ndarray) -> dict[int, int]:
    """{value: count} over the nonzero entries of a bincount."""
    nz = np.flatnonzero(counts)
    return dict(zip(nz.tolist(), counts[nz].tolist()))


def common_neighbor_spectrum(g: Graph) -> dict[int, int]:
    """Census {count: number of unordered distinct pairs realizing it}."""
    acc = np.zeros(g.v + 1, dtype=np.int64)
    for _, cn, upper in _common_neighbor_blocks(g):
        acc += np.bincount(cn[upper], minlength=g.v + 1)
    return _census(acc)


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
    k, v = g.valency(), g.v
    joint = np.zeros((v + 1, 2), dtype=np.int64)  # pairs x < y by count and adjacency
    seen = np.zeros(0, dtype=np.int64)
    for xs, cn, upper in _common_neighbor_blocks(g):
        vals = cn[upper]
        joint += np.bincount(2 * vals + bits.unpack_rows(g.rows[xs], v)[upper],
                             minlength=2 * v + 2).reshape(-1, 2)
        found = np.flatnonzero(joint.sum(axis=1))
        if found.size > 2:  # the third value met, in order of first row, then value
            rows, cols = np.nonzero(upper)
            new, at = np.unique(vals, return_index=True)
            at = at[~np.isin(new, seen)]
            at = at[np.lexsort((vals[at], rows[at]))]
            values = seen.tolist() + vals[at].tolist()
            x, y = int(xs[rows[at[2 - seen.size]]]), int(cols[at[2 - seen.size]])
            raise MoreThanTwoValues(
                f"third common-neighbor value {values[2]} at pair ({x},{y}); "
                f"already saw {sorted(values[:2])}", witness=(x, y, sorted(values[:3])))
        seen = found
    a, b = (int(seen.min()), int(seen.max())) if seen.size else (0, 0)
    diam2 = v > 1 and not joint[0, 0]
    edge_regular, nonedge_regular = (int(np.count_nonzero(joint[:, j])) <= 1 for j in (1, 0))
    return DezaCert(v=v, k=k, b=b, a=a, is_strict=diam2 and k != v - 1 and a != b,
                    is_edge_regular=edge_regular,
                    is_strongly_regular=edge_regular and nonedge_regular,
                    spectrum=_census(joint.sum(axis=1)))


def ddg_check(g: Graph, labels) -> DdgCert:
    """Verify common-neighbor counts depend only on same-class vs cross-class.

    A failure names the first row x whose within-class (then cross-class)
    counts are not all the first such row's value, at its first such pair.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.v,) or not g.v:
        raise PartitionNotUniform("labels must assign a class to every vertex, of at least one")
    classes, sizes = np.unique(labels, return_counts=True)
    if (sizes != sizes[0]).any():
        raise PartitionNotUniform(f"class sizes differ: {sorted(set(map(int, sizes)))}")
    g.valency()
    lam, sels, bad = {}, {}, {}
    for xs, cn, upper in _common_neighbor_blocks(g):
        same = labels[xs, None] == labels
        for name, sel in (("within", upper & same), ("cross", upper & ~same)):
            sels[name], has = sel, sel.any(axis=1)
            lo = np.where(sel, cn, np.iinfo(np.int32).max).min(axis=1)
            if has.any():
                lam.setdefault(name, int(lo[np.argmax(has)]))
            bad[name] = has & ((lo != np.where(sel, cn, -1).max(axis=1)) | (lo != lam.get(name)))
        if (bad["within"] | bad["cross"]).any():
            t = int(np.argmax(bad["within"] | bad["cross"]))
            name = "within" if bad["within"][t] else "cross"
            got = sorted(set(cn[t][sels[name][t]].tolist()) | {lam[name]})
            raise MoreThanTwoValues(f"{name}-class common-neighbor count not constant: {got}",
                                    witness=(int(xs[t]), int(np.argmax(sels[name][t])), got))
    if len(lam) < 2:
        raise PartitionNotUniform("partition admits no within- or no cross-class pair")
    return DdgCert(m=int(classes.size), r=int(sizes[0]),
                   lambda_within=lam["within"], lambda_cross=lam["cross"])


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
