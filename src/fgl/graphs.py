"""Exact graph algorithms on bitset adjacency rows.

Graphs are undirected, loop-free, and stored as packed bit rows (see
:mod:`fgl.bits`).  The generic certificates (intersection arrays,
antipodal classes, Deza and divisible-design checks, the common-neighbor
spectrum) are exhaustive over all vertex pairs, all from one kernel: a
block of at most bits.ROW_BLOCK_BITS entries of source rows, unpacked to
0/1 float32, times A.T (A is symmetric; with one block numpy forms A @ A.T
by one syrk call).  Common-neighbor counts are A[lo:hi] @ A[lo:].T, folded
in place with the adjacency into one code per pair x < y and binned once.
The distance pass searches the whole block breadth-first, one product per
distance layer, and checks each layer's counts against source 0's as it
arrives, keeping only the unseen vertices, the eccentricities and the last
layer; the first source to fail has its counts formed again alone, for its
witness.  Each count is exact: every partial sum is an integer of at most
v, and float32 holds every integer below 2^24 (larger graphs are refused),
so no BLAS thread count or summation order changes it.  So a returned
certificate is a proof for the given graph, and failures carry a witness
that names a violating pair.  Each pass runs once per graph and is kept on
it (its rows are read-only): drg and antipodal share one distance pass,
deza, ddg and spectrum one common-neighbor pass; ddg adds only the product
of each class's rows with their own transpose.  The fusion graphs of the
pipeline are certified from vertex 0 instead
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
    """Immutable undirected graph on vertices 0..v-1 with bit-row adjacency;
    it takes ownership of rows and makes them read-only."""

    __slots__ = ("v", "rows", "_kept")

    def __init__(self, v: int, rows: np.ndarray):
        if rows.shape != (v, bits.word_count(v)):
            raise ValueError("adjacency rows have wrong shape")
        rows.flags.writeable = False
        self.v = v
        self.rows = rows
        self._kept = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls, v: int) -> "Graph":
        return cls(v, bits.zero_rows(v, v))

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

    def edge_blocks(self, max_edges: int = bits.ROW_BLOCK_BITS):
        """Yield the pairs i < j in lexicographic order as (m, 2) int64
        arrays, one per row range.

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


# -- blocked adjacency products ---------------------------------------------


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


def _count_dtype(v: int) -> np.dtype:
    """The narrowest signed integer type holding -v, so -1..v-1: eccentricities."""
    return np.min_scalar_type(-max(v, 1))


def _once(g: Graph, compute):
    """compute(g), run once per graph and kept on it: its rows cannot change."""
    if compute not in g._kept:
        g._kept[compute] = compute(g)
    return g._kept[compute]


def _common_neighbor_blocks(g: Graph):
    """Yield (lo, cn, adj) per row block [lo, hi): cn[t, j] =
    |N(lo + t) & N(lo + j)| in float32 from A[lo:hi] @ A[lo:].T, a new array
    the caller may change, and the adjacency adj = A[lo:hi, lo:]."""
    a = _adjacency(g)
    for lo, hi in _row_blocks(g.v):
        yield lo, a[lo:hi] @ a[lo:].T, a[lo:hi, lo:]


def _upper(cn: np.ndarray) -> np.ndarray:
    """Mask of the entries cn[t, j], j > t, of a block: its pairs x < y."""
    return np.arange(cn.shape[1]) > np.arange(len(cn))[:, None]


def _distance_blocks(g: Graph):
    """Yield (lo, hi, layers) per block of sources lo..hi-1; layers yields
    (i, count, layer, nxt) for i = 0, 1, ... until the block has seen every
    vertex or stops growing.  layer[t] and nxt[t] are the vertices at
    distance i and i + 1 from lo + t, and count = D_i @ A counts
    N(y) & layer[t] at each y; count is A[block] at i = 0, so with one block
    the product at i = 1 is A @ A.T, one syrk call.  count and the float32
    copy of the layer are one buffer each, rewritten per layer."""
    a = _adjacency(g)
    for lo, hi in _row_blocks(g.v):
        yield lo, hi, _distance_layers(a, lo, hi)


def _distance_layers(a: np.ndarray, lo: int, hi: int):
    """The layers of the sources lo..hi-1, as _distance_blocks yields them."""
    layer = np.zeros((hi - lo, len(a)), dtype=bool)
    np.fill_diagonal(layer[:, lo:], True)
    unseen, count, i = ~layer, a[lo:hi], 0
    counts, left = np.empty_like(count), np.empty_like(count)
    while True:
        nxt = count > 0
        nxt &= unseen
        unseen ^= nxt
        yield i, count, layer, nxt
        if not unseen.any() or not nxt.any():
            return
        if i:
            np.copyto(left, nxt)
        layer, count, i = nxt, np.matmul(left if i else a[lo:hi], a.T, out=counts), i + 1


# -- distance-regularity ----------------------------------------------------


def _distance_census(g: Graph):
    """One _distance_blocks pass: (unreachable, drg, d, far), the first vertex
    unreachable from 0 (the pass stops there) or None, the intersection array or
    the first violation in source order, the diameter d, and the distance-{0, d}
    relation as read-only bit rows (a source of smaller eccentricity: itself).

    Each layer is checked as it arrives against source 0's values at the
    first vertex of each distance: count is c_{i+1} on D_{i+1}, and on D_i,
    i < d, count is a_i = deg(y) - b_i - c_i, which with c_i checked is the
    test of b_i (on D_d, b is 0 for every source of eccentricity d).  A
    source fails if a count or its eccentricity differs, and the first to
    fail has its counts formed alone for _drg_violation.
    """
    v, deg = g.v, g.degrees().astype(np.float32)
    ecc, bad = np.zeros(v, dtype=_count_dtype(v)), np.zeros(v, dtype=bool)
    dist0, far = np.full(v, -1), bits.zero_rows(v, v)
    dist0[0], c0, bc0 = 0, [0], []  # source 0's c_i and b_i + c_i
    for lo, hi, layers in _distance_blocks(g):
        rows = slice(lo, hi)
        for i, count, layer, nxt in layers:
            grown = nxt.any(axis=1)
            ecc[rows][grown] = i + 1
            if lo == 0 and grown[0]:
                dist0[nxt[0]] = i + 1
                y, z = np.argmax(layer[0]), np.argmax(nxt[0])
                bc0.append(int(deg[y] - count[0, y]))
                c0.append(int(count[0, z]))
            if i + 1 < len(c0):
                miss = count != c0[i + 1]
                miss &= nxt
                miss |= (count != deg - bc0[i]) & layer
                bad[rows] |= miss.any(axis=1)
        if lo == 0 and (dist0 < 0).any():
            return int(np.argmax(dist0 < 0)), None, None, None
        np.fill_diagonal(nxt[:, lo:], True)  # the block's last layer, and each source
        far[rows] = bits.pack_bool(nxt, v)
    d = len(bc0)
    bad |= ecc != d
    b0 = [bc - c for bc, c in zip(bc0, c0)] + [0]
    if bad.any():
        src = int(np.argmax(bad))
        drg = _drg_violation(src, *_source_counts(g, src), c0, b0, d)
    else:
        drg = IntersectionArray(b=tuple(b0[:d]), c=tuple(c0[1:]))
    short = ecc < ecc.max()
    far[short] = bits.identity(v)[short]
    far.flags.writeable = False
    return None, drg, int(ecc.max()), far


def _source_counts(g: Graph, src: int):
    """dist, c and b of one source of a connected graph: the distances from
    src and, for y at distance i, |N(y) & D_{i-1}| and |N(y) & D_{i+1}|."""
    dist = np.full(g.v, -1)
    dist[src] = 0
    layers = [bits.pack_bool(np.arange(g.v) == src, g.v)]
    while True:
        new = bits.unpack_rows(np.bitwise_or.reduce(g.rows[dist == len(layers) - 1]), g.v)
        new &= dist < 0
        if not new.any():
            break
        dist[new] = len(layers)
        layers.append(bits.pack_bool(new, g.v))
    layers = np.stack(layers + [bits.zero_rows(1, g.v)[0]])  # D_{-1} and D_{e+1} are empty
    return (dist, bits.popcount(g.rows & layers[dist - 1]),
            bits.popcount(g.rows & layers[dist + 1]))


def intersection_array(g: Graph) -> IntersectionArray:
    """Verify distance-regularity over all vertex pairs and return the array.

    Every source's c and b counts must equal source 0's at each distance.
    Raises NotDistanceRegular with a witness (src, y, parameter, expected,
    got) at the first violation in source order, Disconnected if not connected.
    """
    if g.v == 0:
        raise Disconnected("empty graph")
    unreachable, drg, _, _ = _once(g, _distance_census)
    if unreachable is not None:
        raise Disconnected("graph is not connected")
    if isinstance(drg, NotDistanceRegular):
        raise NotDistanceRegular(str(drg), witness=drg.witness)
    return drg


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
    unreachable, _, d, far = _once(g, _distance_census)
    if unreachable is not None:
        raise Disconnected(f"vertex {unreachable} unreachable from 0")
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


def _cn_census(g: Graph):
    """One pass of _common_neighbor_blocks: the read-only bincount of pairs
    x < y by (count, adjacency), and the first third count in order of row,
    then value, as a MoreThanTwoValues, or None.

    Each block is folded in place into the codes 2 * count + adjacency, and
    the codes of its pairs x < y, row by row, are cast once and binned."""
    v, seen, third = g.v, np.zeros(0, dtype=np.int64), None
    joint = np.zeros(2 * v + 2, dtype=np.int64)
    for lo, cn, adj in _common_neighbor_blocks(g):
        cn *= 2
        cn += adj
        codes = np.concatenate([row[t + 1:] for t, row in enumerate(cn)], dtype=np.intp,
                               casting="unsafe")
        joint += np.bincount(codes, minlength=2 * v + 2)
        found = np.flatnonzero(joint[0::2] + joint[1::2])
        if third is None and found.size > 2:
            vals, (rows, cols) = codes >> 1, np.nonzero(_upper(cn))
            new, at = np.unique(vals, return_index=True)
            at = at[~np.isin(new, seen)]
            at = at[np.lexsort((vals[at], rows[at]))]
            values = seen.tolist() + vals[at].tolist()
            x, y = lo + int(rows[at[2 - seen.size]]), lo + int(cols[at[2 - seen.size]])
            third = MoreThanTwoValues(
                f"third common-neighbor value {values[2]} at pair ({x},{y}); "
                f"already saw {sorted(values[:2])}", witness=(x, y, sorted(values[:3])))
        seen = found
    joint = joint.reshape(-1, 2)
    joint.flags.writeable = False
    return joint, third


def common_neighbor_spectrum(g: Graph) -> dict[int, int]:
    """Census {count: number of unordered distinct pairs realizing it}."""
    return _census(_once(g, _cn_census)[0].sum(axis=1))


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
    joint, third = _once(g, _cn_census)
    if third is not None:
        raise MoreThanTwoValues(str(third), witness=third.witness)
    seen = np.flatnonzero(joint.sum(axis=1))
    a, b = (int(seen.min()), int(seen.max())) if seen.size else (0, 0)
    diam2 = v > 1 and not joint[0, 0]
    edge_regular, nonedge_regular = (int(np.count_nonzero(joint[:, j])) <= 1 for j in (1, 0))
    return DezaCert(v=v, k=k, b=b, a=a, is_strict=diam2 and k != v - 1 and a != b,
                    is_edge_regular=edge_regular,
                    is_strongly_regular=edge_regular and nonedge_regular,
                    spectrum=_census(joint.sum(axis=1)))


def ddg_check(g: Graph, labels) -> DdgCert:
    """Verify common-neighbor counts depend only on same-class vs cross-class.

    The kept census counts the pairs x < y by common-neighbor count; the
    pairs within a class are counted by each class's rows times their own
    transpose, and the cross-class pairs are the rest.  The partition is
    divisible if and only if each of the two has one value.  A failure names
    the first row x whose within-class (then cross-class) counts are not all
    the first such row's value, at its first such pair.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.v,) or not g.v:
        raise PartitionNotUniform("labels must assign a class to every vertex, of at least one")
    classes, sizes = np.unique(labels, return_counts=True)
    if (sizes != sizes[0]).any():
        raise PartitionNotUniform(f"class sizes differ: {sorted(set(map(int, sizes)))}")
    g.valency()
    total = _once(g, _cn_census)[0].sum(axis=1)
    within = _within_class_census(g, labels, int(sizes[0]))
    within_values, cross_values = np.flatnonzero(within), np.flatnonzero(total - within)
    if len(within_values) > 1 or len(cross_values) > 1:
        _raise_ddg_violation(g, labels)
    if not (len(within_values) and len(cross_values)):
        raise PartitionNotUniform("partition admits no within- or no cross-class pair")
    return DdgCert(m=int(classes.size), r=int(sizes[0]),
                   lambda_within=int(within_values[0]), lambda_cross=int(cross_values[0]))


def _within_class_census(g: Graph, labels: np.ndarray, r: int) -> np.ndarray:
    """Bincount of the pairs x < y within a class by common-neighbor count.

    The classes, all of size r, are stacked (k, r, v) and multiplied by their
    own transpose, k whole classes at a time or one class in row blocks, so
    each left operand holds at most bits.ROW_BLOCK_BITS entries (or one row).
    """
    v = g.v
    per = max(1, bits.ROW_BLOCK_BITS // v)
    k, step = max(1, per // r), min(r, per)
    order = np.argsort(labels, kind="stable")
    counts = np.zeros(v + 1, dtype=np.int64)
    for first in range(0, v, k * r):
        a = bits.unpack_rows(g.rows[order[first:first + k * r]], v).astype(np.float32)
        a = a.reshape(-1, r, v)
        for lo in range(0, r, step):
            cn = a[:, lo:lo + step] @ a[:, lo:].transpose(0, 2, 1)
            upper = np.arange(r - lo) > np.arange(cn.shape[1])[:, None]
            counts += np.bincount(cn[:, upper].astype(np.int64).ravel(), minlength=v + 1)
    return counts


def _raise_ddg_violation(g: Graph, labels: np.ndarray) -> None:
    """Raise the first violation of a partition that is not divisible: the
    first row whose within-class (then cross-class) counts differ."""
    lam, sels, bad = {}, {}, {}
    for first, cn, _ in _common_neighbor_blocks(g):
        cn, upper = cn.astype(np.int32), _upper(cn)
        same = labels[first:first + len(cn), None] == labels[first:]
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
                                    witness=(first + t, first + int(np.argmax(sels[name][t])), got))
    raise AssertionError("the histograms show a second value that no pair has")


# -- structure recognizers ---------------------------------------------------


def recognize_clique_union(g: Graph):
    """(count, size) if g is a disjoint union of equal-size cliques, that is,
    if A + I is an equivalence whose classes have one size, else None."""
    labels, witness = bits.equivalence_classes(g.rows | bits.identity(g.v), g.v)
    if witness is not None or not g.v:
        return None
    sizes = np.bincount(labels)
    if (sizes != sizes[0]).any():
        return None
    return int(sizes.size), int(sizes[0])


def recognize_complete_multipartite(g: Graph):
    """(parts, size) if g is complete multipartite with equal parts, else None."""
    return recognize_clique_union(g.complement())
