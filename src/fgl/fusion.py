"""Fusion graphs on an involution class.

Vertices are the involutions of the class; the adjacency predicate is a
condition on the order of the product of the two involutions.  Two
predicates matter here: product order equal to the associated prime
(the chi graph), and product order odd and not in {1, chi} (the
odd-complement graph).  Conjugation preserves product orders and acts
transitively, so the neighbors of x are sigma_x of vertex 0's
(InvolutionClass.carry): build_fusion_graph carries vertex 0's partner
sets to every row.  The chi graph of each verified family is an antipodal
distance-regular cover of diameter 3 and the odd-complement graph its
distance-2 power; both are certified from vertex 0's partner sets
(seed_set_cover3_certificate, odd_complement_seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bits, graphs, groups
from .formulas import IntersectionArray
from .groups import InvolutionClass, SeedSets


@dataclass(frozen=True)
class PiSpec:
    """Product-order predicate for fusion-graph adjacency."""

    mode: str

    CHI = "chi"
    ODD_COMPLEMENT = "odd-complement"

    def __post_init__(self):
        if self.mode not in (self.CHI, self.ODD_COMPLEMENT):
            raise ValueError(f"unknown pi mode {self.mode!r}")

    @classmethod
    def chi_only(cls) -> "PiSpec":
        return cls(cls.CHI)

    @classmethod
    def odd_complement(cls) -> "PiSpec":
        return cls(cls.ODD_COMPLEMENT)


def _not_odd_complement(sets: SeedSets) -> np.ndarray:
    """comm(0) + chi(0): the odd-complement neighbors of x are all vertices
    but x and sigma_x of these, exact given the dichotomy (every product of
    two non-commuting involutions has odd order) the order census proves."""
    return np.union1d(sets.comm, sets.chi)


def odd_complement_seed(v: int, sets: SeedSets) -> np.ndarray:
    """Vertex 0's odd-complement neighbors."""
    return np.setdiff1d(np.arange(1, v), _not_odd_complement(sets))


def _carried_graph(cls: InvolutionClass, seed: np.ndarray) -> graphs.Graph:
    """The conjugation-invariant graph with N(0) = seed: row x is sigma_x(seed)."""
    v = cls.size
    rows = bits.zero_rows(v, v)
    for xs, images in cls.carry_blocks(np.arange(v), seed):
        block = np.zeros((len(xs), v), dtype=bool)
        block[np.arange(len(xs))[:, None], images] = True
        rows[xs] = bits.pack_bool(block, v)
    return graphs.Graph(v, rows)


def build_fusion_graph(cls: InvolutionClass, pi: PiSpec) -> graphs.Graph:
    sets = cls.seed_sets()
    if pi.mode == PiSpec.CHI:
        return _carried_graph(cls, sets.chi)
    return _carried_graph(cls, _not_odd_complement(sets)).complement()


# -- seed-set certificate for diameter-3 antipodal covers -----------------


@dataclass(frozen=True)
class Cover3Cert:
    """Distance-regularity + antipodality certificate, diameter 3: labels
    are the antipodal classes, cn_spectrum the common-neighbor census over
    unordered pairs, d2 and d3 vertex 0's distance-2 and -3 sets."""

    array: IntersectionArray
    labels: np.ndarray
    r: int
    cn_spectrum: dict
    d2: np.ndarray
    d3: np.ndarray


def _constant_at_seed(cn: np.ndarray, sel: np.ndarray, name: str, what: str) -> int:
    """The common value of cn on sel (the first selected count); raises
    NotDistanceRegular with the witness (0, y, name, value, got) otherwise."""
    ys = np.nonzero(sel)[0]
    val = int(cn[ys[0]])
    bad = ys[cn[ys] != val]
    if bad.size:
        y = int(bad[0])
        raise graphs.NotDistanceRegular(f"{what} not constant at vertex 0: pair (0,{y}) "
                                        f"has {int(cn[y])}, expected {val}",
                                        witness=(0, y, name, val, int(cn[y])))
    return val


def seed_set_cover3_certificate(cls: InvolutionClass, nbrs: np.ndarray,
                                known: np.ndarray | None = None) -> Cover3Cert:
    """Certify that the conjugation-invariant graph with N(0) = nbrs is an
    antipodal distance-regular graph of diameter 3.

    N(x) = sigma_x(nbrs) (InvolutionClass.carry), and a conjugation carries
    every pair to a pair (0, y), so checks at vertex 0 hold everywhere.
    Those fixing 0 join the classes of cls.suborbits(): nbrs must be a union
    of classes, cn(0, .) is constant on each (one carried N(y) per class),
    and 0 in N(z) for one z per class in N(0) proves symmetry.  a1 must be
    constant on N(0), c2 = mu on the other vertices with common neighbors,
    and the orbit of {0} + D3(0), the rest, a partition
    (groups.block_partition): the antipodal classes.  One neighbor of 0 in
    every class but its own is b2 = 1; c3 = k follows.

    known, if given, must be block_partition(cls.generator_perms(), B) for
    the block B of 0 in it (the Sylow labels are).  When B = {0} + D3(0)
    it is the same call, so its labels are used as they are.
    """
    v, k = cls.size, len(nbrs)
    if k == 0 or k >= v - 1:
        raise graphs.NotDistanceRegular(f"valency {k} leaves no diameter-3 structure")
    if nbrs[0] == 0:
        raise graphs.NotDistanceRegular("vertex 0 is its own neighbor", witness=(0, 0))
    table = cls.suborbits()
    cut = table.root[nbrs]
    split = nbrs[np.bincount(cut, minlength=v)[cut] < table.spread(table.sizes)[nbrs]]
    if split.size:
        raise graphs.NotDistanceRegular(f"not a union of stabiliser classes at {split[0]}",
                                        witness=(0, int(split[0])))
    adj = np.zeros(v, dtype=bool)
    adj[nbrs] = True
    rows = cls.carry(table.reps, nbrs)
    lonely = np.flatnonzero(adj[table.reps] & ~(rows == 0).any(axis=1))
    if lonely.size:
        z = int(table.reps[lonely[0]])
        raise graphs.NotDistanceRegular(f"not symmetric: {z} is a neighbor of 0, but 0 "
                                        f"is not a neighbor of {z}", witness=(0, z))
    cn = table.spread(adj[rows].sum(axis=1))
    non = ~adj
    non[0] = False
    a1 = _constant_at_seed(cn, adj, "a1", "a_1")
    d2 = non & (cn > 0)
    if not d2.any():
        raise graphs.NotDistanceRegular("no edge or no distance-2 pair present")
    mu = _constant_at_seed(cn, d2, "c2", "c_2")
    d3 = np.flatnonzero(non & (cn == 0))
    r = len(d3) + 1
    if r < 2 or v % r:
        raise graphs.NotAntipodal(f"antipodal class size {r} does not divide v = {v}")
    base = np.concatenate([[0], d3])
    try:
        if known is not None and np.array_equal(np.flatnonzero(known == known[0]), base):
            labels = known
        else:
            labels = groups.block_partition(cls.generator_perms(), base)
    except groups.NotAnEquivalence as e:
        raise graphs.NotAntipodal(f"distance-3 relation is no equivalence: {e}",
                                  witness=e.witness) from e
    # 0's class is {0} + D3(0), which has no neighbor of 0
    per_class = np.bincount(labels[nbrs], minlength=int(labels.max()) + 1)
    per_class[labels[0]] = 1
    if (per_class != 1).any():
        c = int(np.nonzero(per_class != 1)[0][0])
        x = int(np.nonzero(labels == c)[0][0])
        raise graphs.NotDistanceRegular(
            f"vertex 0 has {int(per_class[c])} neighbors in class {c}, expected 1",
            witness=(x, 0, "b2", 1, int(per_class[c])))

    row_census = np.bincount(cn[1:])
    census = {int(c): v * int(n) // 2 for c, n in enumerate(row_census) if n}
    arr = IntersectionArray(b=(k, k - 1 - a1, 1), c=(1, mu, k))
    return Cover3Cert(array=arr, labels=labels, r=r, cn_spectrum=census,
                      d2=np.flatnonzero(d2), d3=d3)
