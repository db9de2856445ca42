"""Fusion graphs on an involution class.

Vertices are the involutions of the class; the adjacency predicate is a
condition on the order of the product of the two involutions.  Two
predicates matter here: product order equal to the associated prime
(the chi graph), and product order odd and not in {1, chi} (the
odd-complement graph).  The chi graph of each verified family is an
antipodal distance-regular cover of diameter 3 and the odd-complement
graph is its distance-2 power; both identities are asserted when the
graphs are built in verification mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bits, graphs
from .groups import InvolutionClass


class Gamma2Mismatch(Exception):
    """Odd-complement graph differs from the distance-2 power of the chi graph."""


class PhiIdentityMismatch(Exception):
    """Clique-augmented graph differs from the distance-{1,3} power or complement."""


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


def odd_complement_rows(cls: InvolutionClass) -> np.ndarray:
    """Adjacency of the odd-complement graph as the complement of
    equality + commuting + distinguished pairs.

    Exact given the dichotomy that every product of two non-commuting
    involutions has odd order; the orders stage of the pipeline certifies
    that dichotomy exactly with the orbital order census.
    """
    masks = cls.pair_masks()
    v = cls.size
    return ~(masks.comm | masks.chi | bits.identity(v)) & bits.pad_mask(v)


def build_fusion_graph(cls: InvolutionClass, pi: PiSpec) -> graphs.Graph:
    if pi.mode == PiSpec.CHI:
        return graphs.Graph(cls.size, cls.pair_masks().chi.copy())
    return graphs.Graph(cls.size, odd_complement_rows(cls))


def chi_graph(cls: InvolutionClass) -> graphs.Graph:
    """Graph of distinguished pairs (product order = associated prime)."""
    return build_fusion_graph(cls, PiSpec.chi_only())


def pi_graph(cls: InvolutionClass, verify: bool = True) -> graphs.Graph:
    """Odd-complement fusion graph; asserted equal to the distance-2 power
    of the chi graph when verify is set."""
    g = build_fusion_graph(cls, PiSpec.odd_complement())
    if verify:
        cert = graphs.antipodal_cover3_certificate(chi_graph(cls))
        if not np.array_equal(cert.d2_rows, g.rows):
            raise Gamma2Mismatch(
                "odd-complement graph is not the distance-2 power of the chi graph")
    return g


def clique_rows(labels: np.ndarray) -> np.ndarray:
    """Within-class complete adjacency (no loops) for a label vector."""
    _, inv = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    v = len(inv)
    classes = bits.pack_bool(np.arange(inv.max(initial=-1) + 1)[:, None] == inv, v)
    return classes[inv] ^ bits.identity(v)


def phi_graph(chi_g: graphs.Graph, labels, pi_g: graphs.Graph | None = None,
              dist13_rows: np.ndarray | None = None) -> graphs.Graph:
    """Chi graph with antipodal classes turned into cliques.

    Asserted equal to the distance-{1,3} power of the chi graph, and to the
    complement of the odd-complement graph when one is supplied.
    """
    rows = chi_g.rows | clique_rows(labels)
    if dist13_rows is None:
        dist13_rows = distance_13_rows(chi_g)
    if not np.array_equal(rows, dist13_rows):
        raise PhiIdentityMismatch(
            "clique-augmented graph differs from the distance-{1,3} power")
    if pi_g is not None and not np.array_equal(rows, pi_g.complement().rows):
        raise PhiIdentityMismatch(
            "clique-augmented graph is not the complement of the odd-complement graph")
    return graphs.Graph(chi_g.v, rows)


def distance_13_rows(chi_g: graphs.Graph) -> np.ndarray:
    return graphs.antipodal_cover3_certificate(chi_g).d13_rows


def common_neighbor_graph(g: graphs.Graph, c: int) -> graphs.Graph:
    """Graph joining distinct vertices with exactly c common neighbors in g."""
    if c < 0:
        raise ValueError("common-neighbor count must be non-negative")
    v = g.v
    up = bits.zero_rows(v, v)
    for x, cn in graphs.iter_common_neighbor_counts(g):
        sel = np.concatenate([np.zeros(x + 1, dtype=bool), cn == c])
        up[x] = bits.pack_bool(sel, v)
    rows = up | bits.transpose(up, v)
    return graphs.Graph(v, rows)
