"""Fusion graphs on an involution class.

Vertices are the involutions of the class; the adjacency predicate is a
condition on the order of the product of the two involutions.  Two
predicates matter here: product order equal to the associated prime
(the chi graph), and product order odd and not in {1, chi} (the
odd-complement graph).  Both graphs are read off the class's pair masks,
which groups.power_pair_masks derives from the seed's row by permuting it
along a Schreier tree of the conjugation action.  The chi graph of each
verified family is an antipodal distance-regular cover of diameter 3 and
the odd-complement graph is its distance-2 power; the pipeline certifies
both identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bits, graphs
from .groups import InvolutionClass


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
