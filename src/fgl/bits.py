"""Packed bit-row helpers shared by the group and graph machinery.

A bit-row set over v items is a numpy array of shape (..., W) with
W = ceil(v/64) little-endian uint64 words; bit j of row word j//64 is
item j.  All adjacency and relation matrices in this package use this
layout, and the hot loops are word-wise and/or/popcount operations.
"""

from __future__ import annotations

import numpy as np

U64 = np.dtype("<u8")
ROW_BLOCK_BITS = 1 << 21  # bit-matrix entries unpacked at once by row-block loops


def word_count(v: int) -> int:
    return (v + 63) >> 6


def pad_mask(v: int) -> np.ndarray:
    """All-ones row over v items (padding bits clear)."""
    w = word_count(v)
    m = np.full(w, ~np.uint64(0), dtype=U64)
    tail = v & 63
    if tail:
        m[-1] = np.uint64((1 << tail) - 1)
    return m


def zero_rows(rows: int, v: int) -> np.ndarray:
    return np.zeros((rows, word_count(v)), dtype=U64)


def pack_bool(mat: np.ndarray, v: int | None = None) -> np.ndarray:
    """Pack a (..., v) boolean array into (..., W) uint64 rows."""
    if v is None:
        v = mat.shape[-1]
    packed = np.packbits(mat, axis=-1, bitorder="little")
    w = word_count(v)
    want = w * 8
    if packed.shape[-1] != want:
        pad = np.zeros(mat.shape[:-1] + (want - packed.shape[-1],), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=-1)
    return packed.view(U64)


def unpack_rows(rows: np.ndarray, v: int) -> np.ndarray:
    """Inverse of pack_bool: (..., W) uint64 -> (..., v) bool."""
    bytes_ = rows.view(np.uint8)
    bits = np.unpackbits(bytes_, axis=-1, bitorder="little")
    return bits[..., :v].astype(bool)


def indices(row: np.ndarray, v: int) -> np.ndarray:
    """Set-bit positions of a single row."""
    return np.nonzero(unpack_rows(row, v))[0]


def popcount(rows: np.ndarray) -> np.ndarray:
    """Per-row number of set bits; scalar for a single row."""
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)


def rows_from_pairs(v: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Symmetric bit-row matrix with bits (i, j) and (j, i) set.

    Pair arrays may contain duplicates; loops (i == j) are rejected.  The
    bits (i, j) are set in one scatter and mirrored by a transpose.
    """
    out = or_pairs(zero_rows(v, v), i, j)
    return out | transpose(out, v)


def or_pairs(out: np.ndarray, i, j) -> np.ndarray:
    """Set the bits (i, j) of the bit-row matrix out in place, in one
    scatter, and return out.  Loops (i == j) are rejected."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if i.size and (i == j).any():
        raise ValueError("loops are not representable")
    np.bitwise_or.at(out, (i, j >> 6), _word_bits(j))
    return out


def transpose(rows: np.ndarray, v: int) -> np.ndarray:
    """Transpose of a (v, W) bit matrix, in column blocks of at most
    ROW_BLOCK_BITS unpacked entries."""
    out = zero_rows(v, v)
    block = max(64, ROW_BLOCK_BITS // max(v, 1) & -64)
    for lo in range(0, v, block):
        hi = min(lo + block, v)
        wlo, whi = lo >> 6, (hi + 63) >> 6
        chunk = unpack_rows(rows[:, wlo:whi], min(whi * 64, v) - wlo * 64)
        cols = chunk[:, lo - wlo * 64 : hi - wlo * 64]
        out[lo:hi] = pack_bool(np.ascontiguousarray(cols.T), v)
    return out


def equivalence_classes(rows: np.ndarray, v: int):
    """Class labels of a reflexive relation given as bit rows, if it is an
    equivalence.

    Returns (labels, None), classes numbered in order of their least
    member, or (None, (x, y, z)) where y is related to x but the rows of x
    and y differ at z.
    """
    labels = np.full(v, -1, dtype=np.int64)
    nclass = 0
    for x in range(v):
        if labels[x] >= 0:
            continue
        members = indices(rows[x], v)
        bad = np.nonzero((rows[members] != rows[x]).any(axis=1))[0]
        if bad.size:
            y = int(members[bad[0]])
            return None, (x, y, int(indices(rows[y] ^ rows[x], v)[0]))
        labels[members] = nclass
        nclass += 1
    return labels, None


def _word_bits(i: np.ndarray) -> np.ndarray:
    """The bit of each item index i within its word."""
    return np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))


def identity(v: int) -> np.ndarray:
    """(v, W) bit matrix with exactly the bits (i, i) set."""
    rows = zero_rows(v, v)
    i = np.arange(v)
    rows[i, i >> 6] = _word_bits(i)
    return rows


def clique_rows(labels) -> np.ndarray:
    """(v, W) bit matrix joining distinct items with equal labels."""
    _, inv = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    v = len(inv)
    i = np.arange(v)
    classes = zero_rows(int(inv.max(initial=-1)) + 1, v)
    np.bitwise_or.at(classes, (inv, i >> 6), _word_bits(i))
    return classes[inv] ^ identity(v)
