"""Enumeration kernels over integer-encoded function tables.

A function A_f -> A_g is a row sigma[0..D-1] of codomain residue indices,
one per domain representative.  Congruence preservation is encoded as
constraints: for each monic divisor h of g and each domain position j
after the first member i of its class mod h, the values must satisfy
    cod_class[h][sigma[i]] == cod_class[h][sigma[j]]
where cod_class[h][c] labels the residue of codomain representative c
mod h; equality is transitive, so the whole class then agrees.
Constraints are stored CSR-style by the later position j:
cons_ptr[j]..cons_ptr[j+1] index (cons_src, cons_div) pairs, so position
j only ever refers to earlier positions.  That makes the same arrays
serve both engines:

  * exhaustive: checks all C^D rows, as boolean tensors of shape
    (C,)*rest with C^rest <= _CHUNK, one per value of the leading
    positions; each constraint ANDs in the C x C matrix
    cod_class[h][:, None] == cod_class[h][None, :] on the axes of its
    two positions;
  * backtracking: depth-first extension in blocks, pruning at the first
    violated constraint, up to the prefix [0, K) with K = max(cons_src)
    + 1.  Only first members of classes are referenced, and in index
    order they come first, so no constraint refers to a position at or
    past K: given a valid prefix, those positions are independent, and
    the prefix stands for the product of their allowed-value counts.

The kernels are vectorized numpy.  Callers bound C^D and result sizes
before dispatch; kernels assume the bounds hold.
"""

from __future__ import annotations

import itertools

# numpy is imported by the functions that use it, so that importing cpfq
# for the closed forms and factorization does not load it
_CHUNK = 1 << 18


def count_exhaustive(D, C, cons_ptr, cons_src, cons_div, cod_class) -> int:
    import numpy as np

    rest = 1
    while rest < D and C ** (rest + 1) <= _CHUNK:
        rest += 1
    lead = D - rest
    eq = [cls[:, None] == cls[None, :] for cls in cod_class]
    # position k >= lead is axis k - lead of the tensor; a constraint ANDs
    # in its matrix on the axes of its positions, or the row or entry that
    # the values of its leading positions pick
    flat = [(i, j, eq[h], [C if lead + a in (i, j) else 1 for a in range(rest)])
            for j in range(D)
            for i, h in zip(cons_src[cons_ptr[j]:cons_ptr[j + 1]],
                            cons_div[cons_ptr[j]:cons_ptr[j + 1]])]
    count = 0
    for head in itertools.product(range(C), repeat=lead):
        at = head + (slice(None),) * rest
        valid = np.ones((C,) * rest, dtype=bool)
        for i, j, m, shape in flat:
            valid &= m[at[i], at[j]].reshape(shape)
        count += int(np.count_nonzero(valid))
    return count


def _extend(rows, j, C, cons_ptr, cons_src, cons_div, cod_class):
    """(n, C) mask of the values position j may take after each of the n

    prefixes in rows (shape (n, k), k past every position j refers to)."""
    import numpy as np

    mask = np.ones((rows.shape[0], C), dtype=bool)
    for c in range(cons_ptr[j], cons_ptr[j + 1]):
        cls = cod_class[cons_div[c]]
        mask &= cls[rows[:, cons_src[c]], None] == cls
    return mask


def _grow(rows, mask):
    """The extended prefixes that mask allows, in (prefix, value) order."""
    import numpy as np

    parent, val = np.nonzero(mask)
    return np.concatenate([rows[parent], val[:, None]], axis=1)


def enumerate_backtracking(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """All valid rows as an (n, D) array; the caller bounds C^D."""
    import numpy as np

    rows = np.zeros((1, 0), dtype=np.int64)
    for j in range(D):
        rows = _grow(rows, _extend(rows, j, C, cons_ptr, cons_src, cons_div,
                                   cod_class))
    return rows


def count_backtracking(D, C, cons_ptr, cons_src, cons_div, cod_class) -> int:
    """Number of valid rows: the valid prefixes [0, K) are walked

    depth-first in blocks of about _CHUNK // C, so memory stays bounded by
    K blocks however many rows are valid, and each stands for the product
    over j in [K, D) of the values position j allows after it."""
    import numpy as np

    args = (C, cons_ptr, cons_src, cons_div, cod_class)
    K = int(cons_src.max()) + 1 if len(cons_src) else 1
    block = max(1, _CHUNK // C)
    # a block's sum of products is below block * C^(D-K); past int64 the
    # products are Python ints
    dtype = np.int64 if block * C ** (D - K) < 1 << 63 else object
    count = 0
    stack = [(0, np.zeros((1, 0), dtype=np.int64))]
    while stack:
        j, rows = stack.pop()
        if j == K:
            prod = np.ones(rows.shape[0], dtype=dtype)
            for k in range(K, D):
                prod *= _extend(rows, k, *args).sum(axis=1)
            count += int(prod.sum())
            continue
        grown = _grow(rows, _extend(rows, j, *args))
        for start in range(0, grown.shape[0], block):
            stack.append((j + 1, grown[start:start + block]))
    return count
