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

  * exhaustive: odometer over all C^D rows, checking each row;
  * backtracking: depth-first extension, pruning at the first violated
    constraint (this mirrors the one-position-at-a-time extension
    argument and typically visits far fewer rows).

The kernels are vectorized numpy, working on blocks of about _CHUNK
rows.  Callers bound C^D and result sizes before dispatch; kernels
assume the bounds hold.
"""

from __future__ import annotations

# numpy is imported by the functions that use it, so that importing cpfq
# for the closed forms and factorization does not load it
_CHUNK = 1 << 18


def count_exhaustive(D, C, cons_ptr, cons_src, cons_div, cod_class) -> int:
    import numpy as np

    total = C ** D
    count = 0
    flat = [(j, cons_src[c], cons_div[c])
            for j in range(D) for c in range(cons_ptr[j], cons_ptr[j + 1])]
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = [(idx // C ** j) % C for j in range(D)]
        valid = np.ones(idx.shape[0], dtype=bool)
        for j, i, h in flat:
            valid &= cod_class[h][digits[j]] == cod_class[h][digits[i]]
        count += int(valid.sum())
    return count


def _extend(rows, j, C, cons_ptr, cons_src, cons_div, cod_class):
    """(n, C) mask of the values position j may take after each of the n

    prefixes in rows (shape (n, j))."""
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
    """Number of valid rows, walking the prefixes depth-first in blocks of

    about _CHUNK // C, so memory stays bounded by D blocks however many
    rows are valid; the last position is counted, not materialized."""
    import numpy as np

    block = max(1, _CHUNK // C)
    count = 0
    stack = [(0, np.zeros((1, 0), dtype=np.int64))]
    while stack:
        j, rows = stack.pop()
        mask = _extend(rows, j, C, cons_ptr, cons_src, cons_div, cod_class)
        if j == D - 1:
            count += int(mask.sum())
            continue
        grown = _grow(rows, mask)
        for start in range(0, grown.shape[0], block):
            stack.append((j + 1, grown[start:start + block]))
    return count
