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

  * exhaustive: checks all C^D rows, 64 to a machine word.  The last w
    positions (the fewest with C^w >= 64, or all D) are packed: bit b of
    a block of ceil(C^w / 64) uint64 words is the row whose packed
    position k holds b // C^k % C.  A chunk is a word tensor of shape
    (C,)*mid + (words,) holding C^(mid + w) <= _CHUNK rows, one per value
    of the leading positions before it.  A constraint between two packed
    positions is one constant mask of the block; one from an unpacked
    position into the block is a mask per value of that position; one
    between two unpacked positions is the C x C matrix
    cod_class[h][:, None] == cod_class[h][None, :], as all-ones or zero
    words on the axes of its positions.  What no leading position enters
    is ANDed once; in each chunk a leading position picks its mask, or
    the row of its matrix, which selects the values of a mid axis.  The
    count is the number of set bits;
  * backtracking: depth-first extension in blocks, pruning at the first
    violated constraint, up to the prefix [0, K) with K = max(cons_src)
    + 1.  Only first members of classes are referenced, and in index
    order they come first, so no constraint refers to a position at or
    past K: given a valid prefix, those positions are independent, and
    the prefix stands for the product of their allowed-value counts.

The kernels are vectorized numpy (the exhaustive one builds the masks of
its packed block as Python ints).  Callers bound C^D and result sizes
before dispatch; kernels assume the bounds hold.
"""

from __future__ import annotations

import functools
import itertools
import operator

# numpy is imported by the functions that use it, so that importing cpfq
# for the closed forms and factorization does not load it
_CHUNK = 1 << 18


@functools.lru_cache(maxsize=16)
def _bit_patterns(C, w):
    """onehot[k][v]: the bits of a block of w packed positions, as Python

    ints, where position k holds v: b // C^k % C == v."""
    onehot = []
    for k in range(w):
        run = (1 << C ** k) - 1
        repeat = sum(1 << m * C ** (k + 1) for m in range(C ** (w - k - 1)))
        onehot.append([(run << v * C ** k) * repeat for v in range(C)])
    return onehot


def count_exhaustive(D, C, cons_ptr, cons_src, cons_div, cod_class) -> int:
    import numpy as np

    w = 1
    while w < D and C ** w < 64:
        w += 1
    mid = 0
    while mid + w < D and C ** (mid + w + 1) <= _CHUNK:
        mid += 1
    base, lead = D - w, D - w - mid
    onehot = _bit_patterns(C, w)
    nwords = -(-C ** w // 64)
    full = (1 << C ** w) - 1
    labels = cod_class.tolist()
    src, div, ptr = cons_src.tolist(), cons_div.tolist(), cons_ptr.tolist()

    def words(masks):
        return np.frombuffer(b"".join(m.to_bytes(8 * nwords, "little") for m in masks),
                             dtype="<u8")

    classes = {}

    def by_label(k, h):
        # label mod h -> the bits where packed position k has that label
        if (k, h) not in classes:
            out = classes[k, h] = {}
            for v, lab in enumerate(labels[h]):
                out[lab] = out.get(lab, 0) | onehot[k][v]
        return classes[k, h]

    # the block mask of the packed constraints; per unpacked source i,
    # the block mask each of its values allows; per unpacked pair (i, j),
    # the C x C matrix of the values that agree mod every h between them
    const, rows, pairs = full, {}, {}
    for j in range(D):
        for i, h in zip(src[ptr[j]:ptr[j + 1]], div[ptr[j]:ptr[j + 1]]):
            if j < base:
                eq = np.equal.outer(cod_class[h], cod_class[h])
                pairs[i, j] = pairs[i, j] & eq if (i, j) in pairs else eq
            elif i >= base:
                a, b = by_label(i - base, h), by_label(j - base, h)
                const &= sum(a[lab] & b[lab] for lab in a)
            else:
                b = by_label(j - base, h)
                rows[i] = [r & b[lab] for r, lab in
                           zip(rows.get(i, [full] * C), labels[h])]

    def axes(*pos):
        return [C if lead + a in pos else 1 for a in range(mid)]

    # what no leading position enters is the same in every chunk; in each
    # chunk a leading position picks the entry of its pairs with another
    # leading one, the row of its pairs with a mid one, which selects the
    # values of that axis, and the block mask of its value
    fixed = np.empty((C,) * mid + (nwords,), dtype=np.uint64)
    fixed[...] = words([const])
    checks, selects, masks = [], {}, []
    for (i, j), m in pairs.items():
        if i >= lead:
            fixed &= np.where(m, ~np.uint64(0), np.uint64(0)).reshape(axes(i, j) + [1])
        elif j < lead:
            checks.append((i, j, m))
        else:
            selects.setdefault(j - lead, []).append((i, m))
    for i, row in rows.items():
        if i >= lead:
            fixed &= words(row).reshape(axes(i) + [-1])
        else:
            masks.append((i, words(row).reshape(C, nwords)))

    def set_bits(chunk):
        return int(np.count_nonzero(np.unpackbits(chunk.view(np.uint8))))

    if not (checks or selects or masks):   # every chunk is fixed
        return C ** lead * set_bits(fixed)
    count = 0
    for head in itertools.product(range(C), repeat=lead):
        if not all(m[head[i], head[j]] for i, j, m in checks):
            continue
        chunk = fixed
        for a, terms in selects.items():
            chunk = chunk.compress(functools.reduce(
                operator.and_, (m[head[i]] for i, m in terms)), axis=a)
        for i, m in masks:
            chunk = chunk & m[head[i]]
        count += set_bits(chunk)
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
