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
j only ever refers to earlier positions.  That makes the same sequences
serve both engines:

  * exhaustive: checks all C^D rows, a block of them per Python int.  The
    last w positions (the most with C^w <= _BLOCK_BITS, at least one) are
    packed: bit b of a block is the row whose packed position k holds
    b // C^k % C.  A constraint between two packed positions is one
    constant mask of the block; one from a leading position into the
    block is a mask per value of that position; one between two leading
    positions compares their labels.  The leading positions are walked
    depth first, each value ANDing its masks into its parent's block, and
    the count is the number of set bits of every block reached;
  * backtracking: the values a position allows are a C-bit mask, the AND
    of the label masks of its constraints.  Only first members of classes
    are referenced, and in index order they come first, so no constraint
    refers to a position at or past K = max(cons_src) + 1: given a valid
    prefix [0, K), those positions are independent, and the prefix stands
    for the product of their allowed-value counts.  A value at a prefix
    position i matters later only through its labels mod the divisors
    that constraints read from i, its signature; so the prefix walk
    branches once per signature, weighted by the number of allowed
    values that share it.

The kernels run on Python ints, with no numpy.  Callers bound C^D and
result sizes before dispatch; kernels assume the bounds hold.
"""

from __future__ import annotations

import functools
import itertools
import operator

# the bits of one exhaustive block: large enough that the walk of the
# leading positions costs little next to the ANDs (at C = 8, 2^24 rows are
# 4096 blocks of 8^4 bits), small enough that a block of a small table
# is built in microseconds
_BLOCK_BITS = 1 << 14


@functools.lru_cache(maxsize=16)
def _bit_patterns(C, w):
    """onehot[k][v]: the bits of a block of w packed positions, as Python

    ints, where position k holds v: b // C^k % C == v."""
    size = C ** w
    onehot = []
    for k in range(w):
        period = C ** (k + 1)
        # one bit at every multiple of period below size
        repeat = ((1 << size) - 1) // ((1 << period) - 1)
        run = (1 << C ** k) - 1
        onehot.append([(run << v * C ** k) * repeat for v in range(C)])
    return onehot


def _set_bits(mask):
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _label_masks(C, labels):
    """label -> the C-bit mask of the values with that label."""
    out = {}
    for v, lab in enumerate(labels):
        out[lab] = out.get(lab, 0) | 1 << v
    return out


def _constraints(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """Per position j, (i, label masks mod h, labels mod h) of each of its

    constraints, the label masks built once per divisor."""
    masks = {}
    out = []
    for j in range(D):
        row = []
        for c in range(cons_ptr[j], cons_ptr[j + 1]):
            h = cons_div[c]
            if h not in masks:
                masks[h] = _label_masks(C, cod_class[h])
            row.append((cons_src[c], masks[h], cod_class[h]))
        out.append(row)
    return out


def count_exhaustive(D, C, cons_ptr, cons_src, cons_div, cod_class) -> int:
    w = 1
    while w < D and C ** (w + 1) <= _BLOCK_BITS:
        w += 1
    base = D - w
    onehot = _bit_patterns(C, w)
    full = (1 << C ** w) - 1
    classes = {}

    def by_label(k, h):
        # label mod h -> the bits where packed position k has that label
        if (k, h) not in classes:
            out = classes[k, h] = {}
            for v, lab in enumerate(cod_class[h]):
                out[lab] = out.get(lab, 0) | onehot[k][v]
        return classes[k, h]

    # per leading target j, the leading positions it must agree with; the
    # block mask of the packed constraints; per leading source i, the block
    # mask each of its values allows
    checks = _constraints(base, C, cons_ptr, cons_src, cons_div, cod_class)
    const, rows = full, [None] * base
    for j in range(base, D):
        for c in range(cons_ptr[j], cons_ptr[j + 1]):
            i, h = cons_src[c], cons_div[c]
            if i >= base:
                a, b = by_label(i - base, h), by_label(j - base, h)
                const &= sum(a[lab] & b[lab] for lab in a)
            else:
                b = by_label(j - base, h)
                rows[i] = [r & b[lab] for r, lab in
                           zip(rows[i] or [full] * C, cod_class[h])]
    # past the last leading position that a mask or a check enters, every
    # value of every leading position counts alike
    last = max((k + 1 for k in range(base) if rows[k] or checks[k]), default=0)
    head = [0] * last
    every = (1 << C) - 1

    def walk(k, block):
        if k == last:
            return block.bit_count()
        allowed = every
        for i, masks, labels in checks[k]:
            allowed &= masks[labels[head[i]]]
        values = range(C) if allowed == every else _set_bits(allowed)
        masks, count = rows[k], 0
        for v in values:
            head[k] = v
            count += walk(k + 1, block & masks[v] if masks else block)
        return count

    return C ** (base - last) * walk(0, const)


def enumerate_backtracking(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """All valid rows as a list of tuples, in lexicographic order; the

    caller bounds C^D.  The prefix [0, K) is walked value by value; past
    it, the rows of a prefix are the product of the values each position
    allows."""
    cons = _constraints(D, C, cons_ptr, cons_src, cons_div, cod_class)
    K = max(cons_src) + 1 if cons_src else 1
    every = (1 << C) - 1
    row = [0] * K
    rows = []

    def allowed(j):
        mask = every
        for i, masks, labels in cons[j]:
            mask &= masks[labels[row[i]]]
        return _set_bits(mask)

    def walk(j):
        if j == K:
            prefix = tuple(row)
            rows.extend(prefix + rest for rest in
                        itertools.product(*map(allowed, range(K, D))))
            return
        for v in allowed(j):
            row[j] = v
            walk(j + 1)

    walk(0)
    return rows


def _signature_plan(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """The plan of the prefix walk: (K, groups, prefix, attach, live, every).

    groups[i] lists, per label signature of prefix position i (its labels
    mod the divisors that constraints read from i), the C-bit mask of the
    values that have it.  prefix[j] lists the (i, masks) of the
    constraints (i, h) at position j < K: masks[s] is the C-bit mask of
    the values that agree mod h with signature s of position i.  attach[d]
    holds each position past K whose last source is d - 1, so that its
    count of allowed values joins the walk as soon as it is known: as the
    (i, masks) of its constraints from before d - 1 and, per signature of
    d - 1, the AND of the masks of those from d - 1.  A position past K
    that no constraint enters counts C, in attach[0].  live[d] lists
    (i, numbers) for each position i < d that a constraint of prefix[d:]
    or attach[d + 1:] reads: numbers[s] numbers the labels of signature s
    mod the divisors read, so the rows below a node at depth d depend only
    on those numbers.  every is the C-bit mask of all values."""
    K = max(cons_src) + 1 if cons_src else 1
    readers = [set() for _ in range(K)]
    for i, h in zip(cons_src, cons_div):
        readers[i].add(h)
    readers = [sorted(hs) for hs in readers]
    groups, sigs = [], []
    for i in range(K):
        by_sig = {}
        for v in range(C):
            key = tuple(cod_class[h][v] for h in readers[i])
            by_sig[key] = by_sig.get(key, 0) | 1 << v
        sigs.append(list(by_sig))
        groups.append(list(by_sig.values()))
    label_masks = {}

    def reads(j):
        row = []
        for c in range(cons_ptr[j], cons_ptr[j + 1]):
            i, h = cons_src[c], cons_div[c]
            if h not in label_masks:
                label_masks[h] = _label_masks(C, cod_class[h])
            r = readers[i].index(h)
            row.append((i, h, [label_masks[h][sig[r]] for sig in sigs[i]]))
        return row

    prefix = [reads(j) for j in range(K)]
    attach = [[] for _ in range(K + 1)]
    for j in range(K, D):
        row = reads(j)
        attach[max(i + 1 for i, _, _ in row) if row else 0].append(row)
    # the (i, h) read at or after each depth, from the deepest up
    live, later = [None] * K, set()
    for d in reversed(range(K)):
        later |= {(i, h) for row in attach[d + 1] for i, h, _ in row}
        later |= {(i, h) for i, h, _ in prefix[d]}
        live[d] = []
        for i in range(d):
            read = [r for r, h in enumerate(readers[i]) if (i, h) in later]
            if read:
                numbers = {}
                live[d].append((i, [numbers.setdefault(tuple(sig[r] for r in read),
                                                       len(numbers)) for sig in sigs[i]]))
    # an attached position splits into the constraints from the positions
    # before d - 1, read once per node, and the AND of those from d - 1,
    # one mask per signature of d - 1
    split = [[([(i, masks) for i, _, masks in row if i < d - 1],
               [functools.reduce(operator.and_, per_sig) for per_sig in
                zip(*(masks for i, _, masks in row if i == d - 1))])
              for row in rows] for d, rows in enumerate(attach)]
    return (K, groups, [[(i, masks) for i, _, masks in row] for row in prefix],
            split, live, (1 << C) - 1)


def _walk(plan, memo, chosen, j):
    """The rows counted below one node of the prefix walk, whose chosen

    signatures are chosen[:j]: the sum over the signatures s of j of the
    values with s that j allows, times the allowed-value counts of the
    positions attached at j + 1, times the rows below that child.  The
    result is kept in memo[j] under the live labels of the node."""
    K, groups, prefix, attach, live, every = plan
    key = tuple(numbers[chosen[i]] for i, numbers in live[j])
    count = memo[j].get(key)
    if count is not None:
        return count
    allowed = every
    for i, masks in prefix[j]:
        allowed &= masks[chosen[i]]
    rows = []
    for earlier, by_sig in attach[j + 1]:
        mask = every
        for i, masks in earlier:
            mask &= masks[chosen[i]]
        rows.append((mask, by_sig))
    leaf = j + 1 == K
    count = 0
    for s, group in enumerate(groups[j]):
        n = (allowed & group).bit_count()
        for mask, by_sig in rows:
            if not n:
                break
            n *= (mask & by_sig[s]).bit_count()
        if n:
            if leaf:
                count += n
            else:
                chosen[j] = s
                count += n * _walk(plan, memo, chosen, j + 1)
    memo[j][key] = count
    return count


def count_backtracking(D, C, cons_ptr, cons_src, cons_div, cod_class) -> int:
    """Number of valid rows: the prefix [0, K) is walked depth first by

    label signature, and the rows below a node are counted once per
    depth and live labels, so its nodes are bounded by products of
    signature counts, not by C^K, and the walk holds K frames.  A valid
    prefix stands for the product over j in [K, D) of the values j
    allows, each factor taken at the first node that knows it."""
    plan = _signature_plan(D, C, cons_ptr, cons_src, cons_div, cod_class)
    K = plan[0]
    return C ** len(plan[3][0]) * _walk(plan, [{} for _ in range(K)], [0] * K, 0)
