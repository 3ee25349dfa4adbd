"""Streams and exact counts for the five partition families.

Enumeration walks restricted-growth strings in lexicographic order.  The
noncrossing family only ever extends a prefix with a block that is still
"open" on the nesting stack.  The connected families share the
singleton-free walker, which carries each prefix's crossing components
and its runs collapsed down the walk: a string is connected when every
block has root 0, and no-neighbor connected when, in addition, no run
was collapsed.  Walked members become partitions through
``Partition._raw``, without the checks of ``Partition.from_rgs``.

Counting never materializes Partition objects and can split the work over
processes by fixed-length rgs prefixes; the result is independent of the
worker count.
"""

import os
from enum import Enum

from .partition import Partition, _integer


class PartitionClass(Enum):
    """The families this package enumerates; values double as CLI names."""

    ALL = "all"
    NONCROSSING = "nc"
    CONNECTED = "co"
    PC_PLUS = "pc+"
    PURELY_CROSSING = "pc"


# Below this size the work does not justify spawning processes.
_PARALLEL_MIN_N = 8
_PREFIX_LEN = 6


def _iter_rgs_plain(n, prefix=()):
    """All restricted-growth strings of length n extending ``prefix``, in
    lexicographic order.  Yields one shared list; callers must copy."""
    length = len(prefix)
    rgs = list(prefix) + [0] * (n - length)
    maxp = [0] * n
    m = 0
    for j in range(n):
        if rgs[j] > m:
            m = rgs[j]
        maxp[j] = m
    floor = length if length > 0 else 1
    while True:
        yield rgs
        i = n - 1
        while i >= floor and rgs[i] > maxp[i - 1]:
            i -= 1
        if i < floor:
            return
        rgs[i] += 1
        maxp[i] = maxp[i - 1] if maxp[i - 1] >= rgs[i] else rgs[i]
        for j in range(i + 1, n):
            rgs[j] = 0
            maxp[j] = maxp[j - 1]


def _iter_rgs_no_singletons(n, prefix=()):
    """Restricted-growth strings with no block of size 1 that extend
    ``prefix``, in lexicographic order, each with the root of every
    block: the first block of the noncrossing cover block that holds it.
    Each later atom can join at most one singleton block, so atom i may
    only join a singleton when the singletons equal the atoms left, and
    may not open a block when they are one fewer.  A pruned prefix
    yields nothing.

    The roots of each prefix are kept at its node of the walk.  When atom
    i rejoins block Y, whose last atom so far is p, Y is merged with
    every block X that has an atom before p and another after it: then
    first(X) < p < last(X) < i, so X and Y cross.  Each crossing pair is
    caught this way, at the latest atom of the two blocks in the first
    crossing quadruple to end.  Such an X has an atom between p and i
    and, as blocks are numbered in order of first appearance, an index
    below the number of blocks opened before p.

    Each node also keeps its prefix with every run of one block collapsed
    to one entry: atom i adds v to it when it opens block v or rejoins it
    after another block.  Yields (rgs, root, flat), rgs one shared list
    that callers must copy, root a tuple indexed by block, flat the
    collapsed rgs as a tuple."""
    if n == 0:
        yield [], (), ()
        return
    rgs = [-1] * n
    size = [0] * n  # atoms in each block
    last = [0] * n  # last atom so far of each block
    before = [0] * n  # last atom of atom i's block before atom i
    opened = [0] * n  # blocks opened before atom i
    roots = [()] * (n + 1)  # roots[i + 1]: block roots of the prefix through atom i
    flats = [()] * (n + 1)  # flats[i + 1]: the prefix through atom i, runs collapsed
    blocks = singles = 0
    floor = len(prefix)
    end = n - 1
    i = 0
    while True:
        v = rgs[i]
        if v >= 0:  # take atom i back out of its block
            size[v] = s = size[v] - 1
            last[v] = before[i]
            if s == 0:
                blocks -= 1
                singles -= 1
            elif s == 1:
                singles += 1
            v += 1
        elif i < floor:
            v = prefix[i]
        else:
            v = 0
        spare = n - i - singles  # atoms left, atom i included, beyond one per singleton
        if spare == 0:
            while v < blocks and size[v] != 1:
                v += 1
        if v > (blocks if spare > 1 else blocks - 1) or (i < floor and v != prefix[i]):
            if i <= floor:
                return
            rgs[i] = -1
            i -= 1
            continue
        rgs[i] = v
        opened[i] = blocks
        size[v] = s = size[v] + 1
        before[i] = p = last[v]
        last[v] = i
        root = roots[i]
        flat = flats[i]
        if s == 1:
            blocks += 1
            singles += 1
            root += (v,)
            flat += (v,)
        else:
            if s == 2:
                singles -= 1
            if p < i - 1:
                flat += (v,)
                k = opened[p]
                r = root[v]
                merged = None
                for x in rgs[p + 1 : i]:
                    if x < k and root[x] != r:
                        if merged is None:
                            merged = {r}
                        merged.add(root[x])
                if merged:
                    r = min(merged)
                    root = tuple([r if t in merged else t for t in root])
        if i == end:
            yield rgs, root, flat
        else:  # a leaf's entries are never read
            roots[i + 1] = root
            flats[i + 1] = flat
            i += 1


def _iter_rgs_noncrossing(n, prefix=()):
    """Restricted-growth strings of noncrossing partitions.

    An atom may only rejoin a block on the nesting stack; doing so closes
    every block stacked above it.  Trying stack blocks bottom-up and then
    a fresh block keeps the stream lexicographic.
    """
    rgs = list(prefix) + [0] * (n - len(prefix))
    stack: list[int] = []
    blocks = 0
    for v in prefix:
        if v == blocks:
            stack.append(v)
            blocks += 1
        elif v in stack:
            del stack[stack.index(v) + 1:]
        else:  # a crossing prefix
            return
    yield from _nc_extend(rgs, len(prefix), n, stack, blocks)


def _nc_extend(rgs, i, n, stack, blocks):
    if i == n:
        yield rgs
        return
    for k in range(len(stack)):
        rgs[i] = stack[k]
        yield from _nc_extend(rgs, i + 1, n, stack[: k + 1], blocks)
    rgs[i] = blocks
    yield from _nc_extend(rgs, i + 1, n, stack + [blocks], blocks + 1)


def _connected(rgs, root, flat):
    return not any(root)


def _pc_plus(rgs, root, flat):
    # No run of one block is longer than an atom: no two neighbors share
    # a block.
    return len(flat) == len(rgs) and not any(root)


def _purely_crossing(rgs, root, flat):
    return rgs[-1] != 0 and _pc_plus(rgs, root, flat)


# Each family as (walker, accept): the walker streams candidate strings in
# lexicographic order, all members if accept is None; else it is the
# singleton-free walk, and accept keeps the members among its
# (rgs, root, flat).
_FAMILIES = {
    PartitionClass.ALL: (_iter_rgs_plain, None),
    PartitionClass.NONCROSSING: (_iter_rgs_noncrossing, None),
    PartitionClass.CONNECTED: (_iter_rgs_no_singletons, _connected),
    PartitionClass.PC_PLUS: (_iter_rgs_no_singletons, _pc_plus),
    PartitionClass.PURELY_CROSSING: (_iter_rgs_no_singletons, _purely_crossing),
}


def _members(n, cls, prefix=()):
    walk, accept = _FAMILIES[cls]
    if accept is None:
        return walk(n, prefix)
    # The single atom is a singleton block, and its own root.
    walked = walk(n, prefix) if n > 1 else [([0], (0,), (0,))]
    return (rgs for rgs, root, flat in walked if accept(rgs, root, flat))


def _count_serial(n, cls, prefix=()):
    total = 0
    for _ in _members(n, cls, prefix):
        total += 1
    return total


def _count_chunk(args):
    n, cls_value, prefixes = args
    cls = PartitionClass(cls_value)
    return sum(_count_serial(n, cls, prefix) for prefix in prefixes)


def iterate(n, cls=PartitionClass.ALL):
    """Yield the members of the family in lexicographic rgs order."""
    _integer(n, "n", 1)
    return (Partition._raw(tuple(rgs)) for rgs in _members(n, PartitionClass(cls)))


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def count(n, cls=PartitionClass.ALL, workers=1):
    """Exact family size, by enumeration.

    With ``workers > 1`` the rgs tree is split at a fixed prefix depth and
    the subtrees are counted in separate processes, at most one per CPU
    this process may run on; the total does not depend on the worker
    count.
    """
    _integer(n, "n", 1)
    _integer(workers, "workers", 1)
    cls = PartitionClass(cls)
    workers = min(workers, _usable_cpus())
    if workers == 1 or n < _PARALLEL_MIN_N:
        return _count_serial(n, cls)
    prefixes = [tuple(p) for p in _iter_rgs_plain(min(_PREFIX_LEN, n - 2))]
    chunks = [prefixes[w::workers] for w in range(workers)]
    chunks = [c for c in chunks if c]
    # Imported here: a serial count, and every other subcommand, should
    # not pay for loading multiprocessing.
    from multiprocessing import Pool

    with Pool(processes=len(chunks)) as pool:
        parts = pool.map(_count_chunk, [(n, cls.value, chunk) for chunk in chunks])
    return sum(parts)


def orbit_size(pi: Partition) -> int:
    """Number of distinct rotations of the partition."""
    if pi.n == 0:
        return 1
    return len({pi.rotate(r) for r in range(pi.n)})
