"""Streams and exact counts for the five partition families.

Enumeration walks restricted-growth strings in lexicographic order.  The
noncrossing family only ever extends a prefix with a block that is still
"open" on the nesting stack.  The connected families share the
singleton-free walker, which carries each prefix with its runs collapsed
down the walk.  A string is connected when its collapsed form is, by the
one-pass crossing components of ``partition._rgs_roots``, and it has no
neighbors when no run was collapsed, that is when it is its own form.
The plain and singleton-free walkers place the last atom in one inner
loop over its choices, so their general step never visits a leaf: the
plain walker gives it every value up to one past the largest before it,
the singleton-free walker the one singleton block left, else each block.
Walked members become partitions through ``Partition._raw``, without
the checks of ``Partition.from_rgs``.

Counting never materializes Partition objects and can split the work over
processes by fixed-length rgs prefixes; the result is independent of the
worker count.
"""

import os
from enum import Enum

from .partition import Partition, _integer, _rgs_roots


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
# The most co verdicts one walk keeps, one per collapsed form with
# neighbors: all 53,385 forms at n = 12, and a bounded table beyond.
_VERDICTS_KEPT = 1 << 16


def _iter_rgs_plain(n, prefix=()):
    """All restricted-growth strings of length n extending ``prefix``, in
    lexicographic order.  Yields one shared list; callers must copy.

    As in Knuth's Algorithm H, the last atom takes every value 0 .. max + 1
    in one inner loop, max the largest entry before it; only then does the
    successor search run, from atom n - 2 down.  A prefix that fixes the
    last atom too yields only itself."""
    length = len(prefix)
    rgs = list(prefix) + [0] * (n - length)
    floor = length if length > 0 else 1
    if floor >= n:
        yield rgs
        return
    maxp = [0] * n
    m = 0
    for j in range(n):
        if rgs[j] > m:
            m = rgs[j]
        maxp[j] = m
    last = n - 1
    while True:
        for v in range(maxp[last - 1] + 2):
            rgs[last] = v
            yield rgs
        i = last - 1
        while i >= floor and rgs[i] > maxp[i - 1]:
            i -= 1
        if i < floor:
            return
        rgs[i] += 1
        maxp[i] = maxp[i - 1] if maxp[i - 1] >= rgs[i] else rgs[i]
        for j in range(i + 1, last):
            rgs[j] = 0
            maxp[j] = maxp[j - 1]


def _iter_rgs_no_singletons(n, prefix=()):
    """Restricted-growth strings with no block of size 1 that extend
    ``prefix``, in lexicographic order, each with its collapsed form: the
    string with every run of one block cut to one entry.  Each later atom
    can join at most one singleton block, so atom i may only join a
    singleton when the singletons equal the atoms left, and may not open
    a block when they are one fewer.  A pruned prefix yields nothing.

    The walk places atoms 0 .. n - 2 and never the last one: once atom
    n - 2 is placed, at most one singleton block is left, and one loop
    yields every choice for atom n - 1.  It joins that singleton if there
    is one, else each block in turn (only the prefix's value, where the
    prefix fixes it).

    Each node of the walk keeps the collapsed form of its prefix: atom i
    adds v to it unless atom i - 1 is in block v too.  The form is itself
    a restricted-growth string, with the same blocks in the same order,
    and it has the crossing components and weight keys of the string,
    which repeating an entry in place does not change.  Yields (rgs,
    flat), rgs one shared list that callers must copy, flat the collapsed
    form as a tuple."""
    if n == 0:
        yield [], ()
        return
    rgs = [-1] * n
    size = [0] * n  # atoms in each block
    flats = [()] * n  # flats[i + 1]: the prefix through atom i, runs collapsed
    blocks = singles = 0
    floor = len(prefix)
    end = n - 1
    i = 0
    while True:
        v = rgs[i]
        if v >= 0:  # take atom i back out of its block
            size[v] = s = size[v] - 1
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
        size[v] = s = size[v] + 1
        flat = flats[i]
        if s == 1:
            blocks += 1
            singles += 1
            flat += (v,)
        else:
            if s == 2:
                singles -= 1
            if flat[-1] != v:  # rejoined after another block
                flat += (v,)
        if i + 1 < end:
            flats[i + 1] = flat
            i += 1
            continue
        lasts = (size.index(1),) if singles else range(blocks)
        if floor > end:
            lasts = [w for w in lasts if w == prefix[end]]
        for w in lasts:
            rgs[end] = w
            yield rgs, (flat if w == v else flat + (w,))


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


def _connected(walked, n):
    # A string is connected when its collapsed form is one crossing
    # component.  A string without neighbors is its own form; the rest
    # share forms, so their verdicts are kept, one per form, until
    # _VERDICTS_KEPT of them fill the table and it starts over.
    verdicts = {}
    for rgs, flat in walked:
        if len(flat) == n:
            if not any(_rgs_roots(flat)):
                yield rgs
        else:
            whole = verdicts.get(flat)
            if whole is None:
                if len(verdicts) == _VERDICTS_KEPT:
                    verdicts.clear()
                whole = verdicts[flat] = not any(_rgs_roots(flat))
            if whole:
                yield rgs


def _pc_plus(walked, n):
    # No run of one block is longer than an atom: no two neighbors share
    # a block, so the string is its own collapsed form.
    for rgs, flat in walked:
        if len(flat) == n and not any(_rgs_roots(flat)):
            yield rgs


def _purely_crossing(walked, n):
    for rgs, flat in walked:
        if len(flat) == n and flat[-1] != 0 and not any(_rgs_roots(flat)):
            yield rgs


# Each family as (walker, select): the walker streams candidate strings in
# lexicographic order, all members if select is None; else it is the
# singleton-free walk, and select(walked, n) streams the members among
# its (rgs, flat).
_FAMILIES = {
    PartitionClass.ALL: (_iter_rgs_plain, None),
    PartitionClass.NONCROSSING: (_iter_rgs_noncrossing, None),
    PartitionClass.CONNECTED: (_iter_rgs_no_singletons, _connected),
    PartitionClass.PC_PLUS: (_iter_rgs_no_singletons, _pc_plus),
    PartitionClass.PURELY_CROSSING: (_iter_rgs_no_singletons, _purely_crossing),
}


def _members(n, cls, prefix=()):
    walk, select = _FAMILIES[cls]
    if select is None:
        return walk(n, prefix)
    # The single atom is a singleton block, and its own collapsed form.
    return select(walk(n, prefix) if n > 1 else [([0], (0,))], n)


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
