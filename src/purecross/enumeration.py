"""Streams and exact counts for the five partition families.

Enumeration walks restricted-growth strings in lexicographic order.  The
noncrossing family only ever extends a prefix with a block that is still
"open" on the nesting stack.  The connected families share the
singleton-free walker, which carries each prefix with its runs collapsed
down the walk.  A string is connected when its collapsed form is, by the
one-pass crossing components of ``partition._rgs_roots``, and it has no
neighbors when no run was collapsed, that is when it is its own form.
The plain and singleton-free walkers place the last two atoms in two
nested inner loops over their choices, so their general step never
visits the last two levels: the plain walker gives each atom every value
up to one past the largest before it, and the singleton-free walker
fills the at most two singleton blocks left, else joins each block.
Walked members become partitions through ``Partition._raw``, without
the checks of ``Partition.from_rgs``.

Counting never materializes Partition objects.  One function counts
the members below a list of rgs prefixes: it walks each prefix in turn,
and a family that selects from the singleton-free walk sees all of
those walks in one call of its select, so the connected family keeps
one verdict table for the whole list.  A serial count passes it the one
empty prefix; a count on workers deals the fixed-length prefixes out,
one list per process.  The result is independent of the worker count.
"""

import os
from enum import Enum
from itertools import accumulate

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
# The most co verdicts one count of a prefix list keeps, one per
# collapsed form with neighbors: all 53,385 forms at n = 12, and a
# bounded table beyond.
_VERDICTS_KEPT = 1 << 16


def _iter_rgs_plain(n, prefix=()):
    """All restricted-growth strings of length n extending ``prefix``, in
    lexicographic order.  Yields one shared list; callers must copy.

    As in Knuth's Algorithm H, the last two atoms are placed by two
    nested loops: atom n - 2 takes every value 0 .. max + 1, max the
    largest entry before it, and for each, atom n - 1 every value up to
    one past the largest before it.  Only then does the successor search
    run, from atom n - 3 down.  A prefix that fixes atom n - 2 leaves the
    inner loop alone, and one that fixes the last atom too yields only
    itself."""
    length = len(prefix)
    rgs = list(prefix) + [0] * (n - length)
    floor = length if length > 0 else 1
    if floor >= n:
        yield rgs
        return
    maxp = list(accumulate(rgs, max))  # maxp[j]: the largest of atoms 0 .. j
    last = n - 1
    pen = n - 2
    if floor > pen:
        for v in range(maxp[pen] + 2):
            rgs[last] = v
            yield rgs
        return
    while True:
        m = maxp[pen - 1]
        for v1 in range(m + 2):
            rgs[pen] = v1
            for v2 in range((m if m > v1 else v1) + 2):
                rgs[last] = v2
                yield rgs
        i = pen - 1
        while i >= floor and rgs[i] > maxp[i - 1]:
            i -= 1
        if i < floor:
            return
        rgs[i] += 1
        maxp[i] = maxp[i - 1] if maxp[i - 1] >= rgs[i] else rgs[i]
        for j in range(i + 1, pen):
            rgs[j] = 0
            maxp[j] = maxp[j - 1]


def _iter_rgs_no_singletons(n, prefix=()):
    """Restricted-growth strings with no block of size 1 that extend
    ``prefix``, in lexicographic order, each with its collapsed form: the
    string with every run of one block cut to one entry.  Each later atom
    can join at most one singleton block, so atom i may only join a
    singleton when the singletons equal the atoms left, and may not open
    a block when they are one fewer.  A pruned prefix yields nothing.

    The walk places atoms 0 .. n - 3 and never the last two: once atom
    n - 3 is placed, at most two singleton blocks are left, and two
    nested loops yield every choice for atoms n - 2 and n - 1.  Two
    singletons x < y take them as (x, y), then (y, x).  With one
    singleton x, atom n - 2 joins each block in turn, and atom n - 1
    then joins each block if atom n - 2 took x, else x.  With none, both
    atoms join each block in turn, and last they open one together.  A
    prefix that fixes atom n - 2 keeps the strings of its first n - 2
    atoms' walk that it matches.

    Each node of the walk keeps the collapsed form of its prefix: atom i
    adds v to it unless atom i - 1 is in block v too.  The form is itself
    a restricted-growth string, with the same blocks in the same order,
    and it has the crossing components and weight keys of the string,
    which repeating an entry in place does not change.  Yields (rgs,
    flat), rgs one shared list that callers must copy, flat the collapsed
    form as a tuple."""
    if n < 2:
        if n == 0:
            yield [], ()
        return
    end = n - 2  # atoms 0 .. end - 1 are walked, end and end + 1 looped
    floor = len(prefix)
    if floor > end:
        fixed = list(prefix[end:n])
        for rgs, flat in _iter_rgs_no_singletons(n, prefix[:end]):
            if rgs[end:floor] == fixed:
                yield rgs, flat
        return
    rgs = [-1] * n
    size = [0] * n  # atoms in each block
    flats = [()] * n  # flats[i + 1]: the prefix through atom i, runs collapsed
    blocks = singles = 0
    flat = ()
    v = -1  # the value of atom end - 1, none before the walk places it
    i = 0
    last = end + 1
    while True:
        while i < end:
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
            i += 1
            flats[i] = flat
        # Atoms end and end + 1: w1 adds to the form unless it is atom
        # end - 1's value v, and w2 unless it is w1.
        if singles == 2:
            x = size.index(1)
            y = size.index(1, x + 1)
            rgs[end] = x
            rgs[last] = y
            yield rgs, (flat if x == v else flat + (x,)) + (y,)
            rgs[end] = y
            rgs[last] = x
            yield rgs, (flat if y == v else flat + (y,)) + (x,)
        elif singles:
            x = size.index(1)
            for w1 in range(blocks):
                rgs[end] = w1
                f1 = flat if w1 == v else flat + (w1,)
                if w1 == x:
                    for w2 in range(blocks):
                        rgs[last] = w2
                        yield rgs, (f1 if w2 == w1 else f1 + (w2,))
                else:
                    rgs[last] = x
                    yield rgs, f1 + (x,)
        else:
            for w1 in range(blocks):
                rgs[end] = w1
                f1 = flat if w1 == v else flat + (w1,)
                for w2 in range(blocks):
                    rgs[last] = w2
                    yield rgs, (f1 if w2 == w1 else f1 + (w2,))
            rgs[end] = rgs[last] = blocks
            yield rgs, flat + (blocks,)
        if end <= floor:  # no walked atom is free to move
            return
        i = end - 1


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


def _connected(walks, n):
    # A string is connected when its collapsed form is one crossing
    # component.  A string without neighbors is its own form; the rest
    # share forms, so their verdicts are kept, one per form, for all of
    # the walks, until _VERDICTS_KEPT of them fill the table and it
    # starts over.
    verdicts = {}
    for walked in walks:
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


def _pc_plus(walks, n):
    # No run of one block is longer than an atom: no two neighbors share
    # a block, so the string is its own collapsed form.
    for walked in walks:
        for rgs, flat in walked:
            if len(flat) == n and not any(_rgs_roots(flat)):
                yield rgs


def _purely_crossing(walks, n):
    for walked in walks:
        for rgs, flat in walked:
            if len(flat) == n and flat[-1] != 0 and not any(_rgs_roots(flat)):
                yield rgs


# Each family as (walker, select): the walker streams candidate strings in
# lexicographic order, all members if select is None; else it is the
# singleton-free walk, and select(walks, n) streams the members among
# the (rgs, flat) of each walk in turn.  The selects loop over the walks
# themselves: itertools.chain of the walks cost a few percent per string.
_FAMILIES = {
    PartitionClass.ALL: (_iter_rgs_plain, None),
    PartitionClass.NONCROSSING: (_iter_rgs_noncrossing, None),
    PartitionClass.CONNECTED: (_iter_rgs_no_singletons, _connected),
    PartitionClass.PC_PLUS: (_iter_rgs_no_singletons, _pc_plus),
    PartitionClass.PURELY_CROSSING: (_iter_rgs_no_singletons, _purely_crossing),
}


def _members(n, cls, prefixes):
    # Streams of members, in turn: the walk of each prefix, or the one
    # stream the family's select makes of all of them.
    walk, select = _FAMILIES[cls]
    walks = (walk(n, prefix) for prefix in prefixes)
    if select is None:
        return walks
    # The single atom is a singleton block, and its own collapsed form.
    return [select(walks if n > 1 else [[([0], (0,))]], n)]


def _count(n, cls, prefixes):
    total = 0
    for members in _members(n, cls, prefixes):
        for _ in members:
            total += 1
    return total


def iterate(n, cls=PartitionClass.ALL):
    """Yield the members of the family in lexicographic rgs order."""
    _integer(n, "n", 1)
    streams = _members(n, PartitionClass(cls), [()])
    return (Partition._raw(tuple(rgs)) for members in streams for rgs in members)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def count(n, cls=PartitionClass.ALL, workers=1):
    """Exact family size, by enumeration.

    One function counts the members below a list of rgs prefixes, all
    through one call of the family's select.  Serially that list is the
    one empty prefix.  With ``workers > 1`` and
    n >= 8, the tree's prefixes of a fixed length are dealt out into one
    list per process, at most one process per CPU this process may run
    on, and each process counts its list the same way; the total does not
    depend on the worker count.
    """
    _integer(n, "n", 1)
    _integer(workers, "workers", 1)
    cls = PartitionClass(cls)
    workers = min(workers, _usable_cpus())
    if workers == 1 or n < _PARALLEL_MIN_N:
        return _count(n, cls, [()])
    prefixes = [tuple(p) for p in _iter_rgs_plain(_PREFIX_LEN)]
    chunks = [prefixes[w::workers] for w in range(min(workers, len(prefixes)))]
    # Imported here: a serial count, and every other subcommand, should
    # not pay for loading multiprocessing.
    from multiprocessing import Pool

    with Pool(processes=len(chunks)) as pool:
        return sum(pool.starmap(_count, [(n, cls, chunk) for chunk in chunks]))


def orbit_size(pi: Partition) -> int:
    """Number of distinct rotations of the partition."""
    if pi.n == 0:
        return 1
    return len({pi.rotate(r) for r in range(pi.n)})
