"""Brute-force reference implementations used to cross-check the package.

Everything in this module works straight from the definitions, with
deliberately naive algorithms and plain data (lists of blocks, lists of
Fraction coefficients).  None of it shares code with the optimized
routines under test.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

# Known counts per family, frozen from the published table:
# row n -> (purely crossing, no-neighbor connected, connected, all).
PUBLISHED_COUNTS = {
    1: (0, 1, 1, 1),
    2: (0, 0, 1, 2),
    3: (0, 0, 1, 5),
    4: (1, 1, 2, 15),
    5: (0, 1, 6, 52),
    6: (5, 5, 21, 203),
    7: (14, 19, 85, 877),
    8: (62, 76, 385, 4140),
    9: (298, 360, 1907, 21147),
    10: (1494, 1792, 10205, 115975),
    11: (8140, 9634, 58455, 678570),
    12: (47146, 55286, 355884, 4213597),
    13: (289250, 336396, 2290536, 27644437),
    14: (1873304, 2162554, 15518391, 190899322),
    15: (12756416, 14629720, 110283179, 1382958545),
}


def all_partitions_brute(n):
    """Yield every partition of {1..n} as a list of sorted blocks.

    Builds partitions by inserting atom k into each block of a partition
    of {1..k-1} (or into a new block), which is independent of the
    restricted-growth walker used by the package.
    """
    if n == 0:
        yield []
        return
    for smaller in all_partitions_brute(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [n]] + smaller[i + 1:]
        yield smaller + [[n]]


def _atom_block(blocks):
    where = {}
    for index, block in enumerate(blocks):
        for atom in block:
            where[atom] = index
    return where


def is_noncrossing_brute(blocks, n):
    """Scan all quadruples a < b < c < d for a crossing."""
    where = _atom_block(blocks)
    for a, b, c, d in combinations(range(1, n + 1), 4):
        if where[a] == where[c] and where[b] == where[d] and where[a] != where[b]:
            return False
    return True


def splits_brute(atoms, blocks):
    """True when the atom set equals the union of the blocks inside it."""
    wanted = set(atoms)
    covered = set()
    for block in blocks:
        if set(block) <= wanted:
            covered.update(block)
    return covered == wanted


def is_connected_brute(blocks, n):
    """No proper subinterval of {1..n} may split the partition."""
    for width in range(1, n):
        for start in range(1, n - width + 2):
            if splits_brute(range(start, start + width), blocks):
                return False
    return True


def refines_brute(fine_blocks, coarse_blocks):
    """Every coarse block must be a union of fine blocks."""
    return all(splits_brute(block, fine_blocks) for block in coarse_blocks)


def noncrossing_partitions_brute(n):
    return [
        blocks
        for blocks in all_partitions_brute(n)
        if is_noncrossing_brute(blocks, n)
    ]


def cover_brute(blocks, n, noncrossing=None):
    """Finest noncrossing coarsening, found by exhaustive comparison.

    Collects every noncrossing partition that the input refines, picks
    the one with the most blocks, and checks it refines all the others
    (so the minimum exists and is unique).
    """
    if noncrossing is None:
        noncrossing = noncrossing_partitions_brute(n)
    candidates = [c for c in noncrossing if refines_brute(blocks, c)]
    best = max(candidates, key=len)
    for other in candidates:
        assert refines_brute(best, other), "noncrossing coarsenings have no minimum"
    return sorted(tuple(sorted(block)) for block in best)


def _crosses(one, other):
    """Some a < b < c < d with a, c in one block and b, d in the other."""
    def pairs(block):
        return combinations(sorted(block), 2)

    return any(
        a < b < c < d or b < a < d < c for a, c in pairs(one) for b, d in pairs(other)
    )


def cover_by_merging(blocks):
    """The noncrossing cover by its definition: merge two crossing blocks
    until no pair crosses.  Blocks as sorted tuples, ordered by least atom."""
    merged = [set(block) for block in blocks]
    found = True
    while found:
        found = False
        for i, j in combinations(range(len(merged)), 2):
            if _crosses(merged[i], merged[j]):
                merged[i] |= merged.pop(j)
                found = True
                break
    return tuple(sorted(tuple(sorted(block)) for block in merged))


def restrict_brute(blocks, atoms):
    """Intersect every block with ``atoms`` and renumber the atoms kept
    1, 2, .. in increasing order; canonical blocks as tuples."""
    number = {a: k for k, a in enumerate(sorted(atoms), 1)}
    kept = (sorted(number[a] for a in block if a in number) for block in blocks)
    return tuple(sorted(tuple(block) for block in kept if block))


def cover_decompose_brute(blocks):
    """(cover, pieces): the cover blocks, and the restriction of the
    partition to each of them in order."""
    cover = cover_by_merging(blocks)
    return cover, tuple(restrict_brute(blocks, block) for block in cover)


def gap_decompose_brute(blocks, n):
    """(core, gaps): the restriction to the cover block of atom 1, and to
    the atoms strictly between each core atom and the next (the last gap
    runs to atom n)."""
    anchor = cover_by_merging(blocks)[0]
    ends = anchor[1:] + (n + 1,)
    gaps = tuple(restrict_brute(blocks, range(s + 1, e)) for s, e in zip(anchor, ends))
    return restrict_brute(blocks, anchor), gaps


def _mul_trunc(left, right, order):
    out = [Fraction(0)] * (order + 1)
    for i in range(min(len(left), order + 1)):
        if left[i]:
            for j in range(min(len(right), order + 1 - i)):
                out[i + j] += left[i] * right[j]
    return out


def _recip_trunc(coeffs, order):
    padded = list(coeffs[: order + 1]) + [Fraction(0)] * (order + 1 - len(coeffs))
    out = [Fraction(1, 1) / padded[0]] + [Fraction(0)] * order
    for k in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += padded[i] * out[k - i]
        out[k] = -out[0] * acc
    return out


def compose_trunc(outer, inner, order):
    """outer(inner) through x^order, schoolbook: the sum of outer_k inner^k
    over rising powers of inner, which needs inner_0 = 0."""
    assert inner[0] == 0
    total = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for c in outer[: order + 1]:
        total = [t + c * v for t, v in zip(total, power)]
        power = _mul_trunc(power, inner, order)
    return total


def lagrange_reversion(coeffs, order):
    """Compositional inverse by Lagrange inversion on raw coefficient lists.

    For f = x + ..., the inverse g has g_k = (1/k) [x^(k-1)] (x/f)^k.
    Returns the list g_0..g_order.
    """
    f = list(coeffs[: order + 1]) + [Fraction(0)] * (order + 1 - len(coeffs))
    assert f[0] == 0 and f[1] != 0
    base = _recip_trunc(f[1:], order)
    power = [Fraction(1)] + [Fraction(0)] * order
    out = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        power = _mul_trunc(power, base, order)
        out[k] = Fraction(power[k - 1], k)
    return out


def bell_brute(n):
    """Bell numbers via the binomial recurrence."""
    values = [1]
    for m in range(n):
        values.append(sum(comb(m, k) * values[k] for k in range(m + 1)))
    return values[n]


def catalan(n):
    return comb(2 * n, n) // (n + 1)
