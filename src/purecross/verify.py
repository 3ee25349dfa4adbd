"""Self-contained invariant suite behind the ``verify`` CLI command.

Every check reruns one of the package's documented invariants from
scratch, most of them against a brute-force reading of the definitions,
and reports the first counterexample it finds.  Depths are capped by
``max_n`` so the default run stays interactive; the test suite pins the
deeper bounds.
"""

import random
from fractions import Fraction
from itertools import combinations, count as count_from
from math import comb

from .bijections import (
    Composition,
    WeightAssignment,
    connected_weight,
    contract,
    cover_assemble,
    cover_decompose,
    gap_assemble,
    gap_decompose,
    inflate,
    partition_weight,
)
from .enumeration import PartitionClass, count, iterate, orbit_size
from .partition import Partition, _integer
from .pipeline import (
    bell_series,
    counts_table,
    derive_a_from_b,
    derive_b_from_c,
    derive_c_from_d,
    forward_weighted,
    weighted_brute_coeffs,
)
from .series import Series, solve_fixpoint


def _subsets(n):
    atoms = range(1, n + 1)
    for size in range(n + 1):
        yield from combinations(atoms, size)


def _support(depth):
    """The purely crossing partitions of 4 .. depth atoms, in stream order:
    every key of a partition of at most depth atoms."""
    return [pi for n in range(4, depth + 1) for pi in iterate(n, PartitionClass.PURELY_CROSSING)]


def _random_weights(rnd, support):
    return WeightAssignment(
        {pi: Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for pi in support}
    )


def _random_series(rnd, order):
    coeffs = [0, 1] + [
        Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(order - 1)
    ]
    return Series(coeffs)


def check_splits_complement(ctx):
    for n in range(1, min(ctx.max_n, 6) + 1):
        full = set(range(1, n + 1))
        for pi in iterate(n):
            for s in _subsets(n):
                if pi.splits(s) != pi.splits(full - set(s)):
                    return f"complement asymmetry at {pi}, S={set(s)}"
    return None


def check_connected_iff_cover_whole(ctx):
    for n in range(1, min(ctx.max_n, 9) + 1):
        whole = Partition.whole(n)
        for pi in iterate(n):
            if pi.is_connected() != (pi.noncrossing_cover() == whole):
                return f"connectivity/cover mismatch at {pi}"
    return None


def check_cover_minimality(ctx):
    top = min(ctx.max_n, 8)
    # merges[k - 1]: every way to merge k blocks, as an rgs over them.
    merges = [[m.rgs for m in iterate(k)] for k in range(1, top + 1)]
    for n in range(1, top + 1):
        rgs = [0] * n
        for pi in iterate(n):
            cover = pi.noncrossing_cover()
            if not cover.is_noncrossing() or not pi.is_refinement_of(cover):
                return f"cover of {pi} is not a noncrossing coarsening"
            # Every coarsening of pi, in lex order: blocks are ordered by
            # their least atom, so merging them keeps restricted growth.
            blocks = pi.blocks
            for merge in merges[len(blocks) - 1]:
                for block, label in zip(blocks, merge):
                    for a in block:
                        rgs[a - 1] = label
                rho = Partition.from_rgs(rgs)
                if rho.is_noncrossing() and not cover.is_refinement_of(rho):
                    return f"cover of {pi} is not minimal: {rho} is smaller"
    return None


def check_rotation_closure(ctx):
    for n in range(1, min(ctx.max_n, 10) + 1):
        for pi in iterate(n, PartitionClass.PURELY_CROSSING):
            for r in range(n):
                if not pi.rotate(r).is_purely_crossing():
                    return f"rotation by {r} leaves the family at {pi}"
    return None


def check_no_singletons_in_pc_plus(ctx):
    for n in range(2, ctx.max_n + 1):
        for pi in iterate(n, PartitionClass.PC_PLUS):
            if any(len(b) == 1 for b in pi.blocks):
                return f"singleton block in {pi}"
    return None


def check_canonical_roundtrip(ctx):
    for n in range(1, min(ctx.max_n, 7) + 1):
        for pi in iterate(n):
            if Partition.from_rgs(pi.rgs) != pi:
                return f"rgs roundtrip broke at {pi}"
            if Partition.parse(pi.text()) != pi:
                return f"text roundtrip broke at {pi}"
            if Partition.from_json(pi.to_json()) != pi:
                return f"json roundtrip broke at {pi}"
    return None


def check_filter_consistency(ctx):
    preds = {
        PartitionClass.NONCROSSING: Partition.is_noncrossing,
        PartitionClass.CONNECTED: Partition.is_connected,
        PartitionClass.PC_PLUS: Partition.is_pc_plus,
        PartitionClass.PURELY_CROSSING: Partition.is_purely_crossing,
    }
    for n in range(1, min(ctx.max_n, 9) + 1):
        everything = list(iterate(n))
        if everything != sorted(everything):
            return f"iteration out of lexicographic order at n={n}"
        for cls, pred in preds.items():
            direct = [str(p) for p in iterate(n, cls)]
            filtered = [str(p) for p in everything if pred(p)]
            if direct != filtered:
                return f"iterate(n={n}, {cls.value}) disagrees with the predicate filter"
    return None


def check_count_matches_bell(ctx):
    d = bell_series(ctx.max_n)
    for n in range(1, ctx.max_n + 1):
        if count(n, PartitionClass.ALL) != d[n]:
            return f"count(n={n}, all) != Bell number {d[n]}"
    return None


def check_worker_independence(ctx):
    n = min(ctx.max_n + 2, 9)
    for cls in PartitionClass:
        got = {w: count(n, cls, workers=w) for w in (1, 2, 8)}
        if len(set(got.values())) != 1:
            return f"count(n={n}, {cls.value}) varies with workers: {got}"
    return None


def check_noncrossing_counts_catalan(ctx):
    for n in range(1, min(ctx.max_n + 3, 12) + 1):
        expected = comb(2 * n, n) // (n + 1)
        if count(n, PartitionClass.NONCROSSING) != expected:
            return f"count(n={n}, nc) != Catalan {expected}"
    return None


def check_inflate_bijective(ctx):
    for n in range(1, min(ctx.max_n, 10) + 1):
        connected = set(iterate(n, PartitionClass.CONNECTED))
        seen = set()
        for length in range(1, n + 1):
            for base in iterate(length, PartitionClass.PC_PLUS):
                for cut in combinations(range(1, n), length - 1):
                    bounds = (0,) + cut + (n,)
                    comp = Composition(
                        tuple(bounds[i + 1] - bounds[i] for i in range(length))
                    )
                    image = inflate(base, comp)
                    if image in seen:
                        return f"inflate hit {image} twice"
                    seen.add(image)
                    back_base, back_comp = contract(image)
                    if back_base != base or back_comp != comp:
                        return f"contract(inflate(...)) broke at {image}"
        if seen != connected:
            return f"inflate image differs from the connected family at n={n}"
    return None


def check_cover_roundtrip(ctx):
    for n in range(1, min(ctx.max_n, 9) + 1):
        for pi in iterate(n):
            if cover_assemble(cover_decompose(pi)) != pi:
                return f"cover decomposition roundtrip broke at {pi}"
    return None


def check_gap_roundtrip(ctx):
    for n in range(1, min(ctx.max_n, 9) + 1):
        for pi in iterate(n):
            dec = gap_decompose(pi)
            if dec.core.n + sum(g.n for g in dec.gaps) != n:
                return f"gap sizes do not add up at {pi}"
            if gap_assemble(dec) != pi:
                return f"gap decomposition roundtrip broke at {pi}"
    return None


def check_weight_multiplicativity(ctx):
    # A weight is the product of the weights of its keys, so it is
    # multiplicative under every assignment iff keys(pi) is keys(core)
    # plus keys(gaps) as multisets.  One assignment settles that: each key
    # weighs its own odd prime over 2, so a weight is a reduced fraction
    # whose numerator factors into the primes of its keys.
    depth = min(ctx.max_n, 8)
    odd_primes = (p for p in count_from(3, 2) if all(p % q for q in range(3, p, 2)))
    w = WeightAssignment(zip(_support(depth), (Fraction(p, 2) for p in odd_primes)))
    for n in range(1, depth + 1):
        for pi in iterate(n):
            dec = gap_decompose(pi)
            expected = connected_weight(dec.core, w)
            for gap in dec.gaps:
                expected *= partition_weight(gap, w)
            if partition_weight(pi, w) != expected:
                return f"gap multiplicativity broke at {pi}"
    return None


def check_weighted_series_identities(ctx):
    rnd = random.Random(ctx.seed + 1)
    depth = min(ctx.max_n, 9)
    support = _support(min(depth, 8))
    for _ in range(ctx.trials):
        w = _random_weights(rnd, support)
        brute = [weighted_brute_coeffs(n, w) for n in range(1, depth + 1)]
        a = Series([0] + [v[0] for v in brute])
        b, c, d = forward_weighted(a)
        for n in range(1, depth + 1):
            if (b[n], c[n], d[n]) != brute[n - 1][1:]:
                return f"weighted series mismatch at n={n}"
    return None


def check_orbit_size_divides(ctx):
    for n in range(1, min(ctx.max_n, 8) + 1):
        for pi in iterate(n, PartitionClass.PURELY_CROSSING):
            if n % orbit_size(pi) != 0:
                return f"orbit size of {pi} does not divide {n}"
    return None


def check_reversion(ctx):
    rnd = random.Random(ctx.seed + 2)
    x = Series.x(30)
    for _ in range(max(ctx.trials, 5)):
        f = _random_series(rnd, 30)
        g = f.reversion()
        if f.compose(g) != x or g.compose(f) != x:
            return f"reversion failed for {f!r}"
    return None


def check_series_ring_laws(ctx):
    rnd = random.Random(ctx.seed + 3)
    for _ in range(max(ctx.trials, 5)):
        f, g, h = (_random_series(rnd, 12) for _ in range(3))
        if f * (g + h) != f * g + f * h or f * g != g * f:
            return "ring law violation"
        if (f * g) * h != f * (g * h) or f + (g + h) != (f + g) + h:
            return "associativity violation"
        if f.compose(g).compose(h) != f.compose(g.compose(h)):
            return "composition associativity violation"
    return None


# The family of each count column of the table, after n.
_COLUMNS = (
    PartitionClass.PURELY_CROSSING,
    PartitionClass.PC_PLUS,
    PartitionClass.CONNECTED,
    PartitionClass.ALL,
)


def check_pipelines_inverse(ctx):
    d = bell_series(16)
    c = derive_c_from_d(d)
    b = derive_b_from_c(c)
    a = derive_a_from_b(b)
    b2, c2, d2 = forward_weighted(a)
    if b2 != b or c2 != c or d2 != d.truncate(15):
        return "backward then forward does not reproduce the Bell chain"
    if solve_fixpoint(c) != d.truncate(15):
        return "fixpoint solution disagrees with the Bell series"
    try:
        rows = counts_table(min(ctx.max_n + 3, 12)).rows
    except RuntimeError as exc:
        return str(exc)
    for n in range(1, min(ctx.max_n, 9) + 1):
        row = rows[n - 1]
        for col, cls in enumerate(_COLUMNS, start=1):
            got = count(n, cls)
            if got != row[col]:
                return (
                    f"enumeration disagrees with the series pipeline at "
                    f"n={n}, class={cls.value}: counted {got}, series says {row[col]}"
                )
    return None


CHECKS = (
    ("splits complement symmetry", check_splits_complement),
    ("connectivity iff cover is whole", check_connected_iff_cover_whole),
    ("cover minimality (brute force)", check_cover_minimality),
    ("purely crossing closed under rotation", check_rotation_closure),
    ("no singleton blocks in no-neighbor connected family", check_no_singletons_in_pc_plus),
    ("canonical form roundtrips", check_canonical_roundtrip),
    ("class streams equal predicate filters, in lex order", check_filter_consistency),
    ("count(all) matches Bell numbers", check_count_matches_bell),
    ("count independent of worker split", check_worker_independence),
    ("count(nc) matches Catalan numbers", check_noncrossing_counts_catalan),
    ("inflation is a bijection onto the connected family", check_inflate_bijective),
    ("cover decomposition roundtrips", check_cover_roundtrip),
    ("gap decomposition roundtrips", check_gap_roundtrip),
    ("weights multiplicative over gap decomposition", check_weight_multiplicativity),
    ("weighted series identities match brute sums", check_weighted_series_identities),
    ("orbit sizes divide n", check_orbit_size_divides),
    ("reversion composes to identity", check_reversion),
    ("series ring and composition laws", check_series_ring_laws),
    ("series pipelines mutually inverse, table cross-checked", check_pipelines_inverse),
)


class VerifyContext:
    def __init__(self, max_n=7, trials=20, seed=0):
        self.max_n = max_n
        self.trials = trials
        self.seed = seed


def run_checks(max_n=7, trials=20, seed=0, out=print) -> bool:
    """Run every check; print one line each; True iff all pass."""
    _integer(max_n, "max_n", 1)
    _integer(trials, "trials", 1)
    _integer(seed, "seed")
    ctx = VerifyContext(max_n=max_n, trials=trials, seed=seed)
    failures = 0
    for name, func in CHECKS:
        problem = func(ctx)
        if problem is None:
            out(f"ok   {name}")
        else:
            failures += 1
            out(f"FAIL {name}: {problem}")
    out(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures == 0
