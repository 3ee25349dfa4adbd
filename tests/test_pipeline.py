"""Series pipelines, the counts table, and the weighted cross-checks."""

import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from purecross import (
    CountsTable,
    Partition,
    PartitionClass,
    Series,
    WeightAssignment,
    bell_series,
    connected_weight,
    counts_table,
    cover_decompose,
    derive_a_from_b,
    derive_b_from_c,
    derive_c_from_d,
    forward_weighted,
    iterate,
    solve_fixpoint,
    weighted_brute_coeffs,
)
from purecross import pipeline
from purecross.bijections import _weight_keys
from purecross.enumeration import _iter_rgs_no_singletons, _iter_rgs_plain
from purecross.series import _monic

from oracles import PUBLISHED_COUNTS, bell_brute, catalan


class TestBellSeries:
    def test_small(self):
        assert bell_series(3).coeffs == (1, 1, 2, 5)

    def test_against_binomial_recurrence(self):
        f = bell_series(20)
        for n in range(21):
            assert f[n] == bell_brute(n)

    def test_published_top_value(self):
        assert bell_series(15)[15] == 1382958545

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bell_series(-1)


class TestBackwardPipeline:
    def test_connected_column_from_bell(self):
        c = derive_c_from_d(bell_series(15))
        assert c.order == 14
        for n in range(1, 15):
            assert c[n] == PUBLISHED_COUNTS[n][2], n

    def test_order_drops_by_one(self):
        assert derive_c_from_d(bell_series(8)).order == 7

    def test_catalan_input_gives_geometric(self):
        d = Series([catalan(k) for k in range(10)])
        assert derive_c_from_d(d) == Series([0] + [1] * 8, order=8)

    def test_trivial_lattice_gives_zero(self):
        assert derive_c_from_d(Series.one(5)) == Series.zero(4)

    def test_no_neighbor_column(self):
        c = derive_c_from_d(bell_series(11))
        b = derive_b_from_c(c)
        for n in range(1, 11):
            assert b[n] == PUBLISHED_COUNTS[n][1], n

    def test_purely_crossing_column(self):
        a = derive_a_from_b(derive_b_from_c(derive_c_from_d(bell_series(11))))
        for n in range(1, 11):
            assert a[n] == PUBLISHED_COUNTS[n][0], n

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_c_from_d(Series([2, 1]))
        with pytest.raises(ValueError):
            derive_c_from_d(Series([1]))
        with pytest.raises(ValueError):
            derive_b_from_c(Series([1, 1]))
        with pytest.raises(ValueError):
            derive_a_from_b(Series([0, 2]))
        with pytest.raises(ValueError):
            derive_a_from_b(Series([1, 1]))

    def test_inverse_substitution_restores_c(self):
        rnd = random.Random(17)
        geometric = Series([0] + [1] * 15, order=15)
        for _ in range(10):
            c = Series(
                [0] + [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
                       for _ in range(15)],
                order=15,
            )
            assert derive_b_from_c(c).compose(geometric) == c

    @staticmethod
    def _gap_relation_holds(d):
        c = derive_c_from_d(d)
        m = c.order
        x_d = Series([0] + list(d.coeffs[:m]), order=m)
        return c.compose(x_d) + 1 == d.truncate(m)

    def test_gap_relation_on_bell_series(self):
        assert self._gap_relation_holds(bell_series(61))

    @staticmethod
    def _seeded_rational_d():
        rnd = random.Random(23)
        return [
            Series(
                [1] + [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(15)],
                order=15,
            )
            for _ in range(5)
        ]

    # Denominators that differ by degree, so D(L x) needs the powers of L.
    _STAGGERED_D = Series([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)], order=4)

    def test_gap_relation_on_rational_input(self):
        for d in self._seeded_rational_d() + [self._STAGGERED_D]:
            assert self._gap_relation_holds(d)

    def test_staggered_denominators(self):
        # c_1 = d_1, c_2 = d_2 - c_1 d_1, c_3 = d_3 - c_1 d_2 - 2 c_2 d_1.
        c = derive_c_from_d(self._STAGGERED_D)
        assert c.coeffs == (0, Fraction(1, 2), Fraction(1, 12), Fraction(-3, 28))

    def test_fixpoint_undoes_step_c(self):
        # Step C solves the gap relation term by term and solve_fixpoint
        # runs the Lagrange kernel, so the two check each other.  Each
        # rational d puts step C's integer row at D(L x) with L > 1.
        rational = [self._STAGGERED_D] + self._seeded_rational_d()
        assert all(_monic(d.coeffs)[1] > 1 for d in rational)
        for d in [bell_series(101)] + rational:
            c = derive_c_from_d(d)
            assert solve_fixpoint(c) == d.truncate(c.order)

    def test_coefficients_stay_integral(self):
        d = bell_series(16)
        c = derive_c_from_d(d)
        b = derive_b_from_c(c)
        a = derive_a_from_b(b)
        for f in (a, b, c):
            assert all(q.denominator == 1 for q in f.coeffs)


class TestForwardPipeline:
    def test_unweighted_forward_matches_published_columns(self):
        a = Series([0] + [PUBLISHED_COUNTS[n][0] for n in range(1, 13)])
        b, c, d = forward_weighted(a)
        for n in range(1, 13):
            _, pcp, co, al = PUBLISHED_COUNTS[n]
            assert b[n] == pcp
            assert c[n] == co
            assert d[n] == al
        assert d[0] == 1

    def test_zero_weights_give_catalan(self):
        _, _, d = forward_weighted(Series.zero(10))
        assert d.coeffs == tuple(catalan(k) for k in range(11))

    def test_backward_then_forward_is_the_identity_at_order_15(self):
        d = bell_series(16)
        c = derive_c_from_d(d)
        b = derive_b_from_c(c)
        a = derive_a_from_b(b)
        b2, c2, d2 = forward_weighted(a)
        assert (b2, c2, d2) == (b, c, d.truncate(15))
        assert d2 == bell_series(15)

    def test_roundtrip_through_backward(self):
        a = Series([0, 0, 0, 5, -2, Fraction(1, 3), 7], order=6)
        b, c, d = forward_weighted(a)
        # derive_c_from_d returns one order less than it is given, so
        # compare after dropping the top coefficient.
        c_back = derive_c_from_d(d)
        assert c_back == c.truncate(c_back.order)
        b_back = derive_b_from_c(c_back)
        assert b_back == b.truncate(b_back.order)
        a_back = derive_a_from_b(b_back)
        assert a_back == a.truncate(a_back.order)

    def test_b_is_the_general_product(self):
        # The running sum for B agrees with x + (1 + x) * A as a product
        # of series, on seeded rational A at small and large orders.
        rnd = random.Random(43)
        for order in (1, 2, 9, 30):
            a = Series(
                [0] + [Fraction(rnd.randint(-99, 99), rnd.randint(1, 99)) for _ in range(order)],
                order=order,
            )
            b, _, _ = forward_weighted(a)
            assert b == Series.x(order) + Series([1, 1], order=order) * a, order

    def test_validation(self):
        with pytest.raises(ValueError):
            forward_weighted(Series([1, 1]))
        with pytest.raises(ValueError):
            forward_weighted(Series([0]))


class TestWeightedBrute:
    def test_unweighted_rows_match_published_counts(self):
        w = WeightAssignment()
        for n in range(1, 10):
            a, b, c, d = weighted_brute_coeffs(n, w)
            assert (a, b, c, d) == PUBLISHED_COUNTS[n], n
            assert d == bell_brute(n), n

    def test_plan_multiplicities_are_family_sizes(self):
        # The rows' multiplicities, summed, are the family sizes: A, B
        # and C count the rows of length n >= 2, D sums C(n, m) times the
        # rows of length m.
        def column_sums(m):
            rows = pipeline._singleton_free_rows(m)
            return [sum(counts[i] for _, counts in rows) for i in range(4)]

        for n in range(2, 10):
            a, b, c, _ = column_sums(n)
            d = sum(comb(n, m) * column_sums(m)[3] for m in range(n + 1))
            assert (a, b, c, d) == PUBLISHED_COUNTS[n], n
            assert d == bell_brute(n), n

    def test_rows_match_a_tally_of_the_plain_strings(self):
        # The rows against a tally that does not use the walk: singleton-
        # free strings filtered from the plain walk, keys through the
        # one-pass roots of _rgs_roots, families by the Partition
        # predicates.
        for m in range(11):
            tally = collections.defaultdict(lambda: [0, 0, 0, 0])
            for rgs in map(tuple, _iter_rgs_plain(m)):
                if any(rgs.count(v) == 1 for v in rgs):
                    continue
                row = tally[_weight_keys.__wrapped__(rgs)[0]]
                row[3] += 1
                pi = Partition.from_rgs(rgs)
                if not rgs:  # the empty partition counts in d only
                    continue
                if pi.is_connected():
                    row[2] += 1
                if pi.is_pc_plus():
                    row[1] += 1
                if pi.is_purely_crossing():
                    row[0] += 1
            expected = {keys: tuple(row) for keys, row in tally.items()}
            rows = pipeline._singleton_free_rows(m)
            assert len(rows) == len(expected), m
            assert dict(rows) == expected, m

    def test_rows_are_pinned(self):
        # The rows of every length m <= 11 (98,253 strings at m = 11),
        # each sorted, so compared as multisets, against the digest of
        # what the classification gave when connected forms had branches
        # of their own instead of going through the key kernel.
        digest = hashlib.sha256()
        for m in range(12):
            digest.update(f"{sorted(pipeline._singleton_free_rows(m))!r}\n".encode())
        assert digest.hexdigest() == (
            "5b08da19f53e6eed05bfad89d316b67a52f7f1ebba74bbf4b7fdd61f830f9544"
        )

    def test_single_assignment_example(self):
        w = WeightAssignment({Partition.parse("1,3|2,4"): Fraction(7, 2)})
        a4, b4, c4, d4 = weighted_brute_coeffs(4, w)
        # One member each of PC and PC+ reweighted to 7/2; the connected
        # family gains 7/2 - 1 on its crossing member, the full lattice
        # likewise.
        assert a4 == Fraction(7, 2)
        assert b4 == Fraction(7, 2)
        assert c4 == 2 + Fraction(5, 2)
        assert d4 == 15 + Fraction(5, 2)

    def test_matches_forward_pipeline(self):
        rnd = random.Random(3)
        support = [
            pi
            for n in range(4, 8)
            for pi in iterate(n, PartitionClass.PURELY_CROSSING)
        ]
        w = WeightAssignment(
            {pi: Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for pi in support}
        )
        max_n = 8
        brute = [weighted_brute_coeffs(n, w) for n in range(1, max_n + 1)]
        a = Series([Fraction(0)] + [row[0] for row in brute], order=max_n)
        b, c, d = forward_weighted(a)
        for n in range(1, max_n + 1):
            assert (a[n], b[n], c[n], d[n]) == brute[n - 1], n

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            weighted_brute_coeffs(0, WeightAssignment())

    @staticmethod
    def _fresh_sums(sizes, w):
        pipeline._singleton_free_rows.cache_clear()
        sums = {n: weighted_brute_coeffs(n, w) for n in sizes}
        return [sums[n] for n in range(1, 10)]

    def test_each_singleton_free_string_is_walked_once(self, monkeypatch):
        # 4,361 singleton-free strings have lengths 0..9 (OEIS A000296),
        # and the sums for n = 1..9 share their walks, in either order.
        walked = []

        def counted(m):
            for rgs, flat in _iter_rgs_no_singletons(m):
                walked.append(tuple(rgs))
                yield rgs, flat

        monkeypatch.setattr(pipeline, "_iter_rgs_no_singletons", counted)
        for sizes in (range(1, 10), [9, *range(1, 9)]):
            walked.clear()
            self._fresh_sums(sizes, WeightAssignment())
            assert len(walked) == len(set(walked)) == 4361

    def test_sums_do_not_depend_on_call_order(self):
        for w in self._weight_sets():
            backwards = self._fresh_sums([9, *range(1, 9)], w)
            assert self._fresh_sums(range(1, 10), w) == backwards

    def test_weights_beyond_n_leave_the_counts(self):
        # Large coprime denominators on keys of more than n atoms raise
        # the common scale L, which the sum of degree n divides out again.
        rnd = random.Random(29)
        primes = (9973, 10007, 10009, 10037, 10039)
        for n in range(1, 8):
            w = WeightAssignment(
                {
                    pi: Fraction(rnd.randint(-10**6, 10**6), prime)
                    for size in range(max(n + 1, 4), 9)
                    for pi, prime in zip(
                        iterate(size, PartitionClass.PURELY_CROSSING),
                        itertools.cycle(primes),
                    )
                }
            )
            assert weighted_brute_coeffs(n, w) == PUBLISHED_COUNTS[n], n

    @staticmethod
    def _weight_sets():
        # Small rationals; large coprime prime denominators, so the lcm
        # scale is a product of primes near 10^4; zeros and negatives;
        # and the empty assignment, whose scale is 1.
        rnd = random.Random(19)
        support = [
            pi
            for n in range(4, 9)
            for pi in iterate(n, PartitionClass.PURELY_CROSSING)
        ]
        primes = (9973, 10007, 10009, 10037, 10039)
        sets = [
            {pi: Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for pi in support}
            for _ in range(3)
        ]
        sets.append(
            {pi: Fraction(rnd.randint(-10**6, 10**6), rnd.choice(primes)) for pi in support}
        )
        sets.append({pi: rnd.choice((0, -1, -5, Fraction(-3, 7))) for pi in support})
        sets.append({})
        return [WeightAssignment(weights) for weights in sets]

    def test_sums_match_pinned_digest(self):
        # The exact sums for n <= 10 over the six weight sets, pinned to
        # the digest of the implementation that summed every column of
        # every length.
        lines = [
            f"{i} {n} " + " ".join(map(str, weighted_brute_coeffs(n, w)))
            for i, w in enumerate(self._weight_sets())
            for n in range(1, 11)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "94573ef440e553843381a11b7addff57f2ce13358271bf990f19713a5c5f2c17"

    def test_matches_per_member_sums(self):
        # Each member weighs the product of connected_weight over the
        # pieces of its cover decomposition; a purely crossing one weighs w[pi].
        members = {
            n: [
                (pi, cover_decompose(pi).pieces, pi.is_connected(), pi.is_pc_plus(),
                 pi.is_purely_crossing())
                for pi in iterate(n, PartitionClass.ALL)
            ]
            for n in range(1, 9)
        }
        for w in self._weight_sets():
            for n in range(1, 9):
                a = b = c = d = Fraction(0)
                for pi, pieces, connected, pc_plus, purely_crossing in members[n]:
                    weight = Fraction(1)
                    for piece in pieces:
                        weight *= connected_weight(piece, w)
                    d += weight
                    if connected:
                        c += weight
                    if pc_plus:
                        b += weight
                    if purely_crossing:
                        a += w[pi]
                assert weighted_brute_coeffs(n, w) == (a, b, c, d), n


class TestCountsTable:
    def test_reproduces_published_table(self):
        table = counts_table(12)
        for n in range(1, 13):
            assert table.row(n) == (n, *PUBLISHED_COUNTS[n])

    def test_row_lookup(self):
        table = counts_table(3)
        assert table.row(2) == (2, 0, 0, 1, 2)
        # True == 1.0 == 1, but neither is a size: row matches exactly an
        # int, as every size check of the package does.
        for n in (True, 1.0, "1", 0, -1, 4, 9):
            with pytest.raises(KeyError):
                table.row(n)

    @pytest.mark.parametrize("max_n", [1, 2, 3, 40, 120])
    def test_agrees_with_the_public_chain(self, max_n):
        # counts_table chains the integer kernels; the public functions
        # wrap the same kernels in Series.
        d = bell_series(max_n + 1)
        c = derive_c_from_d(d)
        b = derive_b_from_c(c)
        a = derive_a_from_b(b)
        rows = counts_table(max_n).rows
        assert rows == tuple((n, a[n], b[n], c[n], d[n]) for n in range(1, max_n + 1))
        assert all(type(v) is int for row in rows for v in row)

    def test_tsv_shape(self):
        text = counts_table(2).to_tsv()
        assert text.splitlines() == [
            "n\tPC\tPC+\tCO\tP",
            "1\t0\t1\t1\t1",
            "2\t0\t0\t1\t2",
        ]

    def test_json_shape(self):
        data = json.loads(json.dumps(counts_table(1).to_json()))
        assert data == [{"n": 1, "pc": 0, "pc_plus": 1, "co": 1, "all": 1}]

    def test_rejects_bad_max_n(self):
        with pytest.raises(ValueError):
            counts_table(0)

    def test_is_a_read_only_record(self):
        table = counts_table(1)
        assert isinstance(table, CountsTable)
        with pytest.raises(AttributeError):
            table.rows = ()
        with pytest.raises(AttributeError):
            del table.rows
