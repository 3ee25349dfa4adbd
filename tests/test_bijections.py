"""The three reversible decompositions and the weight transport."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from purecross import (
    Composition,
    CoverDecomposition,
    GapDecomposition,
    Partition,
    PartitionClass,
    PcPlusCase,
    WeightAssignment,
    adjoin_last_atom,
    connected_weight,
    contract,
    cover_assemble,
    cover_decompose,
    gap_assemble,
    gap_decompose,
    inflate,
    iterate,
    partition_weight,
    pc_plus_decompose,
    pc_plus_weight,
    weighted_brute_coeffs,
)
from purecross import bijections
from purecross.enumeration import _iter_rgs_plain

from oracles import all_partitions_brute, cover_decompose_brute, gap_decompose_brute


def compositions(n, parts):
    """All ways to write n as an ordered sum of ``parts`` positive terms."""
    for cuts in combinations(range(1, n), parts - 1):
        bounds = (0,) + cuts + (n,)
        yield Composition(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def weak_compositions(n, parts):
    """Ordered sums allowing zero terms, as plain tuples."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for head in range(n + 1):
        for rest in weak_compositions(n - head, parts - 1):
            yield (head,) + rest


class TestComposition:
    def test_basic(self):
        comp = Composition((2, 1, 3))
        assert comp.n == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            Composition(())
        with pytest.raises(ValueError):
            Composition((2, 0))
        with pytest.raises(ValueError):
            Composition((1, -1))
        with pytest.raises(ValueError):
            Composition((1, 2.0))

    def test_counting(self):
        assert sum(1 for _ in compositions(6, 3)) == 10


class TestPcPlusSplit:
    def test_purely_crossing_case(self):
        pi = Partition.parse("1,3|2,4")
        assert pc_plus_decompose(pi) == PcPlusCase(adjoined=False, base=pi)

    def test_adjoined_case(self):
        case = pc_plus_decompose(Partition.parse("1,3,5|2,4"))
        assert case == PcPlusCase(adjoined=True, base=Partition.parse("1,3|2,4"))

    def test_adjoin_last_atom(self):
        assert adjoin_last_atom(Partition.parse("1,3|2,4")) == Partition.parse(
            "1,3,5|2,4"
        )
        assert adjoin_last_atom(Partition.whole(1)) == Partition.whole(2)

    def test_errors(self):
        with pytest.raises(ValueError):
            pc_plus_decompose(Partition.whole(1))
        with pytest.raises(ValueError):
            pc_plus_decompose(Partition.whole(2))
        with pytest.raises(ValueError):
            pc_plus_decompose(Partition.parse("1,3|2|4"))
        with pytest.raises(ValueError):
            adjoin_last_atom(Partition.empty())

    def test_families_split_exactly(self):
        # Every no-neighbor connected partition of n >= 2 atoms is either
        # purely crossing or the adjoining of one with n - 1 atoms.
        for n in range(2, 9):
            members = set(iterate(n, PartitionClass.PC_PLUS))
            crossing = set(iterate(n, PartitionClass.PURELY_CROSSING))
            adjoined = {
                adjoin_last_atom(sigma)
                for sigma in iterate(n - 1, PartitionClass.PURELY_CROSSING)
            }
            assert crossing <= members
            assert crossing.isdisjoint(adjoined)
            assert crossing | adjoined == members
            for pi in members:
                case = pc_plus_decompose(pi)
                if case.adjoined:
                    assert adjoin_last_atom(case.base) == pi
                else:
                    assert case.base == pi


class TestInflateContract:
    def test_inflate_example(self):
        got = inflate(Partition.parse("1,3|2,4"), Composition((2, 1, 1, 1)))
        assert got == Partition.parse("1,2,4|3,5")

    def test_contract_example(self):
        base, comp = contract(Partition.parse("1,2,4|3,5"))
        assert base == Partition.parse("1,3|2,4")
        assert comp == Composition((2, 1, 1, 1))

    def test_whole_block_contracts_to_single_atom(self):
        base, comp = contract(Partition.whole(4))
        assert base == Partition.whole(1)
        assert comp == Composition((4,))

    def test_errors(self):
        with pytest.raises(ValueError):
            inflate(Partition.whole(2), Composition((1, 1)))
        with pytest.raises(ValueError):
            inflate(Partition.parse("1,3|2,4"), Composition((1, 1, 1)))
        with pytest.raises(ValueError):
            contract(Partition.singletons(2))
        with pytest.raises(ValueError):
            contract(Partition.empty())

    def test_roundtrip_from_connected(self):
        for n in range(1, 9):
            for pi in iterate(n, PartitionClass.CONNECTED):
                base, comp = contract(pi)
                assert base.is_pc_plus()
                assert not base.has_neighbors()
                assert comp.n == n
                assert inflate(base, comp) == pi

    def test_bijection_onto_connected(self):
        for n in range(1, 8):
            produced = []
            for m in range(1, n + 1):
                for base in iterate(m, PartitionClass.PC_PLUS):
                    for comp in compositions(n, m):
                        produced.append(inflate(base, comp))
            connected = list(iterate(n, PartitionClass.CONNECTED))
            assert len(produced) == len(set(produced)) == len(connected)
            assert set(produced) == set(connected)


class TestCoverDecomposition:
    def test_example(self):
        dec = cover_decompose(Partition.parse("1,3|2,4|5"))
        assert dec.cover == Partition.parse("1,2,3,4|5")
        assert dec.pieces == (Partition.parse("1,3|2,4"), Partition.whole(1))
        assert dec.n == 5
        assert cover_assemble(dec) == Partition.parse("1,3|2,4|5")

    def test_validation(self):
        with pytest.raises(ValueError, match="crossing"):
            CoverDecomposition(
                Partition.parse("1,3|2,4"),
                (Partition.whole(2), Partition.whole(2)),
            )
        with pytest.raises(ValueError, match="pieces"):
            CoverDecomposition(Partition.whole(3), ())
        with pytest.raises(ValueError, match="size"):
            CoverDecomposition(Partition.whole(3), (Partition.whole(2),))
        with pytest.raises(ValueError, match="not connected"):
            CoverDecomposition(Partition.whole(2), (Partition.singletons(2),))

    def test_roundtrip(self):
        for n in range(1, 9):
            for pi in iterate(n, PartitionClass.ALL):
                assert cover_assemble(cover_decompose(pi)) == pi

    def test_against_oracle(self):
        for n in range(8):
            for blocks in all_partitions_brute(n):
                dec = cover_decompose(Partition(n, blocks))
                cover, pieces = cover_decompose_brute(blocks)
                assert dec.cover.blocks == cover, blocks
                assert tuple(piece.blocks for piece in dec.pieces) == pieces, blocks

    def test_bijection_onto_all(self):
        for n in range(1, 7):
            produced = []
            for tau in iterate(n, PartitionClass.NONCROSSING):
                stacks = [list(iterate(len(b), PartitionClass.CONNECTED))
                          for b in tau.blocks]
                indices = [0] * len(stacks)
                while True:
                    pieces = tuple(stack[i] for stack, i in zip(stacks, indices))
                    produced.append(
                        cover_assemble(CoverDecomposition(tau, pieces))
                    )
                    for j in range(len(stacks) - 1, -1, -1):
                        indices[j] += 1
                        if indices[j] < len(stacks[j]):
                            break
                        indices[j] = 0
                    else:
                        break
            everything = list(iterate(n, PartitionClass.ALL))
            assert len(produced) == len(set(produced)) == len(everything)
            assert set(produced) == set(everything)


class TestGapDecomposition:
    def test_example(self):
        dec = gap_decompose(Partition.parse("1,5|2,4|3"))
        assert dec.core == Partition.whole(2)
        assert dec.gaps == (Partition.parse("1,3|2"), Partition.empty())
        assert dec.n == 5
        assert gap_assemble(dec) == Partition.parse("1,5|2,4|3")

    def test_connected_input_is_its_own_core(self):
        pi = Partition.parse("1,3|2,4")
        dec = gap_decompose(pi)
        assert dec.core == pi
        assert all(g == Partition.empty() for g in dec.gaps)

    def test_validation(self):
        with pytest.raises(ValueError, match="not connected"):
            GapDecomposition(Partition.singletons(2), (Partition.empty(),) * 2)
        with pytest.raises(ValueError, match="gaps"):
            GapDecomposition(Partition.whole(2), (Partition.empty(),))
        with pytest.raises(ValueError, match="at least one atom"):
            GapDecomposition(Partition.empty(), ())
        with pytest.raises(ValueError):
            gap_decompose(Partition.empty())

    def test_roundtrip(self):
        for n in range(1, 9):
            for pi in iterate(n, PartitionClass.ALL):
                assert gap_assemble(gap_decompose(pi)) == pi

    def test_against_oracle(self):
        for n in range(1, 8):
            for blocks in all_partitions_brute(n):
                dec = gap_decompose(Partition(n, blocks))
                core, gaps = gap_decompose_brute(blocks, n)
                assert dec.core.blocks == core, blocks
                assert tuple(gap.blocks for gap in dec.gaps) == gaps, blocks

    def test_bijection_onto_all(self):
        partitions_by_size = {0: [Partition.empty()]}
        for m in range(1, 6):
            partitions_by_size[m] = list(iterate(m, PartitionClass.ALL))
        for n in range(1, 7):
            produced = []
            for m in range(1, n + 1):
                for core in iterate(m, PartitionClass.CONNECTED):
                    for sizes in weak_compositions(n - m, m):
                        stacks = [partitions_by_size[s] for s in sizes]
                        indices = [0] * len(stacks)
                        while True:
                            gaps = tuple(
                                stack[i] for stack, i in zip(stacks, indices)
                            )
                            produced.append(
                                gap_assemble(GapDecomposition(core, gaps))
                            )
                            for j in range(len(stacks) - 1, -1, -1):
                                indices[j] += 1
                                if indices[j] < len(stacks[j]):
                                    break
                                indices[j] = 0
                            else:
                                break
            everything = list(iterate(n, PartitionClass.ALL))
            assert len(produced) == len(set(produced)) == len(everything)
            assert set(produced) == set(everything)


class TestWeights:
    def example_assignment(self):
        return WeightAssignment({Partition.parse("1,3|2,4"): Fraction(7, 2)})

    def test_defaulted_lookup(self):
        w = self.example_assignment()
        assert w[Partition.parse("1,3|2,4")] == Fraction(7, 2)
        assert w[Partition.parse("1,3,5|2,4,6")] == 1
        assert len(w) == 1
        assert Partition.parse("1,3|2,4") in w
        assert Partition.parse("1,3,5|2,4,6") not in w
        # Only a Partition can be in an assignment; other keys are not,
        # and looking one up is an error rather than the default weight.
        assert "1,3|2,4" not in w
        assert Partition.parse("1,3|2,4").rgs not in w
        for key in ("1,3|2,4", Partition.parse("1,3|2,4").rgs, None):
            with pytest.raises(TypeError):
                w[key]

    def test_rejects_bad_keys_and_floats(self):
        with pytest.raises(ValueError):
            WeightAssignment({Partition.whole(2): Fraction(1)})
        with pytest.raises(TypeError):
            WeightAssignment({Partition.parse("1,3|2,4"): 0.5})
        with pytest.raises(TypeError):
            WeightAssignment({Partition.parse("1,3|2,4"): True})
        with pytest.raises(ValueError):
            WeightAssignment.from_json([{"partition": "1,3|2,4", "weight": True}])

    def test_rejects_a_second_weight_for_one_partition(self):
        # The texts differ only in spacing, so both name 1,3|2,4; no entry
        # may silently replace another.
        data = [
            {"partition": "1,3|2,4", "weight": "7/2"},
            {"partition": " 1,3 | 2,4 ", "weight": "5"},
        ]
        with pytest.raises(ValueError, match=r"^1,3\|2,4 is assigned more than one weight$"):
            WeightAssignment.from_json(data)
        pi = Partition.parse("1,3|2,4")
        with pytest.raises(ValueError, match="more than one weight"):
            WeightAssignment([(pi, 1), (Partition(4, [[2, 4], [1, 3]]), 1)])

    def test_rejects_exponents_and_zero_denominators(self):
        # Exponent notation is refused before Fraction could build the
        # power; a zero denominator is a ValueError like any bad weight.
        pi = Partition.parse("1,3|2,4")
        for text, message in (
            ("1e999999999", "exponent"),
            ("-3E-999999999", "exponent"),
            ("1/0", "zero denominator"),
        ):
            with pytest.raises(ValueError, match=message):
                WeightAssignment({pi: text})
            with pytest.raises(ValueError, match=message):
                WeightAssignment.from_json([{"partition": str(pi), "weight": text}])

    def test_integer_weights_are_the_scaled_table(self):
        # L is the lcm of the denominators and each assigned key weighs
        # L w[key] as an int: on the empty assignment (L = 1), small
        # rationals, prime denominators near 10^4, and zeros with negatives.
        rnd = random.Random(41)
        support = [pi for n in range(4, 8) for pi in iterate(n, PartitionClass.PURELY_CROSSING)]
        primes = (9973, 10007, 10009, 10037, 10039)
        sets = [
            {},
            {pi: Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for pi in support},
            {pi: Fraction(rnd.randint(-10**6, 10**6), rnd.choice(primes)) for pi in support},
            {pi: rnd.choice((0, -1, -5, Fraction(-3, 7))) for pi in support},
        ]
        for weights in sets:
            w = WeightAssignment(weights)
            assert w._scale == lcm(*(Fraction(v).denominator for v in weights.values()))
            assert w._scaled.keys() == {pi.rgs for pi in weights}
            for pi, value in weights.items():
                assert type(w._scaled[pi.rgs]) is int
                assert Fraction(w._scaled[pi.rgs], w._scale) == value == w[pi]
        assert WeightAssignment()._scale == 1
        assert WeightAssignment(sets[2])._scale > 10**12

    def test_accepts_strings_and_integers(self):
        pi = Partition.parse("1,3|2,4")
        assert WeightAssignment({pi: "7/2"})[pi] == Fraction(7, 2)
        assert WeightAssignment({pi: 3})[pi] == Fraction(3)
        assert WeightAssignment([(pi, Fraction(1, 3))])[pi] == Fraction(1, 3)

    def test_json_roundtrip(self):
        w = WeightAssignment(
            {
                Partition.parse("1,3|2,4"): Fraction(7, 2),
                Partition.parse("1,4|2,5|3,6"): Fraction(-2, 9),
            }
        )
        data = w.to_json()
        assert data == [
            {"partition": "1,3|2,4", "weight": "7/2"},
            {"partition": "1,4|2,5|3,6", "weight": "-2/9"},
        ]
        back = WeightAssignment.from_json(data)
        assert back.items() == w.items()
        with pytest.raises(ValueError):
            WeightAssignment.from_json([{"partition": "1,3|2,4"}])

    def test_items_and_json_order(self):
        # Entries come out ordered by (n, rgs) whatever order they went in.
        texts = ["1,4|2,5|3,6", "1,3,5|2,4,6", "1,4|2,6|3,5", "1,3|2,4", "1,3|2,5|4,6"]
        w = WeightAssignment(
            {Partition.parse(t): Fraction(k - 2, k + 1) for k, t in enumerate(texts)}
        )
        assert [str(pi) for pi, _ in w.items()] == [
            "1,3|2,4",
            "1,3,5|2,4,6",
            "1,3|2,5|4,6",
            "1,4|2,5|3,6",
            "1,4|2,6|3,5",
        ]
        assert all(isinstance(pi, Partition) for pi, _ in w.items())
        assert json.dumps(w.to_json()) == (
            '[{"partition": "1,3|2,4", "weight": "1/4"}, '
            '{"partition": "1,3,5|2,4,6", "weight": "-1/2"}, '
            '{"partition": "1,3|2,5|4,6", "weight": "2/5"}, '
            '{"partition": "1,4|2,5|3,6", "weight": "-2"}, '
            '{"partition": "1,4|2,6|3,5", "weight": "0"}]'
        )

    def test_weight_examples(self):
        w = self.example_assignment()
        assert pc_plus_weight(Partition.parse("1,3|2,4"), w) == Fraction(7, 2)
        assert pc_plus_weight(Partition.parse("1,3,5|2,4"), w) == Fraction(7, 2)
        assert pc_plus_weight(Partition.whole(1), w) == 1
        assert connected_weight(Partition.parse("1,2,4|3,5"), w) == Fraction(7, 2)
        assert connected_weight(Partition.whole(3), w) == 1
        assert partition_weight(Partition.parse("1,3|2,4|5"), w) == Fraction(7, 2)
        assert partition_weight(Partition.singletons(4), w) == 1
        assert partition_weight(Partition.empty(), w) == 1

    def test_weight_errors(self):
        w = self.example_assignment()
        for pi in (Partition.whole(2), Partition.parse("1,2,4|3,5"), Partition.empty()):
            with pytest.raises(ValueError):
                pc_plus_weight(pi, w)
        for pi in (Partition.singletons(2), Partition.empty()):
            with pytest.raises(ValueError):
                connected_weight(pi, w)

    @pytest.mark.parametrize("w", [None, {}, {"1,3|2,4": 2}], ids=["None", "empty dict", "dict"])
    def test_weight_readers_refuse_what_is_not_an_assignment(self, w):
        # Keyless partitions too: no weight is read, yet w is still wrong.
        for weight, pi in (
            (partition_weight, Partition.parse("1|2")),
            (partition_weight, Partition.parse("1,3|2,4|5")),
            (connected_weight, Partition.whole(2)),
            (connected_weight, Partition.parse("1,2,4|3,5")),
            (pc_plus_weight, Partition.whole(1)),
            (pc_plus_weight, Partition.parse("1,3|2,4")),
        ):
            with pytest.raises(TypeError, match=f"not {type(w).__name__}$"):
                weight(pi, w)
        with pytest.raises(TypeError, match=f"WeightAssignment, not {type(w).__name__}$"):
            weighted_brute_coeffs(3, w)

    def test_weights_raise_exactly_outside_their_families(self):
        # The empty partition belongs to no family, though it is vacuously
        # connected.
        w = self.example_assignment()
        sweep = [Partition.empty()] + [pi for n in range(1, 10) for pi in iterate(n)]
        for weight, member in (
            (connected_weight, lambda pi: pi.n >= 1 and pi.is_connected()),
            (pc_plus_weight, Partition.is_pc_plus),
        ):
            for pi in sweep:
                try:
                    weight(pi, w)
                    raised = False
                except ValueError:
                    raised = True
                assert raised != member(pi), (weight.__name__, pi)

    def _random_assignment(self, rnd, max_n=7):
        support = [
            pi
            for n in range(4, max_n + 1)
            for pi in iterate(n, PartitionClass.PURELY_CROSSING)
        ]
        return WeightAssignment(
            {pi: Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for pi in support}
        )

    def test_weights_match_pinned_values(self):
        # partition_weight, connected_weight and pc_plus_weight on every
        # partition with n <= 9 under the seeded assignments, each value
        # or ValueError hashed in sweep order: the digest pins them all,
        # whatever the weight table is keyed by.
        sweep = [Partition.empty()] + [pi for n in range(1, 10) for pi in iterate(n)]
        assignments = [self.example_assignment()] + [
            self._random_assignment(random.Random(seed)) for seed in (7, 11, 13)
        ]
        digest = hashlib.sha256()
        for w in assignments:
            for weight in (partition_weight, connected_weight, pc_plus_weight):
                for pi in sweep:
                    try:
                        value = str(weight(pi, w))
                    except ValueError:
                        value = "ValueError"
                    digest.update(f"{value}\n".encode())
        assert digest.hexdigest() == (
            "fde0554c7c05105701071ff128eb647db9ba9ff4b1e9fb4c8655a6054b9a5690"
        )

    def test_transport_consistency(self):
        # The cached weight functions agree with recomputing through the
        # decompositions step by step.
        rnd = random.Random(7)
        w = self._random_assignment(rnd)
        for n in range(1, 8):
            for pi in iterate(n, PartitionClass.CONNECTED):
                base, _ = contract(pi)
                assert connected_weight(pi, w) == pc_plus_weight(base, w)
                if base.n >= 2:
                    case = pc_plus_decompose(base)
                    assert pc_plus_weight(base, w) == w[case.base]
        for n in range(1, 7):
            for pi in iterate(n, PartitionClass.ALL):
                dec = cover_decompose(pi)
                expected = Fraction(1)
                for piece in dec.pieces:
                    expected *= connected_weight(piece, w)
                assert partition_weight(pi, w) == expected

    def test_rgs_keys_match_the_decompositions(self):
        # The rgs key kernel against cover_decompose -> contract ->
        # pc_plus_decompose on every partition with n <= 10, one at a
        # time; the cover is whole exactly when the decomposition has one
        # piece.  Each distinct piece is contracted once.
        keys_of = bijections._weight_keys.__wrapped__
        piece_keys = {}  # piece -> its key, or None when it has none
        for n in range(1, 11):
            for pi in iterate(n, PartitionClass.ALL):
                pieces = cover_decompose(pi).pieces
                for piece in pieces:
                    if piece not in piece_keys:
                        base, _ = contract(piece)
                        key = pc_plus_decompose(base).base.rgs if base.n > 1 else None
                        piece_keys[piece] = key
                expected = sorted(key for key in map(piece_keys.get, pieces) if key is not None)
                got = keys_of(pi.rgs)
                assert got == (tuple(expected), len(pieces) == 1), pi
        assert keys_of(()) == ((), True)

    def test_singletons_carry_no_keys(self):
        # Dropping the singleton blocks and relabeling the other atoms in
        # order leaves the keys unchanged, which lets the weighted brute
        # sums walk singleton-free strings only.
        keys_of = bijections._weight_keys.__wrapped__
        for n in range(1, 10):
            for rgs in _iter_rgs_plain(n):
                kept = [v for v in rgs if rgs.count(v) > 1]
                label = {}
                reduced = [label.setdefault(v, len(label)) for v in kept]
                assert keys_of(reduced)[0] == keys_of(rgs)[0], rgs

    def test_key_caches_are_bounded(self):
        # One bounded cache, keyed by the rgs, serves all three weight
        # functions; an entry cached by partition_weight does not let the
        # others skip their membership checks.
        assert bijections._weight_keys.cache_info().maxsize == 1 << 16
        w = self.example_assignment()
        for pi in (Partition.parse("1,2,4|3,5"), Partition.empty()):
            partition_weight(pi, w)
            with pytest.raises(ValueError):
                pc_plus_weight(pi, w)
        with pytest.raises(ValueError):
            connected_weight(Partition.empty(), w)

    def test_inflation_preserves_weight(self):
        rnd = random.Random(11)
        w = self._random_assignment(rnd)
        for n in range(1, 7):
            for m in range(1, n + 1):
                for base in iterate(m, PartitionClass.PC_PLUS):
                    for comp in compositions(n, m):
                        assert connected_weight(inflate(base, comp), w) == (
                            pc_plus_weight(base, w)
                        )

    def test_gap_multiplicativity(self):
        rnd = random.Random(13)
        w = self._random_assignment(rnd)
        for n in range(1, 8):
            for pi in iterate(n, PartitionClass.ALL):
                dec = gap_decompose(pi)
                expected = connected_weight(dec.core, w)
                for gap in dec.gaps:
                    expected *= partition_weight(gap, w)
                assert partition_weight(pi, w) == expected
