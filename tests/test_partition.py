"""Partition construction, canonical forms, predicates, and the cover."""

import copy
import hashlib
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from purecross import ParseError, Partition, PartitionError, iterate
from purecross.partition import _scan

from oracles import (
    all_partitions_brute,
    catalan,
    cover_brute,
    is_connected_brute,
    is_noncrossing_brute,
    noncrossing_partitions_brute,
    refines_brute,
    splits_brute,
)


def canonical(blocks):
    """Oracle blocks in canonical form: atoms ascending, blocks ordered by
    their least atom, empty blocks dropped."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks if b))


@st.composite
def partitions(draw, max_n=8):
    """Random partitions via a normalized restricted-growth string."""
    n = draw(st.integers(1, max_n))
    raw = draw(st.lists(st.integers(0, max_n), min_size=n, max_size=n))
    rgs = [0]
    top = 0
    for value in raw[1:]:
        value %= top + 2
        rgs.append(value)
        top = max(top, value)
    return Partition.from_rgs(rgs)


class TestConstruction:
    def test_blocks_are_canonical(self):
        pi = Partition(4, [[2, 4], [3, 1]])
        assert pi.blocks == ((1, 3), (2, 4))
        assert pi.n == 4

    def test_accepts_any_iterables(self):
        assert Partition(3, ({3}, (1,), [2])).blocks == ((1,), (2,), (3,))

    def test_rgs(self):
        assert Partition(4, [[1, 3], [2, 4]]).rgs == (0, 1, 0, 1)
        assert Partition(5, [[1, 2, 5], [3], [4]]).rgs == (0, 0, 1, 2, 0)

    def test_from_rgs_roundtrip_exhaustive(self):
        # Every way to build or copy a partition gives one value: equal,
        # one hash, one place in the order between its neighbours in the
        # enumeration, and the blocks the oracle gives.  Equality reads
        # only the rgs, so the blocks are checked against the oracle's
        # directly.
        members = [pi for n in range(1, 8) for pi in iterate(n)]
        rank = {pi.rgs: i for i, pi in enumerate(members)}
        for n in range(1, 8):
            everything = list(all_partitions_brute(n))
            assert sum(len(rgs) == n for rgs in rank) == len(everything)
            for blocks in everything:
                expected = canonical(blocks)
                pi = Partition(n, [b[::-1] for b in reversed(blocks)])
                assert pi.n == n and pi.blocks == expected
                i = rank[pi.rgs]
                below = members[i - 1] if i > 0 else None
                above = members[i + 1] if i + 1 < len(members) else None
                for same in (
                    Partition.from_rgs(pi.rgs),
                    Partition.parse(pi.text()),
                    Partition.from_json(json.loads(json.dumps(pi.to_json()))),
                    members[i],
                    pickle.loads(pickle.dumps(pi)),
                    copy.copy(pi),
                    copy.deepcopy(pi),
                ):
                    assert same == pi and hash(same) == hash(pi)
                    assert same.n == n and same.blocks == expected
                    assert same <= pi and not same < pi and not pi < same
                    assert below is None or (below < same and not same < below)
                    assert above is None or (same < above and not above < same)

    def test_n_and_blocks_are_read_off_the_rgs(self):
        # The rgs is the one field; n and blocks cannot be set apart from it.
        assert Partition.__slots__ == ("rgs",)
        pi = Partition.parse("1,3|2,4")
        for name, value in (("n", 5), ("blocks", ((1, 2, 3, 4),))):
            with pytest.raises(AttributeError):
                setattr(pi, name, value)
        assert pi.n == 4 and pi.blocks == ((1, 3), (2, 4))

    def test_rgs_is_read_only(self):
        # A member of a set keeps its hash, and no unchecked string gets in.
        pi = Partition.parse("1,3|2,4")
        members = {pi}
        for change in (
            lambda: setattr(pi, "rgs", (0, 0, 0, 0)),
            lambda: setattr(pi, "rgs", [0, 5]),
            lambda: delattr(pi, "rgs"),
            lambda: setattr(pi, "extra", 1),
        ):
            with pytest.raises(AttributeError, match="immutable"):
                change()
        assert pi.rgs == (0, 1, 0, 1) and pi in members

    def test_from_rgs_rejects_gaps(self):
        with pytest.raises(PartitionError):
            Partition.from_rgs([0, 2])
        with pytest.raises(PartitionError):
            Partition.from_rgs([1])
        assert Partition.from_rgs([]) == Partition.empty()

    @pytest.mark.parametrize(
        "rgs, message",
        [
            ([0, 1.0, 0, 1.0], "value 1.0 at position 1 is not an integer"),
            ([0, True, 0, 1], "value True at position 1 is not an integer"),
            (["a"], "value 'a' at position 0 is not an integer"),
        ],
        ids=["float", "bool", "str"],
    )
    def test_from_rgs_rejects_values_that_are_not_ints(self, rgs, message):
        with pytest.raises(PartitionError, match=message):
            Partition.from_rgs(rgs)

    def test_pickle_and_copy_round_trip(self):
        for pi in (Partition.parse("1,3|2,4|5"), Partition.empty()):
            for clone in (pickle.loads(pickle.dumps(pi)), copy.copy(pi), copy.deepcopy(pi)):
                assert clone == pi and hash(clone) == hash(pi)
                assert clone.blocks == pi.blocks

    def test_empty_and_named_constructors(self):
        assert Partition.empty().n == 0
        assert Partition.empty().blocks == ()
        assert Partition.singletons(3).blocks == ((1,), (2,), (3,))
        assert Partition.whole(3).blocks == ((1, 2, 3),)

    def test_validation_errors(self):
        with pytest.raises(PartitionError, match="more than one block"):
            Partition(3, [[1, 2], [2, 3]])
        with pytest.raises(PartitionError, match="uncovered"):
            Partition(3, [[1, 3]])
        with pytest.raises(PartitionError, match="out of range"):
            Partition(3, [[1, 2], [3, 4]])
        with pytest.raises(PartitionError, match="out of range"):
            Partition(2, [[0, 1], [2]])
        with pytest.raises(PartitionError, match="empty block"):
            Partition(2, [[1, 2], []])
        with pytest.raises(PartitionError, match="not an integer"):
            Partition(2, [[1, 2.0]])
        with pytest.raises(PartitionError):
            Partition(-1, [])

    def test_blocks_are_read_once_in_order(self):
        # Blocks may be one-shot iterators: each is read once, and an
        # empty one is reported when it is reached, before any later
        # block is read.
        blocks = [iter([3, 1]), iter([2])]
        assert Partition(3, blocks) == Partition.parse("1,3|2")
        assert Partition(3, (iter(b) for b in ([1], [2, 3]))) == Partition.parse("1|2,3")
        for raw, message in (
            ([iter([1, 2]), iter([]), iter([0])], "empty block"),
            ([iter([]), iter([1, 1])], "empty block"),
            ([iter([1]), iter([1]), iter([])], "atom 1 appears in more than one block"),
            ([iter([1, 2]), iter([3.0]), iter([])], "atom 3.0 is not an integer"),
        ):
            with pytest.raises(PartitionError) as info:
                Partition(2, raw)
            assert str(info.value) == message


def _scanned(text):
    """Partition.parse as the scanner alone reads the text."""
    if not text.strip():
        return Partition.empty()
    blocks = _scan(text)
    return Partition(max(map(max, blocks)), blocks)


def _outcome(parse, text):
    try:
        return parse(text).rgs
    except PartitionError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


# Spaces the scanner skips (int() does not strip \x1c), a decimal digit
# that is not ASCII, a digit that is not decimal, and letters.
_FUZZ_ALPHABET = "0123456789" * 3 + ",|" * 6 + "\t\n\x1c\xa0 " * 2 + "\u0663\u00b2ax"


def _parse_corpus():
    """Fixed edge cases, then 24,000 seeded texts: random strings over
    the alphabet, and the text of random partitions with whitespace put
    around their tokens, half of them with one character changed."""
    yield from (
        "", "  ", "1,,2", "|1", "1|", "1 2", "0", "0,1|1", "1,2|2", "1,3",
        "1" * 5000, "1|1000000000000", "1 |\x1c2", "2,\u0663|1", "1,\u00b2",
        "00,1", " " + "1" * 4300 + " ", "1|" + "1" * 4301 + " ",
    )
    rnd = random.Random(2016)
    spaces = " \t\n\x1c\xa0"
    for i in range(24_000):
        if i % 2:
            yield "".join(rnd.choices(_FUZZ_ALPHABET, k=rnd.randint(0, 12)))
            continue
        n = rnd.randint(1, 9)
        labels = [rnd.randrange(n) for _ in range(n)]
        blocks = {}
        for atom, label in enumerate(labels, 1):
            blocks.setdefault(label, []).append(str(atom))
        tokens = "|".join(",".join(b) for b in blocks.values())
        text = "".join(rnd.choice(["", "", "", *spaces]) + c for c in tokens)
        if i % 4:
            k = rnd.randrange(len(text) + 1)
            text = text[:k] + rnd.choice(["", *_FUZZ_ALPHABET]) + text[k + 1:]
        yield text


class TestTextForms:
    def test_text(self):
        assert Partition(4, [[1, 3], [2, 4]]).text() == "1,3|2,4"
        assert str(Partition.singletons(2)) == "1|2"
        assert Partition.empty().text() == ""

    def test_parse(self):
        assert Partition.parse("1,3|2,4") == Partition(4, [[1, 3], [2, 4]])
        assert Partition.parse(" 2 , 4 | 1 , 3 ") == Partition(4, [[1, 3], [2, 4]])
        assert Partition.parse("") == Partition.empty()

    @pytest.mark.parametrize("text", [5, None, b"1,3|2,4"], ids=["int", "None", "bytes"])
    def test_parse_takes_only_text(self, text):
        with pytest.raises(TypeError, match="partition text must be a str"):
            Partition.parse(text)

    def test_parse_error_positions(self):
        with pytest.raises(ParseError) as info:
            Partition.parse("1,3|2,x")
        assert info.value.pos == 6
        with pytest.raises(ParseError, match="start at 1"):
            Partition.parse("0,1")
        with pytest.raises(ParseError):
            Partition.parse("1,,2")
        with pytest.raises(ParseError):
            Partition.parse("1,2|")
        with pytest.raises(PartitionError, match="uncovered"):
            Partition.parse("1,3")
        # More digits than int() converts is a parse error at that atom.
        with pytest.raises(ParseError, match="too many digits") as info:
            Partition.parse("1,2|" + "1" * 5000)
        assert info.value.pos == 4

    def test_huge_atom_fails_in_bounded_memory(self):
        for build in (
            lambda: Partition.parse("10000000"),
            lambda: Partition.parse("1|1000000000000"),
            lambda: Partition.from_json({"n": 10**7, "blocks": [[1]]}),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(PartitionError, match="uncovered"):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_parse_matches_the_scanner(self):
        # parse reads text that fits the grammar by splitting it, and the
        # scanner reads the grammar's longest prefix of every text; both
        # must give the same partition or the same error, message and
        # offset.
        for text in _parse_corpus():
            assert _outcome(Partition.parse, text) == _outcome(_scanned, text), repr(text)

    def test_parse_outcomes_are_pinned(self):
        # The partition, or the error type, message and offset, of every
        # corpus text: _scan derives each error from where the grammar
        # stops, and the digest holds every one of them fixed.
        digest = hashlib.sha256()
        for text in _parse_corpus():
            digest.update(f"{_outcome(Partition.parse, text)!r}\n".encode())
        assert digest.hexdigest() == (
            "0b36066256371e57deaa351a94225c5f083f73cfbddec22b72bfaa9d7c9e692f"
        )

    def test_repr_round_trips(self):
        pi = Partition(5, [[1, 4], [2, 3], [5]])
        assert eval(repr(pi)) == pi

    def test_json_roundtrip(self):
        for n in range(0, 6):
            for blocks in all_partitions_brute(n):
                pi = Partition(n, blocks)
                payload = json.loads(json.dumps(pi.to_json()))
                assert Partition.from_json(payload) == pi

    @given(partitions())
    def test_text_roundtrip_random(self, pi):
        assert Partition.parse(pi.text()) == pi


class TestOrderingAndHash:
    def test_lex_order_is_rgs_order(self):
        a = Partition.from_rgs([0, 0, 1])
        b = Partition.from_rgs([0, 1, 0])
        assert a < b and a <= b and not b < a
        assert sorted([b, a]) == [a, b]

    def test_shorter_before_longer(self):
        assert Partition.whole(2) < Partition.whole(3)

    def test_hash_consistency(self):
        seen = {Partition(4, [[1, 3], [2, 4]]): "x"}
        assert seen[Partition(4, [[2, 4], [3, 1]])] == "x"


class TestSplits:
    def test_examples(self):
        pi = Partition(6, [[1, 3], [2, 5], [4, 6]])
        assert pi.splits({4, 6})
        assert pi.splits({1, 2, 3, 5})
        assert not pi.splits({1, 3, 4})
        assert pi.splits(set())
        assert pi.splits(range(1, 7))

    def test_rejects_foreign_atoms(self):
        with pytest.raises(PartitionError):
            Partition.whole(3).splits({3, 4})

    def test_against_oracle_with_complement(self):
        for n in range(1, 6):
            universe = set(range(1, n + 1))
            subsets = [
                {a for a in universe if mask >> (a - 1) & 1}
                for mask in range(1 << n)
            ]
            for blocks in all_partitions_brute(n):
                pi = Partition(n, blocks)
                for subset in subsets:
                    expected = splits_brute(subset, blocks)
                    assert pi.splits(subset) == expected
                    assert pi.splits(universe - subset) == expected


class TestPredicates:
    def test_noncrossing_examples(self):
        assert not Partition.parse("1,3|2,4").is_noncrossing()
        assert Partition.parse("1,4|2,3").is_noncrossing()
        assert Partition.singletons(4).is_noncrossing()
        assert Partition.whole(4).is_noncrossing()
        assert Partition.empty().is_noncrossing()

    def test_noncrossing_against_oracle(self):
        for n in range(1, 8):
            for blocks in all_partitions_brute(n):
                assert Partition(n, blocks).is_noncrossing() == is_noncrossing_brute(
                    blocks, n
                ), blocks

    def test_noncrossing_counts_are_catalan(self):
        for n in range(1, 8):
            found = sum(
                Partition(n, blocks).is_noncrossing()
                for blocks in all_partitions_brute(n)
            )
            assert found == catalan(n)

    def test_has_neighbors(self):
        assert Partition.parse("1,2,4|3,5").has_neighbors()
        assert not Partition.parse("1,3|2,4").has_neighbors()
        assert not Partition.parse("1,3,5|2,4,6").has_neighbors()
        assert Partition.whole(2).has_neighbors()
        assert not Partition.whole(1).has_neighbors()
        assert not Partition(0, []).has_neighbors()

    def test_connected_examples(self):
        assert Partition.parse("1,3|2,4").is_connected()
        assert Partition.whole(3).is_connected()
        assert Partition.whole(1).is_connected()
        assert not Partition.singletons(2).is_connected()
        assert not Partition.parse("1,4|2,3").is_connected()
        assert not Partition.parse("1,3|2|4").is_connected()

    def test_connected_against_oracle(self):
        for n in range(1, 8):
            for blocks in all_partitions_brute(n):
                assert Partition(n, blocks).is_connected() == is_connected_brute(
                    blocks, n
                ), blocks

    def test_no_neighbor_connected_examples(self):
        assert Partition.whole(1).is_pc_plus()
        assert Partition.parse("1,3|2,4").is_pc_plus()
        assert Partition.parse("1,3,5|2,4").is_pc_plus()
        assert not Partition.whole(2).is_pc_plus()
        assert not Partition.parse("1,2,4|3,5").is_pc_plus()
        assert not Partition.singletons(2).is_pc_plus()

    def test_purely_crossing_examples(self):
        assert Partition.parse("1,3|2,4").is_purely_crossing()
        assert Partition.parse("1,3,5|2,4,6").is_purely_crossing()
        assert not Partition.whole(1).is_purely_crossing()
        assert not Partition.parse("1,3,5|2,4").is_purely_crossing()
        assert not Partition.parse("1,2|3,4").is_purely_crossing()

    def test_purely_crossing_is_empty_below_four(self):
        for n in range(1, 4):
            for blocks in all_partitions_brute(n):
                assert not Partition(n, blocks).is_purely_crossing()

    def test_purely_crossing_from_parts(self):
        for n in range(1, 8):
            for blocks in all_partitions_brute(n):
                pi = Partition(n, blocks)
                expected = pi.is_pc_plus() and not pi.same_block(1, n)
                assert pi.is_purely_crossing() == expected


class TestCover:
    def test_example(self):
        pi = Partition(5, [[1, 3], [2, 4], [5]])
        assert pi.noncrossing_cover() == Partition(5, [[1, 2, 3, 4], [5]])

    def test_noncrossing_partitions_are_fixed(self):
        for n in range(1, 7):
            for blocks in noncrossing_partitions_brute(n):
                pi = Partition(n, blocks)
                assert pi.noncrossing_cover() == pi

    def test_cover_is_idempotent(self):
        for n in range(1, 8):
            for blocks in all_partitions_brute(n):
                cover = Partition(n, blocks).noncrossing_cover()
                assert cover.noncrossing_cover() == cover

    def test_minimality_against_oracle(self):
        for n in range(1, 7):
            ncs = noncrossing_partitions_brute(n)
            for blocks in all_partitions_brute(n):
                got = list(Partition(n, blocks).noncrossing_cover().blocks)
                assert got == cover_brute(blocks, n, ncs)

    def test_minimality_against_oracle_deep(self, deep):
        for n in (7, 8):
            ncs = noncrossing_partitions_brute(n)
            for blocks in all_partitions_brute(n):
                got = list(Partition(n, blocks).noncrossing_cover().blocks)
                assert got == cover_brute(blocks, n, ncs)

    def test_connected_iff_cover_is_whole(self):
        for n in range(1, 10):
            whole = Partition.whole(n)
            for blocks in all_partitions_brute(n):
                pi = Partition(n, blocks)
                assert pi.is_connected() == (pi.noncrossing_cover() == whole)

    @given(partitions())
    def test_cover_lies_above_and_is_noncrossing(self, pi):
        cover = pi.noncrossing_cover()
        assert cover.is_noncrossing()
        assert pi.is_refinement_of(cover)


class TestOperations:
    def test_rotate_example(self):
        pi = Partition(4, [[1, 3], [2, 4]])
        assert pi.rotate(1) == pi
        assert Partition.parse("1,2|3,4").rotate(1) == Partition.parse("1,4|2,3")
        assert Partition.parse("1,2|3,4").rotate(-1) == Partition.parse("1,4|2,3")

    def test_rotate_composes(self):
        pi = Partition.parse("1,2,5|3|4,6")
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert pi.rotate(a).rotate(b) == pi.rotate(a + b)
        assert pi.rotate(0) == pi
        assert pi.rotate(6) == pi

    def test_rotation_preserves_purely_crossing(self):
        from purecross import PartitionClass, iterate

        for n in range(4, 11):
            members = set(iterate(n, PartitionClass.PURELY_CROSSING))
            for pi in members:
                for shift in range(n):
                    assert pi.rotate(shift) in members

    def test_rotate_against_oracle(self):
        for n in range(1, 7):
            for blocks in all_partitions_brute(n):
                pi = Partition(n, blocks)
                for r in range(-n, n + 1):
                    got = pi.rotate(r)
                    moved = [[(a - 1 + r) % n + 1 for a in b] for b in blocks]
                    assert got.n == n and got.blocks == canonical(moved), (blocks, r)

    def test_refinement_against_oracle(self):
        for n in range(1, 6):
            everything = list(all_partitions_brute(n))
            built = [Partition(n, blocks) for blocks in everything]
            for fine_blocks, fine in zip(everything, built):
                for coarse_blocks, coarse in zip(everything, built):
                    assert fine.is_refinement_of(coarse) == refines_brute(
                        fine_blocks, coarse_blocks
                    )

    def test_refinement(self):
        fine = Partition.parse("1,3|2|4")
        coarse = Partition.parse("1,2,3|4")
        assert fine.is_refinement_of(coarse)
        assert not coarse.is_refinement_of(fine)
        assert fine.is_refinement_of(fine)
        with pytest.raises(PartitionError):
            fine.is_refinement_of(Partition.whole(3))

    def test_same_block(self):
        pi = Partition.parse("1,3|2,4")
        assert pi.same_block(1, 3)
        assert not pi.same_block(1, 2)
        with pytest.raises(PartitionError):
            pi.same_block(0, 1)

    def test_same_block_rejects_atoms_that_are_not_ints(self):
        pi = Partition.parse("1,3|2,4")
        with pytest.raises(PartitionError, match="atom True is not an integer"):
            pi.same_block(True, 3)
        with pytest.raises(PartitionError, match="atom '1' is not an integer"):
            pi.same_block("1", 2)
