"""Set partitions of {1, ..., n} in canonical form.

A partition stores its restricted-growth string ``rgs`` and nothing
else: ``rgs[i]`` is the index of the block containing atom ``i + 1``,
blocks numbered in order of first appearance.  The size ``n`` is the
length of the string, the hash is the string's, and the tuple of blocks
(sorted by their minimum, atoms ascending inside each block) is read off
the string in one pass whenever it is asked for.  Every instance is
made by the one trusted constructor ``Partition._raw``.
``Partition(n, blocks)``, ``from_rgs``, ``parse`` and ``from_json``
check their input before they call it; partitions derived from one
already built (the cover, rotations, decomposition pieces) go to it
directly.

The predicates defined here classify a partition into the families the
rest of the package enumerates and transforms: noncrossing, connected
(no proper subinterval of the ground set is a union of blocks), the
no-neighbor connected family, and the purely crossing family (connected,
no block contains two adjacent atoms, and the first and last atoms are
in different blocks).

>>> pi = Partition.parse("1,3|2,4")
>>> pi.is_noncrossing(), pi.is_connected(), pi.is_purely_crossing()
(False, True, True)
>>> str(pi.noncrossing_cover())
'1,2,3,4'
"""

import re
from operator import eq


class PartitionError(ValueError):
    """Raised when block data does not describe a partition of {1, ..., n},
    and on any size, atom or shift that is not an int in range."""


class ParseError(PartitionError):
    """Raised on malformed partition text; ``pos`` is the offset into ``text``."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(message)
        self.text = text
        self.pos = pos


# The one definition of partition text: atoms (runs of decimal digits)
# separated by ',' inside a block and '|' between blocks, with whitespace
# around any of them.  ``parse`` splits text that fits it, and ``_scan``
# reports an error where its longest match stops, so the whitespace
# skipped and the digits read are always the grammar's ``\s`` and ``\d``.
_GRAMMAR = re.compile(r"\s*\d+\s*(?:[,|]\s*\d+\s*)*")


def _integer(value, name: str, least=None, most=None) -> int:
    """``value``, checked to be an int (not a bool, nor any other int
    subclass) in least .. most, either bound left open when None."""
    if type(value) is not int:
        raise PartitionError(f"{name} {value!r} is not an integer")
    if (least is not None and value < least) or (most is not None and value > most):
        low = "" if least is None else least
        high = "" if most is None else most
        raise PartitionError(f"{name} {value} out of range {low}..{high}")
    return value


class _Record:
    """Base of the package's read-only classes.  A record names its
    fields in ``__slots__`` and ``__match_args__``, checks its arguments
    in ``__init__`` and stores them with ``_fill``.  Records of one class
    are equal when their fields are, hash as the tuple of their fields,
    print as ``Name(field=value, ...)``, and pickle and copy through the
    checked constructor.  No attribute of any subclass can be set or
    deleted.  ``Partition`` defines equality, order, hash, repr and
    pickling its own way, and ``Series`` only its repr."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def _relabel(values) -> tuple[int, ...]:
    """``values`` with each distinct value replaced by its rank in order
    of first appearance: a restricted-growth string."""
    label = {}
    return tuple([label.setdefault(v, len(label)) for v in values])


def _checked_rgs(n: int, raw_blocks) -> tuple[int, ...]:
    """The rgs of raw block data, once it is checked to partition
    {1, .., n}: each atom maps to the index of its block as given, and
    the indices are relabelled by first appearance."""
    _integer(n, "ground set size", 0)
    where = {}  # not a list per atom: memory stays bounded by the input
    for index, block in enumerate(raw_blocks):
        size = len(where)
        for a in block:
            if not (type(a) is int and 0 < a <= n):
                _integer(a, "atom", 1, n)  # raises, naming what is wrong
            if a in where:
                raise PartitionError(f"atom {a} appears in more than one block")
            where[a] = index
        if len(where) == size:  # every atom read was new: the block had none
            raise PartitionError("empty block")
    if len(where) < n:  # distinct atoms in 1 .. n: some atom is missing
        for a in range(1, n + 1):
            if a not in where:
                raise PartitionError(f"atom {a} uncovered")
    return _relabel([where[a] for a in range(1, n + 1)])


def _scan(text: str) -> list[list[int]]:
    """The blocks of nonblank partition text, or ``ParseError`` at the
    first offending character.  ``Partition.parse`` calls it only when
    its grammar match and split give no partition.

    The longest prefix ``_GRAMMAR`` accepts is read atom by atom, so an
    atom 0 or one of too many digits is reported where it starts.  Past
    the prefix, after the whitespace and any separator that lacks its
    atom, the next character is what is wrong: the end of the text or a
    second separator wants an atom, a digit wants a separator, and
    anything else is foreign.
    """
    fit = _GRAMMAR.match(text)
    end = fit.end() if fit else 0
    blocks: list[list[int]] = [[]]
    last = 0
    for atom in re.finditer(r"\d+", text[:end]):
        if "|" in text[last:atom.start()]:
            blocks.append([])
        last = atom.end()
        try:
            value = int(atom.group())
        except ValueError:  # more digits than int() converts
            raise ParseError("atom number has too many digits", text, atom.start()) from None
        if value == 0:
            raise ParseError("atom numbers start at 1", text, atom.start())
        blocks[-1].append(value)
    if end == len(text):
        return blocks
    pos = end + 1 if fit and text[end] in ",|" else end
    pos = re.compile(r"\s*").match(text, pos).end()
    if pos == len(text) or text[pos] in ",|":
        raise ParseError("expected an atom number", text, pos)
    if _GRAMMAR.match(text, pos):  # a digit, since whitespace is skipped
        raise ParseError("expected ',' or '|'", text, pos)
    raise ParseError("unexpected character", text, pos)


class Partition(_Record):
    """A set partition of {1, .., n}; immutable, hashable, totally ordered.

    Construct from blocks (any iterable of iterables), a restricted-growth
    string, or the text format ``"1,3|2,4"``; each is checked, then
    turned into the rgs that ``_raw`` stores, the one field an instance
    has.  ``n`` and ``blocks`` are read off it, and no attribute can be
    set or deleted once ``_raw`` has filled the slot.  The empty
    partition of the empty ground set exists as ``Partition.empty()``; it
    only occurs as a gap filler in decompositions, never in enumeration
    streams.
    """

    __slots__ = ("rgs",)

    def __new__(cls, n: int, blocks):
        return cls._raw(_checked_rgs(n, blocks))

    def __reduce__(self):
        # Pickle and copy rebuild through the checked rgs constructor.
        return Partition.from_rgs, (self.rgs,)

    @classmethod
    def _raw(cls, rgs) -> "Partition":
        """The partition with restricted-growth tuple ``rgs``, unchecked.
        Every instance is made here, and it stores the string alone
        through the slot's own setter, past ``__setattr__``."""
        self = object.__new__(cls)
        _set_rgs(self, rgs)
        return self

    @property
    def n(self) -> int:
        """The size of the ground set: the length of the rgs."""
        return len(self.rgs)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, read off the rgs in one pass on each access."""
        blocks = []
        for atom, v in enumerate(self.rgs, 1):
            if v < len(blocks):
                blocks[v].append(atom)
            else:
                blocks.append([atom])
        return tuple(map(tuple, blocks))

    @classmethod
    def from_rgs(cls, rgs) -> "Partition":
        """Build from a restricted-growth string of ints (``rgs[0] == 0``,
        each value at most one more than the running maximum)."""
        rgs = tuple(rgs)
        top = -1
        for i, b in enumerate(rgs):
            if type(b) is not int:
                raise PartitionError(f"value {b!r} at position {i} is not an integer")
            if b < 0 or b > top + 1:
                raise PartitionError(
                    f"value {b} at position {i} breaks restricted growth"
                )
            if b > top:
                top = b
        return cls._raw(rgs)

    @classmethod
    def empty(cls) -> "Partition":
        """The partition of the empty ground set."""
        return cls._raw(())

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        """The finest partition: every atom alone."""
        _integer(n, "ground set size", 1)
        return cls.from_rgs(tuple(range(n)))

    @classmethod
    def whole(cls, n: int) -> "Partition":
        """The coarsest partition: one block {1, .., n}."""
        _integer(n, "ground set size", 1)
        return cls.from_rgs((0,) * n)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text format ``"1,3|2,4"``.

        Atoms are comma separated inside a block, blocks are separated by
        ``|``; whitespace around tokens is ignored and the ground set is
        1 .. max atom.  An empty (or all-space) string parses to the empty
        partition.  Reports the offset of the first offending character on
        bad syntax.

        Text that fits ``_GRAMMAR`` is split on ``|`` and ``,``, its atoms
        are read by ``int`` and checked as a partition of as many atoms as
        the text has.  If that fails (text that does not fit, an atom 0 or
        one ``int`` refuses, a repeated or missing atom), ``_scan`` reads
        the longest prefix the grammar accepts and reports the first
        error in or after it; text with no such error is checked as
        blocks on 1 .. max atom, so syntax errors come before partition
        errors.

        >>> Partition.parse("1,3|2,4").blocks
        ((1, 3), (2, 4))
        """
        if not isinstance(text, str):
            raise TypeError(f"partition text must be a str, not {type(text).__name__}")
        if not text.strip():
            return cls.empty()
        if _GRAMMAR.fullmatch(text):
            try:
                blocks = [list(map(int, block.split(","))) for block in text.split("|")]
                return cls(text.count(",") + text.count("|") + 1, blocks)
            except ValueError:  # PartitionError, or an atom int() refuses
                pass
        blocks = _scan(text)
        return cls(max(map(max, blocks)), blocks)

    @classmethod
    def from_json(cls, obj) -> "Partition":
        """Build from the JSON form ``{"n": 4, "blocks": [[1, 3], [2, 4]]}``."""
        try:
            n = obj["n"]
            blocks = obj["blocks"]
        except (TypeError, KeyError) as exc:
            raise PartitionError(f"partition JSON needs 'n' and 'blocks': {obj!r}") from exc
        if not (isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)):
            raise PartitionError(f"partition JSON 'blocks' must be a list of lists: {blocks!r}")
        return cls(n, blocks)

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    def text(self) -> str:
        """Canonical text form; inverse of :meth:`parse`."""
        return "|".join(",".join(str(a) for a in block) for block in self.blocks)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        if self.n == 0:
            return "Partition.empty()"
        return f"Partition.parse({self.text()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.rgs == other.rgs  # equal strings have equal lengths

    def __hash__(self) -> int:
        return hash(self.rgs)

    def __lt__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.n, self.rgs) < (other.n, other.rgs)

    def __le__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.n, self.rgs) <= (other.n, other.rgs)

    # -- predicates ---------------------------------------------------

    def same_block(self, i: int, j: int) -> bool:
        rgs, n = self.rgs, self.n
        return rgs[_integer(i, "atom", 1, n) - 1] == rgs[_integer(j, "atom", 1, n) - 1]

    def splits(self, atoms) -> bool:
        """True iff ``atoms`` is a union of blocks (equivalently: every block
        meeting ``atoms`` lies inside it).  The empty set and the whole
        ground set always split.

        >>> Partition.parse("1,3|2,5|4,6").splits({4, 6})
        True
        """
        s = {_integer(a, "atom", 1, self.n) for a in atoms}
        hit = {self.rgs[a - 1] for a in s}
        return sum(v in hit for v in self.rgs) == len(s)

    def is_noncrossing(self) -> bool:
        """True iff no atoms i < j < k < l have i, k in one block and j, l
        in a different block."""
        return _rgs_noncrossing(self.rgs)

    def has_neighbors(self) -> bool:
        """True iff some block contains two adjacent atoms k, k + 1."""
        rgs = self.rgs
        return any(map(eq, rgs, rgs[1:]))

    def is_connected(self) -> bool:
        """True iff no proper subinterval {p+1, .., p+q} (q < n) splits the
        partition.  Vacuously true for n <= 1."""
        return _rgs_connected(self.rgs)

    def is_pc_plus(self) -> bool:
        """Connected with no block containing adjacent atoms.  The one-atom
        partition qualifies; the empty partition does not."""
        if self.n < 1:
            return False
        return not self.has_neighbors() and self.is_connected()

    def is_purely_crossing(self) -> bool:
        """In the no-neighbor connected family, with atoms 1 and n in
        different blocks.  False for n <= 1: the one-atom partition keeps
        1 and n together by convention."""
        if self.n == 0:
            return False
        return self.rgs[-1] != 0 and self.is_pc_plus()

    # -- operations ---------------------------------------------------

    def noncrossing_cover(self) -> "Partition":
        """The least noncrossing partition lying above this one, obtained by
        merging crossing block pairs until none remain.

        >>> str(Partition.parse("1,3|2,4|5").noncrossing_cover())
        '1,2,3,4|5'
        """
        # Blocks with one root share a cover block.
        root = _rgs_roots(self.rgs)
        return Partition._raw(_relabel([root[b] for b in self.rgs]))

    def rotate(self, r: int) -> "Partition":
        """Relabel every atom i to ((i - 1 + r) mod n) + 1 and recanonicalize."""
        _integer(r, "shift")
        if self.n == 0:
            return self
        r %= self.n
        if r == 0:
            return self
        return Partition._raw(_relabel(self.rgs[-r:] + self.rgs[:-r]))

    def is_refinement_of(self, other: "Partition") -> bool:
        """True iff every block of ``other`` is a union of blocks of self."""
        if not isinstance(other, Partition):
            raise TypeError("expected a Partition")
        if self.n != other.n:
            raise PartitionError("partitions of different ground sets")
        # Each block of self lies in one block of other exactly when no
        # block of self pairs with two blocks of other.
        return len(set(zip(self.rgs, other.rgs))) == len(set(self.rgs))


_set_rgs = Partition.rgs.__set__


# -- rgs-level predicate kernels -----------------------------------
# They read the rgs a Partition stores, never its blocks, and serve
# Partition; _rgs_roots also serves the key lookup in bijections and, on
# collapsed forms, the connected families of enumeration and the brute
# rows of pipeline.  Through Partition, _rgs_noncrossing and
# _rgs_connected are the independent references that verify and the
# tests check the enumeration walkers and the cover against, so each is
# one linear pass of its own: neither calls _rgs_roots, groups blocks
# into crossing components or keeps the walkers' stack of blocks.
# _rgs_noncrossing nests the arcs of the arc diagram, and _rgs_connected
# looks for the definition's closed interval itself; verify's check
# that a partition is connected iff its cover is one block then
# compares two computations, not one with itself.


def _rgs_noncrossing(rgs) -> bool:
    """Stack check on the arc diagram joining consecutive atoms of a
    block: each atom pushes the next atom of its block, and an arc is
    popped at its end only if no arc opened inside it is still open.
    The arcs nest, so no two blocks cross, exactly when every arc is
    popped."""
    n = len(rgs)
    nxt = [-1] * n
    later = [-1] * n  # per block: the atom met last, right to left
    for i in range(n - 1, -1, -1):
        b = rgs[i]
        nxt[i] = later[b]
        later[b] = i
    stack: list[int] = []
    for i in range(n):
        if stack and stack[-1] == i:
            stack.pop()
        if nxt[i] >= 0:
            stack.append(nxt[i])
    return not stack


def _rgs_connected(rgs) -> bool:
    """Look for a proper subinterval that is a union of blocks, right to
    left.  The atoms right of atom a are tiled by intervals, the leftmost
    on top of the stack, each kept as (end, low): it is the least
    interval from its start that holds the last atom of every block it
    meets, and low is the least first atom of those blocks.  Atom a
    starts [a, last atom of its block] and merges every interval that
    starts inside it; the result is the least such interval from a, and
    it is a union of blocks exactly when low is a.  Each atom is pushed
    once and popped at most once."""
    n = len(rgs)
    first = [-1] * n  # per block: a string of n atoms has at most n blocks
    last = [0] * n
    for i, b in enumerate(rgs):
        if first[b] < 0:
            first[b] = i
        last[b] = i
    stack: list[tuple[int, int]] = []
    for a in range(n - 1, -1, -1):
        b = rgs[a]
        end, low = last[b], first[b]
        reach = a  # the intervals merged so far tile a + 1 .. reach
        while end > reach:
            reach, f = stack.pop()
            if reach > end:
                end = reach
            if f < low:
                low = f
        if low == a and end - a < n - 1:
            return False
        stack.append((end, low))
    return True


def _rgs_roots(rgs) -> list[int]:
    """The root of each block, from one left-to-right pass over the rgs:
    the first block of the noncrossing cover block that holds it.

    Open components sit on a stack in order of their first atom, and a
    union-find maps each block to its component.  When an atom's block
    reappears, every component stacked above its own has an atom before
    this one and another after it, so each crosses it and is merged in.
    A component is popped once its last atom is passed.  A block only
    ever points to an earlier block, so one pass in block order leaves
    every block pointing straight at its root.
    """
    n = len(rgs)
    last = [0] * n
    for i, b in enumerate(rgs):
        last[b] = i
    parent = []  # union-find over block indices; a root is its component's first block
    end = []  # last atom of the component, valid at roots
    stack: list[int] = []
    for i, b in enumerate(rgs):
        r = b
        if b == len(parent):
            parent.append(b)
            end.append(last[b])
            stack.append(b)
        else:
            while parent[r] != r:
                parent[r] = parent[parent[r]]
                r = parent[r]
            while stack[-1] != r:
                c = stack.pop()
                parent[c] = r
                if end[c] > end[r]:
                    end[r] = end[c]
        if end[r] == i:  # atom i's component is on top; only it can end here
            stack.pop()
    for b, p in enumerate(parent):
        parent[b] = parent[p]
    return parent
