"""Structure-preserving decompositions between the partition families.

Three reversible constructions connect the families, and each carries a
rational weight along with it:

* ``inflate`` / ``contract``: a connected partition is exactly a
  no-neighbor connected base whose atoms have been widened into runs of
  consecutive atoms.  ``contract`` reads the runs of equal block index
  off the rgs; their lengths form the composition.

* ``cover_decompose`` / ``cover_assemble``: an arbitrary partition is
  exactly a noncrossing cover together with one connected piece per
  cover block, embedded order-preservingly.

* ``gap_decompose`` / ``gap_assemble``: splitting off the cover block
  that contains atom 1 leaves a connected core and one arbitrary
  partition per gap between consecutive core atoms (the last gap runs to
  atom n; gaps may be empty).

All of them read and write restricted-growth strings, never blocks.
The decomposers find each block's cover block with ``_rgs_roots`` and
cut the string into pieces, core and gaps, which ``_relabel`` numbers
afresh; the assemblers give each atom a label that names its part and
its block there, and relabel the labels by first appearance.  Each
result is built by ``Partition._raw``, each record through its checked
constructor, which refuses a part that is not a ``Partition``.

Weights start from an assignment on the purely crossing family (weight 1
where unassigned) and are transported outward: a no-neighbor connected
partition either is purely crossing already or arises from one by
adjoining atom n to the block of atom 1; a connected partition reads the
weight of its contracted base; an arbitrary partition multiplies the
weights of its cover pieces, the empty partition weighing 1.  All three
rules come down to one list of purely crossing keys per partition, read
off its collapsed form by one kernel, ``_keys_from_roots``, which also
classifies the forms of ``pipeline.weighted_brute_coeffs``; an
assignment scales its weights to integers by ``series._integral``, the
series' own rational scaling.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from .partition import Partition, _integer, _Record, _relabel, _rgs_roots
from .series import _integral, _to_fraction

_ONE = Fraction(1)

# Entries kept by the weight-key cache, the most recently used: room for
# all 26,442 partitions with n <= 9, bounded for any sweep.
_KEYS_KEPT = 1 << 16


class Composition(_Record):
    """An ordered tuple of positive interval lengths."""

    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a composition needs at least one part")
        for k in parts:
            _integer(k, "composition part", 1)
        self._fill(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)


class PcPlusCase(_Record):
    """Outcome of :func:`pc_plus_decompose`.

    ``adjoined`` is False when the input is purely crossing itself (then
    ``base`` is the input); True when the input arises from the purely
    crossing ``base`` by adjoining the last atom to the block of atom 1.
    """

    __slots__ = __match_args__ = ("adjoined", "base")

    def __init__(self, adjoined: bool, base: Partition):
        if type(adjoined) is not bool:
            raise ValueError(f"adjoined {adjoined!r} is not a bool")
        if not isinstance(base, Partition) or not base.is_purely_crossing():
            raise ValueError(f"base {base} is not a purely crossing partition")
        self._fill(adjoined, base)


def _check_partitions(**parts) -> None:
    """Raise ``ValueError`` at the first value that is not a
    :class:`Partition`, named by the keyword of its sequence."""
    for name, values in parts.items():
        for value in values:
            if not isinstance(value, Partition):
                raise ValueError(f"{name} {value!r} is not a Partition")


class CoverDecomposition(_Record):
    """A noncrossing cover plus one connected piece per cover block, the
    piece sizes matching the block sizes."""

    __slots__ = __match_args__ = ("cover", "pieces")

    def __init__(self, cover: Partition, pieces):
        pieces = tuple(pieces)
        _check_partitions(cover=[cover], piece=pieces)
        if not cover.is_noncrossing():
            raise ValueError(f"cover {cover} is crossing")
        sizes = [0] * len(set(cover.rgs))  # atoms per cover block
        for c in cover.rgs:
            sizes[c] += 1
        if len(pieces) != len(sizes):
            raise ValueError(f"{len(pieces)} pieces for {len(sizes)} cover blocks")
        for size, piece in zip(sizes, pieces):
            if piece.n != size:
                raise ValueError(f"piece of size {piece.n} against cover block of size {size}")
            if not piece.is_connected():
                raise ValueError(f"piece {piece} is not connected")
        self._fill(cover, pieces)

    @property
    def n(self) -> int:
        return self.cover.n


class GapDecomposition(_Record):
    """A connected core plus one (possibly empty) partition per core atom,
    filling the gap to the next core atom (the last gap runs to atom n)."""

    __slots__ = __match_args__ = ("core", "gaps")

    def __init__(self, core: Partition, gaps):
        gaps = tuple(gaps)
        _check_partitions(core=[core], gap=gaps)
        if core.n < 1:
            raise ValueError("core must have at least one atom")
        if not core.is_connected():
            raise ValueError(f"core {core} is not connected")
        if len(gaps) != core.n:
            raise ValueError(f"{len(gaps)} gaps for a core of {core.n} atoms")
        self._fill(core, gaps)

    @property
    def n(self) -> int:
        return self.core.n + sum(g.n for g in self.gaps)


# -- the no-neighbor connected family ---------------------------------


def adjoin_last_atom(sigma: Partition) -> Partition:
    """Append atom n + 1 and put it in the block of atom 1."""
    if sigma.n < 1:
        raise ValueError("need at least one atom to adjoin to")
    return Partition._raw(sigma.rgs + (0,))


def pc_plus_decompose(pi: Partition) -> PcPlusCase:
    """Split a no-neighbor connected partition on whether atoms 1 and n
    share a block.  If they do not, the partition is purely crossing; if
    they do, dropping atom n leaves a purely crossing partition one size
    down.  Undefined on a single atom."""
    if pi.n < 2:
        raise ValueError("decomposition needs at least two atoms")
    if not pi.is_pc_plus():
        raise ValueError(f"{pi} is not connected or has a block with adjacent atoms")
    if pi.rgs[-1] != 0:
        return PcPlusCase(adjoined=False, base=pi)
    return PcPlusCase(adjoined=True, base=Partition._raw(pi.rgs[:-1]))


# -- connected <-> (no-neighbor connected base, composition) ----------


def inflate(base: Partition, comp: Composition) -> Partition:
    """Widen the j-th atom of the base into ``comp.parts[j]`` consecutive
    atoms; blocks become unions of the corresponding runs.  The result is
    connected, and every connected partition arises exactly once."""
    if not base.is_pc_plus():
        raise ValueError(f"base {base} is not in the no-neighbor connected family")
    if len(comp.parts) != base.n:
        raise ValueError(
            f"composition has {len(comp.parts)} parts for {base.n} base atoms"
        )
    return Partition._raw(tuple(v for v, k in zip(base.rgs, comp.parts) for _ in range(k)))


def contract(pi: Partition) -> tuple[Partition, Composition]:
    """Inverse of :func:`inflate`: collapse the maximal runs of atoms that
    lie inside one block.  Requires a connected input."""
    if not pi.is_connected() or pi.n < 1:
        raise ValueError(f"{pi} is not connected")
    values, lengths = zip(*[(v, len(list(run))) for v, run in groupby(pi.rgs)])
    return Partition._raw(values), Composition(lengths)


# -- arbitrary <-> (noncrossing cover, connected pieces) --------------


def cover_decompose(pi: Partition) -> CoverDecomposition:
    """Split a partition into its noncrossing cover and the connected
    piece on each cover block: the rgs values at that block's positions,
    relabeled."""
    root = _rgs_roots(pi.rgs)
    pieces = {}  # root -> the rgs values of its cover block, in cover order
    for v in pi.rgs:
        pieces.setdefault(root[v], []).append(v)
    cover = Partition._raw(_relabel([root[v] for v in pi.rgs]))
    return CoverDecomposition(cover, [Partition._raw(_relabel(p)) for p in pieces.values()])


def cover_assemble(dec: CoverDecomposition) -> Partition:
    """Embed each piece into its cover block order-preservingly: an atom's
    block is the pair (its cover block, its next label in that piece)."""
    pieces = [iter(piece.rgs) for piece in dec.pieces]
    return Partition._raw(_relabel([(c, next(pieces[c])) for c in dec.cover.rgs]))


# -- arbitrary <-> (connected core, gap partitions) -------------------


def gap_decompose(pi: Partition) -> GapDecomposition:
    """Split off the cover block containing atom 1 as the connected core;
    the remaining atoms fall into the gaps between consecutive core atoms
    and keep their blocks, relabeled to start at 1."""
    if pi.n < 1:
        raise ValueError("ground set must be nonempty")
    rgs = pi.rgs
    root = _rgs_roots(rgs)
    anchor = [i for i, v in enumerate(rgs) if root[v] == 0]
    ends = anchor[1:] + [pi.n]
    gaps = [Partition._raw(_relabel(rgs[s + 1:e])) for s, e in zip(anchor, ends)]
    return GapDecomposition(Partition._raw(_relabel([rgs[i] for i in anchor])), gaps)


def gap_assemble(dec: GapDecomposition) -> Partition:
    """Inverse of :func:`gap_decompose`: lay out each core atom's block
    followed by its gap's blocks, told apart as (gap index, label), and
    relabel left to right."""
    labels = []
    for j, (v, gap) in enumerate(zip(dec.core.rgs, dec.gaps)):
        labels.append(v)
        labels.extend((j, g) for g in gap.rgs)
    return Partition._raw(_relabel(labels))


# -- weights ----------------------------------------------------------


class WeightAssignment:
    """Rational weights on purely crossing partitions; unassigned members
    weigh 1.  ``w[pi]`` is the defaulted lookup of a :class:`Partition`.

    The JSON form is a list of ``{"partition": "1,3|2,4", "weight":
    "7/2"}`` entries, weights as integers or ``p/q`` strings.  A weight
    string in exponent notation, or with a zero denominator, raises
    ``ValueError``, and so does a second entry for one partition, whatever
    text names it.

    The assignment is immutable, so its integer form is computed once,
    when it is built, by :func:`series._integral`: ``_scale`` is L, the
    lcm of the weight denominators (1 when nothing is assigned), and
    ``_scaled`` maps each assigned key to the integer L w[key]; a weight
    is read back as ``Fraction(_scaled.get(key, L), L)``.
    """

    # Keyed by the rgs tuple, which alone fixes the partition (n is its
    # length) and hashes and compares in C, as the weight keys do.
    __slots__ = ("_scale", "_scaled")

    def __init__(self, weights=None):
        table = {}
        if weights:
            entries = weights.items() if hasattr(weights, "items") else weights
            for pi, value in entries:
                if not isinstance(pi, Partition) or not pi.is_purely_crossing():
                    raise ValueError(f"{pi} is not a purely crossing partition")
                if pi.rgs in table:
                    raise ValueError(f"{pi} is assigned more than one weight")
                table[pi.rgs] = _to_fraction(value, "weight")
        scaled, self._scale = _integral(table.values())
        self._scaled = dict(zip(table, scaled))

    def __getitem__(self, pi: Partition) -> Fraction:
        if not isinstance(pi, Partition):
            raise TypeError(f"weights are looked up by Partition, not {type(pi).__name__}")
        scale = self._scale
        return Fraction(self._scaled.get(pi.rgs, scale), scale)

    def __len__(self) -> int:
        return len(self._scaled)

    def __contains__(self, pi) -> bool:
        return isinstance(pi, Partition) and pi.rgs in self._scaled

    def items(self):
        """Assigned entries, ordered by partition for deterministic output."""
        scale = self._scale
        return sorted(
            (Partition._raw(rgs), Fraction(value, scale)) for rgs, value in self._scaled.items()
        )

    def to_json(self) -> list[dict]:
        return [
            {"partition": str(pi), "weight": str(value)} for pi, value in self.items()
        ]

    @classmethod
    def from_json(cls, data) -> "WeightAssignment":
        if not isinstance(data, list):
            raise ValueError(f"weights must be a list of entries, not {type(data).__name__}")
        entries = []
        for item in data:
            try:
                text, value = item["partition"], item["weight"]
            except (TypeError, KeyError) as exc:
                raise ValueError(
                    f"weight entry needs 'partition' and 'weight': {item!r}"
                ) from exc
            if not isinstance(text, str):
                raise ValueError(f"partition {text!r} is not a string")
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError(
                    f"weight {value!r} is a {type(value).__name__}; write it as a fraction string"
                )
            entries.append((Partition.parse(text), value))
        return cls(entries)


# Keyed by the rgs tuple, which hashes and compares in C; so are the keys
# it returns and the weight table they are looked up in.
@lru_cache(maxsize=_KEYS_KEPT)
def _weight_keys(rgs) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """The purely crossing keys whose weights multiply to the weight of
    the partition with restricted-growth string ``rgs``, sorted, each as
    an rgs tuple; and whether its noncrossing cover is one block.  A run
    of one block changes neither, so they are read off the collapsed
    form, the string with each run cut to one entry."""
    flat = tuple([v for v, _ in groupby(rgs)])
    return _keys_from_roots(flat, _rgs_roots(flat))


def _keys_from_roots(flat, root) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """:func:`_weight_keys` of the collapsed form ``flat``, an rgs tuple
    with no run of one block, given the root of each block: the first
    block of the cover block that holds it.  It is the one key kernel,
    for single partitions and for the forms of the brute rows alike.

    Per cover block this is :func:`cover_decompose`, :func:`contract` and
    :func:`pc_plus_decompose` read off the rgs: take the values at the
    block's positions, collapse runs of one block, relabel, and drop a
    last atom that shares atom 1's block; a piece that contracts to the
    single atom has no key.  A form with one root is its own piece, so
    its key is the form less a final 0, and the single atom and the
    empty form have none.  Otherwise atoms are grouped by the root of
    their block, and a block's label in its piece is the number of
    earlier blocks with the same root, since blocks are numbered in
    order of first appearance.
    """
    if not any(root):  # the form is its own piece
        key = flat[:-1] if flat[-1:] == (0,) else flat  # the single atom and () leave ()
        return ((key,) if key else ()), True
    seen = [0] * len(root)  # blocks met so far per root
    rank = []
    for r in root:
        rank.append(seen[r])
        seen[r] += 1
    pieces = [[] for _ in root]
    for v in flat:
        piece = pieces[root[v]]
        k = rank[v]
        if not piece or piece[-1] != k:
            piece.append(k)
    keys = []
    for piece in pieces:
        if len(piece) > 1:
            if piece[-1] == 0:
                piece.pop()
            keys.append(tuple(piece))
    keys.sort()
    return tuple(keys), False


def _check_weights(w) -> None:
    """Raise TypeError unless ``w`` is a :class:`WeightAssignment`."""
    if not isinstance(w, WeightAssignment):
        raise TypeError(f"weights come as a WeightAssignment, not {type(w).__name__}")


def _product(keys, w):
    _check_weights(w)
    if not keys:
        return _ONE
    scale = w._scale
    weight = w._scaled.get
    product = 1
    for key in keys:
        product *= weight(key, scale)
    return Fraction(product, scale ** len(keys))


def pc_plus_weight(pi: Partition, w: WeightAssignment) -> Fraction:
    """Weight of a no-neighbor connected partition: 1 for the single atom,
    otherwise the assigned weight of its purely crossing base."""
    keys, whole = _weight_keys(pi.rgs)
    if pi.n < 1 or not whole or pi.has_neighbors():
        raise ValueError(f"{pi} is not in the no-neighbor connected family")
    return _product(keys, w)


def connected_weight(pi: Partition, w: WeightAssignment) -> Fraction:
    """Weight of a connected partition: the weight of its contracted base."""
    keys, whole = _weight_keys(pi.rgs)
    if pi.n < 1 or not whole:
        raise ValueError(f"{pi} is not connected")
    return _product(keys, w)


def partition_weight(pi: Partition, w: WeightAssignment) -> Fraction:
    """Weight of an arbitrary partition: the product over its cover pieces;
    the empty partition weighs 1."""
    return _product(_weight_keys(pi.rgs)[0], w)
