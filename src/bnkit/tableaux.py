"""Young-diagram combinatorics: standard tableaux on rectangles and
k-core fillings via the residue action of the affine symmetric group.

Partitions are tuples of weakly decreasing positive row lengths; the
empty partition is ().  The content of the box in row i, column j
(1-indexed) is j - i, and its residue is the content mod k.  A k-core is
a partition none of whose hook lengths is divisible by k.

The filling model: a k-filling of a k-core with symbols {1, .., g} is a
length-g residue sequence whose strict-add action (each step adds every
addable box of one residue class, at least one) takes the empty partition
to the core.  The boxes added at one step all carry that step's symbol;
they share a residue and sit at pairwise lattice distance a multiple of
k.  This holds for every strict-add step: two addable corners in rows
i1 < i2 have columns j1 > j2, so their lattice distance is their content
difference, a multiple of k as they share a residue.  As the residue
action is an involution, one sweep down from the core by strict removes
counts the fillings, carrying integers, or lists them, carrying words.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from operator import index

from .errors import _MAX_HITS, _MAX_NODES, InternalCheckError, PreconditionError, require
from .invariants import _factorial_quotient

Partition = tuple[int, ...]


def check_partition(rows) -> Partition:
    """Validate and normalize weakly decreasing positive integer row lengths."""
    p = tuple(map(index, rows))
    for a, b in zip(p, p[1:]):
        if a < b:
            raise PreconditionError(f"row lengths must be weakly decreasing: {p}")
    if p and p[-1] < 1:
        raise PreconditionError(f"row lengths must be positive: {p}")
    return p


# Public functions validate their partitions with check_partition and k
# with require; the underscore helpers below trust both.  Partitions the
# engine builds need no check: _resize_rows keeps rows weakly decreasing,
# and the residue action maps k-cores to k-cores (see core_apply_residue).

def hook_lengths(p: Partition) -> list[int]:
    """All hook lengths of the diagram, row by row: row_i - j + col_j - i - 1
    at row i, column j (0-indexed), where col_j counts the rows longer than
    j.  As rows weakly decrease, col_j = i + 1 for row_{i+1} <= j < row_i,
    so one pass over the rows reads every col_j."""
    p = check_partition(p)
    cols = [0] * (p[0] if p else 0)
    for i, (row, below) in enumerate(zip(p, p[1:] + (0,))):
        cols[below:row] = [i + 1] * (row - below)
    return [row - j + cols[j] - i - 1 for i, row in enumerate(p) for j in range(row)]


def is_core(p: Partition, k: int) -> bool:
    """True iff no hook length of p is divisible by k (no removable
    rim hook of length k)."""
    require(2, k=k)
    return _is_core(check_partition(p), k)


def _beads(p: Partition) -> list[int]:
    """The abacus beads of p, ascending: its first-column hook lengths."""
    return [row + i for i, row in enumerate(reversed(p))]


def _is_core(p: Partition, k: int) -> bool:
    # Abacus test, O(rows): a rim k-hook is removable iff some bead b >= k
    # has no bead at b - k.
    beads = set(_beads(p))
    return all(b - k in beads for b in beads if b >= k)


def _require_core(p: Partition, k: int) -> Partition:
    require(2, k=k)
    p = check_partition(p)
    if not _is_core(p, k):
        raise PreconditionError(f"{p or '()'} is not a {k}-core")
    return p


def _addable_corners(p: Partition, k: int) -> dict[int, list[tuple[int, int]]]:
    """The addable corner boxes (row, col), 1-indexed, of p keyed by their
    residue (col - row) mod k, each list by increasing row: a row has one
    iff it is shorter than the row above, as rows weakly decrease."""
    groups: dict[int, list[tuple[int, int]]] = {}
    above = -1
    for i, row in enumerate(p + (0,)):
        if row != above:
            groups.setdefault((row - i) % k, []).append((i + 1, row + 1))
        above = row
    return groups


def _removable_corners(p: Partition, k: int) -> dict[int, list[tuple[int, int]]]:
    """The removable corner boxes of p, as :func:`_addable_corners` lists
    the addable ones: a row has one iff it is longer than the row below."""
    groups: dict[int, list[tuple[int, int]]] = {}
    above = 0
    for i, row in enumerate(p + (0,)):
        if above > row:
            groups.setdefault((above - i) % k, []).append((i, above))
        above = row
    return groups


def core_apply_residue(p: Partition, residue: int, k: int) -> Partition:
    """Action of the residue-``residue`` generator of the affine symmetric
    group on a k-core: add every addable box of that residue if any exist,
    otherwise remove every removable box of that residue, otherwise leave
    the core unchanged.  Involutive, and maps k-cores to k-cores: on the
    k-abacus the addable and removable boxes of one residue sit on two
    adjacent runners, and every runner of a k-core is flush, so at most one
    kind exists and the move swaps the two runners' bead counts
    (Lapointe-Morse 2005)."""
    require(None, residue=residue)
    p, r = _require_core(p, k), residue % k
    if add := _addable_corners(p, k).get(r):
        return _resize_rows(p, add, 1)
    rem = _removable_corners(p, k).get(r)
    return _resize_rows(p, rem, -1) if rem else p


def _resize_rows(p: Partition, cells, step: int) -> Partition:
    """Lengthen (step 1) or shorten (step -1) the rows of the given corner
    boxes.  An addable corner lengthens only a row shorter than the one
    above and a removable corner shortens only a row longer than the one
    below, so the rows stay weakly decreasing."""
    rows = list(p) + [0]
    for (i, _j) in cells:
        rows[i - 1] += step
    return tuple(filter(None, rows))


def core_length(p: Partition, k: int) -> int:
    """Number of strict-add steps in any residue sequence from () to p:
    the number of boxes of p with hook length < k."""
    return _core_length(_require_core(p, k), k)


def _core_length(p: Partition, k: int) -> int:
    # The row of bead b (the i-th from the bottom) has hooks b - c for each
    # gap c < b, so its boxes with hook < k are the gaps within k - 1 below b:
    # the min(k - 1, b) places there less the beads among them.  O(rows log rows).
    beads = _beads(p)
    return sum(min(k - 1, b) - i + bisect_left(beads, b - k + 1) for i, b in enumerate(beads))


def _filling_sweep(target: Partition, k: int, g: int, start, extend):
    """Validate the arguments and sweep the strict-add graph below the
    k-core ``target`` by levels down from it.  Strict removes
    (:func:`_removable_corners`) are strict adds read backwards, as
    :func:`core_apply_residue` is an involution; every nonempty k-core has one,
    and each lowers core_length by one, so the g levels end at () and hold
    exactly the cores on a path to ``target``.  The target carries ``start``
    and a core below the ``+``-sum of ``extend(res, x)`` over the removes of
    residue ``res`` that reach it from a core carrying ``x``.  Returns what
    () carries, holding two levels at a time; refuses past ``_MAX_NODES`` cores."""
    require(0, g=g)
    target = _require_core(target, k)
    forced = _core_length(target, k)
    if g != forced:
        raise PreconditionError(
            f"{k}-fillings of {target or '()'} use exactly {forced} symbols, got g={g}"
        )
    level, nodes = {target: start}, 1
    for step in range(g):
        below = {}
        for p, x in level.items():
            for res, rem in _removable_corners(p, k).items():
                q = _resize_rows(p, rem, -1)
                if q in below:
                    below[q] += extend(res, x)
                else:
                    below[q] = extend(res, x)
        level = below
        nodes += len(level)
        if nodes > _MAX_NODES:
            raise PreconditionError(f"k-filling graph refused: {nodes} cores after "
                                    f"{step + 1} of {g} steps (guard {_MAX_NODES})")
    return level[()]


def count_k_fillings(target: Partition, k: int, g: int) -> int:
    """Number of k-fillings of the k-core ``target`` with symbols
    {1, .., g}: length-g residue sequences whose strict-add application
    to () reaches ``target``.  The number of steps is forced (every
    strict-add path from () to the core has :func:`core_length` steps); a
    different g raises :class:`PreconditionError` since every sequence of
    that length would contribute zero."""
    return _filling_sweep(target, k, g, 1, lambda res, paths: paths)


_INT = frozenset({int})  # issuperset(map(type, word)) checks a word without building a set


class FillingWitness(namedtuple("FillingWitness", "residues k")):
    """A k-filling witness: the residue sequence in application order."""

    __slots__ = ()

    def __new__(cls, residues, k: int) -> FillingWitness:
        """``residues`` is kept as given when it is a tuple of ints, and
        read through ``operator.index`` otherwise (so a bool becomes an int)."""
        require(2, k=k)
        if type(residues) is not tuple or not _INT.issuperset(map(type, residues)):
            residues = tuple(residues)  # read once: it may be an iterator
            for res in residues:
                require(None, residue=res)
            residues = tuple(map(index, residues))
        return super().__new__(cls, residues, k)

    #: ``_replace`` builds through ``_make``, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def replay(self) -> tuple[Partition, list[list[tuple[int, int]]]]:
        """Apply the strict-add sequence to (); returns the final core and,
        per step, the list of boxes added at that step."""
        p, steps = (), []
        for res in self.residues:
            p, boxes = _replay_step(p, res, self.k, self.residues)
            steps.append(boxes)
        return p, steps

    def validate(self, target: Partition) -> None:
        """Check that the witness replays to ``target`` by strict adds."""
        target = check_partition(target)
        if (p := self.replay()[0]) != target:
            raise InternalCheckError(f"witness {self.residues} replays to {p}, not {target}")

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.residues)


def _replay_step(p: Partition, res: int, k: int, word: tuple[int, ...]):
    """One checked strict-add step of the residue word ``word``: the new
    core and the boxes it added, the addable corners of residue ``res``."""
    if not 0 <= res < k:
        raise InternalCheckError(f"witness {word}: residue {res} is not in 0..{k - 1}")
    if not (boxes := _addable_corners(p, k).get(res)):
        raise InternalCheckError(f"witness {word}: residue {res} mod {k} does not strictly add "
                                 f"boxes to {p or '()'}")
    return _resize_rows(p, boxes, 1), boxes


def k_filling_witnesses(target: Partition, k: int, g: int) -> list[FillingWitness]:
    """All k-fillings of ``target`` as residue-sequence witnesses, in
    lexicographic order.  The sweep carries each core's words to ``target``,
    whose moves are the addable corner groups :meth:`FillingWitness.replay`
    adds, so they are not replayed again.  The words of one length are
    distinct (read backwards, a word fixes its removes) and each ends a
    filling, so the words made at one length never outnumber the fillings:
    refusing as they pass ``_MAX_HITS`` is exact, and comes before any witness."""
    target, made = check_partition(target), {}

    def prepend(res, words):
        n = made[len(words[0])] = made.get(len(words[0]), 0) + len(words)
        if n > _MAX_HITS:
            raise PreconditionError(f"listing refused: {count_k_fillings(target, k, g)} "
                                    f"fillings (guard {_MAX_HITS})")
        return [(res,) + word for word in words]

    return [FillingWitness(word, k) for word in sorted(_filling_sweep(target, k, g, [()], prepend))]


def syt_count(shape: Partition) -> int:
    """Number of standard Young tableaux of the given shape, by the hook
    length formula n! / prod(hooks), read by
    :func:`~bnkit.invariants._factorial_quotient` off the hooks of length
    q, 2q, .. for each prime power q.  The longest hook is the corner's."""
    shape = check_partition(shape)
    top = shape[0] + len(shape) - 1 if shape else 0
    hooks = [0] * (top + 1)  # hooks[h]: how many hooks have length h
    for h in hook_lengths(shape):
        hooks[h] += 1
    count = _factorial_quotient(sum(shape), top, lambda q: sum(hooks[q::q]))
    if count is None:
        raise InternalCheckError(f"hook length formula non-integral on {shape}")
    return count


def syt_count_rect(rows: int, cols: int) -> int:
    """Standard Young tableaux on the rows x cols rectangle."""
    require(0, rows=rows, cols=cols)
    if rows == 0 or cols == 0:
        return 1
    return syt_count((cols,) * rows)


def parse_partition(text: str) -> Partition:
    """Parse "4,2,1,1" (empty string for the empty partition)."""
    text = text.strip()
    if not text:
        return ()
    return check_partition(int(t) for t in text.split(","))

