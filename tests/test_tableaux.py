import random
import tracemalloc
from math import factorial

import pytest

from bnkit import invariants, tableaux
from bnkit.errors import InternalCheckError, PreconditionError
from bnkit.invariants import _factorial_quotient, count_grd
from bnkit.tableaux import (
    FillingWitness,
    core_apply_residue,
    core_length,
    count_k_fillings,
    hook_lengths,
    is_core,
    k_filling_witnesses,
    parse_partition,
    syt_count,
    syt_count_rect,
)

from oracles import (
    brute_k_fillings,
    brute_syt_count,
    column_hook_lengths,
    divmod_count_grd,
    divmod_syt_count,
    hook_core_length,
    hook_is_core,
    peel_length,
    residue_graph,
    small_k_cores,
)


def partitions_of(n: int, cap: int | None = None):
    cap = cap or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


class TestSytCounts:
    def test_small_rectangles_against_enumeration(self):
        assert syt_count_rect(2, 2) == brute_syt_count((2, 2)) == 2
        assert syt_count_rect(2, 3) == brute_syt_count((3, 3)) == 5

    def test_single_row(self):
        for n in range(1, 9):
            assert syt_count_rect(1, n) == 1

    def test_all_shapes_up_to_eight_boxes(self):
        for n in range(0, 9):
            for shape in partitions_of(n):
                assert syt_count(shape) == brute_syt_count(shape)

    def test_shapes_with_an_odd_number_of_boxes(self):
        for n in (9, 11):
            for shape in partitions_of(n):
                assert syt_count(shape) == brute_syt_count(shape), shape

    @pytest.mark.parametrize("rows,cols", [(7, 9), (45, 45), (80, 80), (5, 400)])
    def test_large_rectangles_against_count_grd(self, rows, cols):
        # the rows x cols rectangle is the rho = 0 triple g = rows * cols,
        # r = rows - 1, d = g - cols + r
        g = rows * cols
        assert syt_count_rect(rows, cols) == count_grd(g, rows - 1, g - cols + rows - 1)


# the tableaux benchmark's rho = 0 rectangles (rows, cols), 100 to 6,400 boxes
RECTANGLES = [
    (2, 50), (3, 40), (5, 30), (8, 25), (10, 10), (12, 20), (15, 15), (20, 20),
    (20, 40), (25, 30), (30, 30), (30, 40), (35, 35), (40, 40), (40, 50), (45, 45),
    (50, 50), (50, 60), (55, 55), (60, 60), (10, 200), (5, 400), (70, 70), (80, 80),
]


def rectangle_triple(rows: int, cols: int) -> tuple[int, int, int]:
    """The rho = 0 triple whose g^r_d's the rows x cols rectangle counts."""
    g = rows * cols
    return g, rows - 1, g - cols + rows - 1


class TestAgainstTheDivisionOracles:
    """syt_count and count_grd multiply prime powers (_factorial_quotient);
    the oracles divide n! by the whole product once, with the hook
    lengths counted column by column.  The tableaux benchmark compares
    syt_count_rect with count_grd, which now share that prime product, so
    these are the reference independent of it."""

    def test_hook_lengths_against_the_column_scan(self):
        for n in range(13):
            for p in partitions_of(n):
                assert hook_lengths(p) == column_hook_lengths(p), p

    def test_benchmark_rectangles(self):
        for rows, cols in RECTANGLES:
            count = divmod_syt_count((cols,) * rows)
            assert syt_count_rect(rows, cols) == count, (rows, cols)
            assert count_grd(*rectangle_triple(rows, cols)) == count, (rows, cols)

    def test_every_rho_zero_triple_up_to_genus_400(self):
        # With s = g-d+r, the oracle's products hold r + 1 factorials: 21 s
        # over these triples with Python 3.11 on a 2-core Xeon, most of it
        # at r >= s.  There it is read at the transposed triple
        # (g, s-1, 2g-2-d), the s x (r+1) rectangle, except up to genus 60.
        triples = 0
        for g in range(1, 401):
            for r in range(g):
                if g % (r + 1):
                    continue
                s = g // (r + 1)
                d = g - s + r
                if r < s or g <= 60:
                    expected = divmod_count_grd(g, r, d)
                else:
                    expected = divmod_count_grd(g, s - 1, 2 * g - 2 - d)
                assert count_grd(g, r, d) == expected, (g, r, d)
                triples += 1
        assert triples == 2468

    def test_random_shapes(self):
        rng = random.Random(20260433)
        for _ in range(300):
            # n boxes cut at up to 79 random points into at most 80 rows
            n = rng.randint(1, 2000)
            cuts = sorted(rng.choices(range(n + 1), k=rng.randint(0, 79)))
            rows = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            shape = tuple(sorted(filter(None, rows), reverse=True))
            assert syt_count(shape) == divmod_syt_count(shape), shape

    def test_edges(self):
        for n in (0, 1, 2, 1500):
            for shape in (() if n == 0 else (n,), (1,) * n):
                assert syt_count(shape) == divmod_syt_count(shape) == 1, n
            assert syt_count_rect(n, 0) == syt_count_rect(0, n) == 1
            assert syt_count_rect(1, n) == syt_count_rect(n, 1) == 1
        assert syt_count((2, 1) + (1,) * 1000) == divmod_syt_count((2, 1) + (1,) * 1000) == 1002
        assert count_grd(0, 0, 0) == divmod_count_grd(0, 0, 0) == 1
        assert count_grd(1, 0, 0) == divmod_count_grd(1, 0, 0) == 1
        assert count_grd(0, 5, 5) == divmod_count_grd(0, 5, 5) == 1

    @pytest.mark.parametrize("n", [10, 2000])
    def test_a_denominator_that_does_not_divide_is_reported(self, n):
        # D = 2^e, given as e factors equal to 2: it divides n! iff e <= v_2(n!)
        v2 = n - bin(n).count("1")
        assert _factorial_quotient(n, 2, lambda q: v2) == factorial(n) >> v2
        assert _factorial_quotient(n, 2, lambda q: v2 + 1) is None
        # a prime above n
        assert _factorial_quotient(n, 2003, lambda q: q == 2003) is None

    def test_integrality_checks_stay(self, monkeypatch):
        monkeypatch.setattr(tableaux, "_factorial_quotient", lambda *args: None)
        monkeypatch.setattr(invariants, "_factorial_quotient", lambda *args: None)
        with pytest.raises(InternalCheckError, match="non-integral"):
            syt_count((3, 2))
        with pytest.raises(InternalCheckError, match="not integral"):
            count_grd(4, 1, 3)


class TestCoreBasics:
    def test_core_detection(self):
        assert is_core((4, 2, 1, 1), 3)
        assert not is_core((2,), 2)  # hook length 2
        assert is_core((), 5)

    def test_abacus_test_matches_hook_lengths(self):
        for n in range(16):
            for p in partitions_of(n):
                for k in range(2, 7):
                    assert is_core(p, k) == hook_is_core(p, k), (p, k)

    def test_residue_action_examples(self):
        assert core_apply_residue((), 0, 3) == (1,)
        # the unique addable boxes of residue 0 on (3,1,1) sit at contents
        # 3, 0, -3; adding all three gives the 8-box 3-core
        assert core_apply_residue((3, 1, 1), 0, 3) == (4, 2, 1, 1)
        assert core_apply_residue((1,), 1, 3) == (2,)

    def test_involution_and_closure(self):
        for k in (2, 3, 4):
            for p in small_k_cores(k, 10):
                for res in range(k):
                    q = core_apply_residue(p, res, k)
                    assert is_core(q, k)
                    assert core_apply_residue(q, res, k) == p

    def test_not_a_core_raises(self):
        with pytest.raises(PreconditionError, match=r"\(2,\) is not a 2-core"):
            core_apply_residue((2,), 0, 2)


class TestCoreLength:
    def test_against_peeling(self):
        for k in (2, 3, 4):
            for p in small_k_cores(k, 12):
                assert core_length(p, k) == peel_length(p, k)

    def test_worked_example(self):
        assert core_length((4, 2, 1, 1), 3) == 5

    def test_against_listed_hooks(self):
        for k in range(2, 8):
            for p in small_k_cores(k, 30):
                assert core_length(p, k) == hook_core_length(p, k), (p, k)

    def test_long_cores_without_listing_hooks(self):
        # 10**8 boxes in one row: every hook is below k, so all of them count
        assert core_length((10**8,), 2 * 10**8) == 10**8
        # the staircase (n, n-1, .., 1) is a 2-core whose hooks are all odd;
        # only the n boxes of hook 1 are below k = 2
        n = 2000
        assert core_length(tuple(range(n, 0, -1)), 2) == n
        assert core_length(tuple(range(n, 0, -1)), 2 * n + 1) == n * (n + 1) // 2

    def test_filling_graph_checks_the_target_once(self, monkeypatch):
        calls = []
        real = tableaux._is_core
        monkeypatch.setattr(tableaux, "_is_core", lambda p, k: calls.append(p) or real(p, k))
        assert count_k_fillings((4, 2, 1, 1), 3, 5) == 2
        assert calls == [(4, 2, 1, 1)]

    def test_every_strict_add_raises_length_by_one(self):
        # the k-filling graph is graded by core_length and keys its counts
        # by the core alone; this is the grading it relies on
        for k in (2, 3, 4, 5):
            moves = 0
            for n in range(13):
                for p in partitions_of(n):
                    if not hook_is_core(p, k):
                        continue
                    for res in range(k):
                        q = core_apply_residue(p, res, k)
                        if sum(q) > sum(p):
                            assert core_length(q, k) == core_length(p, k) + 1, (p, res, k)
                            moves += 1
            assert moves > 0


class TestFillings:
    def test_worked_three_core(self):
        assert count_k_fillings((4, 2, 1, 1), 3, 5) == 2
        words = [w.residues for w in k_filling_witnesses((4, 2, 1, 1), 3, 5)]
        assert words == [(0, 1, 2, 1, 0), (0, 2, 1, 2, 0)]

    def test_empty_core(self):
        assert count_k_fillings((), 4, 0) == 1
        assert k_filling_witnesses((), 4, 0) == [
            w for w in k_filling_witnesses((), 4, 0)
        ]

    def test_huge_k_degenerates_to_syt(self):
        # k above every lattice distance: each step adds one box and
        # fillings are standard tableaux
        assert count_k_fillings((2, 1), 100, 3) == syt_count((2, 1)) == 2
        for shape in [(3, 1), (2, 2), (3, 2, 1)]:
            assert count_k_fillings(shape, 100, sum(shape)) == syt_count(shape)

    def test_symbol_count_mismatch(self):
        with pytest.raises(PreconditionError, match=r"\(4, 2, 1, 1\) use exactly 5 symbols, got g=8"):
            count_k_fillings((4, 2, 1, 1), 3, 8)

    def test_not_a_core(self):
        with pytest.raises(PreconditionError, match=r"\(3, 1\) is not a 2-core"):
            count_k_fillings((3, 1), 2, 3)

    def test_witness_counts_agree_on_small_cores(self):
        for k in (2, 3):
            for p in small_k_cores(k, 9):
                g = core_length(p, k)
                ws = k_filling_witnesses(p, k, g)
                assert len(ws) == count_k_fillings(p, k, g)
                for w in ws:
                    w.validate(p)  # replay + repetition rule

    def test_witnesses_match_brute_force_in_order(self):
        for k in (2, 3, 4):
            for p in small_k_cores(k, 9):
                g = core_length(p, k)
                words = [w.residues for w in k_filling_witnesses(p, k, g)]
                assert words == brute_k_fillings(p, k, g), (p, k)
                assert count_k_fillings(p, k, g) == len(words)


class TestWitnessTampering:
    """Every listed witness validates, and every altered or truncated copy
    of a witness, wherever it sits in the list, fails validate."""

    CASES = [((6, 4, 2, 2, 1, 1), 3), ((4, 3, 2, 1), 4)]

    @pytest.mark.parametrize("target,k", CASES)
    def test_untouched_list_passes(self, target, k):
        words = [w.residues for w in k_filling_witnesses(target, k, core_length(target, k))]
        assert len(words) >= 6
        for word in words:
            FillingWitness(word, k).validate(target)

    @pytest.mark.parametrize("target,k", CASES)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_altered_or_truncated_witness_raises(self, target, k, where):
        words = [w.residues for w in k_filling_witnesses(target, k, core_length(target, k))]
        idx = {"first": 0, "middle": len(words) // 2, "last": len(words) - 1}[where]
        word = words[idx]
        tampered = [word[:-1], word[: len(word) // 2]]
        for pos in range(len(word)):
            for res in (*range(k), word[pos] + k, -1):
                bad = word[:pos] + (res,) + word[pos + 1:]
                if bad not in words:
                    tampered.append(bad)
        for bad in tampered:
            with pytest.raises(InternalCheckError):
                FillingWitness(bad, k).validate(target)


class TestReplayDiagnostics:
    def test_failed_step_names_the_word(self):
        # replay applies the private action, so a step that removes boxes is
        # an internal check failure, not a precondition error
        with pytest.raises(InternalCheckError, match=r"witness \(0, 0\): .* does not strictly add"):
            FillingWitness((0, 0), 3).replay()
        word = (0, 0, 2, 1, 0)
        with pytest.raises(InternalCheckError, match=r"witness \(0, 0, 2, 1, 0\): .* strictly add"):
            FillingWitness(word, 3).validate((4, 2, 1, 1))
        with pytest.raises(InternalCheckError, match=r"witness \(0, 3\): residue 3 is not in 0..2"):
            FillingWitness((0, 3), 3).validate((2,))

    def test_bad_move_after_a_shared_prefix_names_its_word(self):
        target, k = (6, 4, 2, 2, 1, 1), 3
        words = [w.residues for w in k_filling_witnesses(target, k, core_length(target, k))]
        assert words[1][:5] == words[2][:5] == (0, 1, 2, 1, 0)
        # the prefix replays as in listed witnesses; residue 0 twice in a row
        # adds nothing
        bad = (0, 1, 2, 1, 0, 0, 2, 1)
        with pytest.raises(InternalCheckError,
                           match=r"witness \(0, 1, 2, 1, 0, 0, 2, 1\): .* strictly add"):
            FillingWitness(bad, k).validate(target)
        with pytest.raises(InternalCheckError, match=r"witness \(0, 1, 2, 1, 0\) replays to"):
            FillingWitness(words[1][:5], k).validate(target)


class TestReplayOncePerMove:
    @pytest.mark.parametrize("target,k", TestWitnessTampering.CASES)
    def test_each_distinct_move_is_checked_exactly_once(self, target, k, monkeypatch):
        # a listed word is a path of the strict-add graph: the graph scans the
        # removable corners of each core once, and those scans, read as strict
        # adds, make every move of the listed words; listing neither replays a
        # word nor looks for the addable corners of a residue
        words = [w.residues for w in k_filling_witnesses(target, k, core_length(target, k))]
        moves = {}  # (core, residue) -> (new core, boxes added), for every step of every word
        for word in words:
            p = ()
            for res in word:
                moves[p, res] = tableaux._replay_step(p, res, k, word)
                p = moves[p, res][0]
        assert len(moves) < sum(map(len, words))  # the witnesses share moves
        scans = {}
        removable_corners = tableaux._removable_corners

        def counting(p, k):
            assert p not in scans, f"{p} scanned twice"
            scans[p] = removable_corners(p, k)
            return scans[p]

        def no_call(*args):
            raise AssertionError("k_filling_witnesses replayed a word or scanned addable corners")

        monkeypatch.setattr(tableaux, "_removable_corners", counting)
        monkeypatch.setattr(tableaux, "_replay_step", no_call)
        monkeypatch.setattr(tableaux, "_addable_corners", no_call)
        listed = k_filling_witnesses(target, k, core_length(target, k))
        assert [w.residues for w in listed] == words and len(words) >= 6
        for (p, res), (q, boxes) in moves.items():
            assert scans[q][res] == boxes


class TestFillingGraph:
    def test_same_graph_as_every_residue_of_the_public_action(self):
        # sweeping down from the target by strict removes counts and lists
        # what trying all k residues with core_apply_residue gives from ():
        # the number of paths to the target, and the paths themselves by
        # increasing residue.  The paths pass through exactly the cores with
        # a path to the target and the moves between them, so equal lists pin
        # the same graph.  The whole grid lists 51,998 words, so no core is
        # left out.
        def paths(q, succ, count, target):
            if q == target:
                yield ()
                return
            for res, r in succ[q]:
                if count[r]:
                    yield from ((res,) + rest for rest in paths(r, succ, count, target))

        for k in range(2, 7):
            for p in small_k_cores(k, 16):
                g = core_length(p, k)
                succ, count = residue_graph(p, k, g)
                assert count_k_fillings(p, k, g) == count[()], (p, k)
                words = [w.residues for w in k_filling_witnesses(p, k, g)]
                assert words == list(paths((), succ, count, p)), (p, k)

    def test_counting_keeps_no_graph(self):
        # a count holds two levels of path counts, not the edges of the graph
        # (3,432 cores at k = 1000): the whole sweep peaks well below 1 MiB
        tracemalloc.start()
        try:
            assert count_k_fillings((7,) * 7, 1000, 49) == syt_count((7,) * 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize("shape", [(3, 2, 1), (4, 4, 2), (5, 3, 3, 1), (6, 6, 6, 6), (7,) * 7])
    def test_k_above_every_hook_counts_standard_tableaux(self, shape):
        # every partition inside the shape is then a k-core, and every step
        # adds one box
        assert count_k_fillings(shape, 1000, sum(shape)) == syt_count(shape)


class TestNodeGuard:
    def test_refused_as_the_levels_pass_the_guard(self, monkeypatch):
        # (5,5,5,5) at k = 20: the 126 partitions inside the 4 x 5 box, by
        # levels 1, 1, 2, 3, 5, 6, 8, 9, 11, 11, 12, .. from either end, as
        # the box is its own complement
        monkeypatch.setattr(tableaux, "_MAX_NODES", 126)
        assert count_k_fillings((5, 5, 5, 5), 20, 20) == 1_662_804
        monkeypatch.setattr(tableaux, "_MAX_NODES", 125)
        with pytest.raises(PreconditionError,
                           match=r"^k-filling graph refused: 126 cores after 20 of 20 steps "
                                 r"\(guard 125\)$"):
            count_k_fillings((5, 5, 5, 5), 20, 20)
        monkeypatch.setattr(tableaux, "_MAX_NODES", 20)
        with pytest.raises(PreconditionError,
                           match=r"^k-filling graph refused: 26 cores after 6 of 20 steps "
                                 r"\(guard 20\)$"):
            k_filling_witnesses((5, 5, 5, 5), 20, 20)

    def test_levels_are_counted_down_from_the_target(self, monkeypatch):
        # (6, 3, 2) at k = 100: the 46 partitions inside it, by levels
        # 1, 3, 5, 7, 7, .. down from the target but 1, 1, 2, 3, 4, .. up
        # from (), where a guard of 10 would refuse after 4 steps
        monkeypatch.setattr(tableaux, "_MAX_NODES", 46)
        assert count_k_fillings((6, 3, 2), 100, 11) == syt_count((6, 3, 2)) == 990
        monkeypatch.setattr(tableaux, "_MAX_NODES", 10)
        with pytest.raises(PreconditionError,
                           match=r"^k-filling graph refused: 16 cores after 3 of 11 steps "
                                 r"\(guard 10\)$"):
            k_filling_witnesses((6, 3, 2), 100, 11)


class TestHitGuard:
    def test_refuses_before_any_witness(self, monkeypatch):
        def no_witness(*args):
            raise AssertionError("a refused listing built a FillingWitness")

        monkeypatch.setattr(tableaux, "FillingWitness", no_witness)
        assert count_k_fillings((5, 5, 5, 5), 20, 20) == 1_662_804
        with pytest.raises(PreconditionError,
                           match=r"listing refused: 1662804 fillings \(guard 100000\)"):
            k_filling_witnesses((5, 5, 5, 5), 20, 20)

    @pytest.mark.parametrize("target,k,total", [((4, 4, 4), 100, 462), ((6, 4, 2, 2, 1, 1), 3, 6)])
    def test_the_guard_is_exact(self, target, k, total, monkeypatch):
        # a listing of exactly the guard's number of fillings is admitted, one
        # more is refused with the count of all of them, before any witness
        g = core_length(target, k)
        words = [w.residues for w in k_filling_witnesses(target, k, g)]
        assert len(words) == total
        monkeypatch.setattr(tableaux, "_MAX_HITS", total)
        assert [w.residues for w in k_filling_witnesses(target, k, g)] == words

        def no_witness(*args):
            raise AssertionError("a refused listing built a FillingWitness")

        monkeypatch.setattr(tableaux, "_MAX_HITS", total - 1)
        monkeypatch.setattr(tableaux, "FillingWitness", no_witness)
        with pytest.raises(PreconditionError,
                           match=rf"^listing refused: {total} fillings \(guard {total - 1}\)$"):
            k_filling_witnesses(target, k, g)


class TestSerialization:
    def test_roundtrip(self):
        assert parse_partition("4,2,1,1") == (4, 2, 1, 1)
        assert parse_partition("") == ()
