"""k-filling replay reads the boxes of a step off its residue move; these
tests pin that against the box difference of consecutive cores, pin the
two properties of a step's boxes that the move makes true, and pin the two
properties of the residue action that the engine no longer checks."""

from bnkit import tableaux
from bnkit.tableaux import core_apply_residue, core_length, hook_lengths, k_filling_witnesses

from oracles import replay_by_box_diff, small_k_cores


def _cores():
    """Every (core, k) with k = 2..6 and the core up to 20 boxes."""
    for k in (2, 3, 4, 5, 6):
        for p in small_k_cores(k, 20):
            yield p, k


class TestReplayBoxes:
    def test_replay_equals_the_box_difference(self):
        for k in (2, 3, 4, 5):
            witnesses = 0
            for p in small_k_cores(k, 16):
                for w in k_filling_witnesses(p, k, core_length(p, k)):
                    assert w.replay() == replay_by_box_diff(w.residues, k), (w, k)
                    witnesses += 1
            assert witnesses >= {2: 5, 3: 30, 4: 300, 5: 4000}[k]

    def test_addable_corners_share_a_residue_and_sit_k_apart(self):
        # the filling model's rule for the boxes of one symbol: one residue,
        # pairwise lattice distance a multiple of k; the groups hold every
        # addable corner once
        moves = 0
        for p, k in _cores():
            groups = tableaux._addable_corners(p, k)
            corners = sorted(box for add in groups.values() for box in add)
            assert corners == [(i + 1, row + 1) for i, row in enumerate(p + (0,))
                               if i == 0 or p[i - 1] > row], (p, k)
            for res, add in groups.items():
                assert add == sorted(add), (p, res, k)
                for i1, j1 in add:
                    assert (j1 - i1) % k == res, (p, res, k)
                    for i2, j2 in add:
                        assert (abs(i1 - i2) + abs(j1 - j2)) % k == 0, (p, res, k)
            moves += len(groups)
        assert moves > 500

    def test_a_move_is_one_kind_and_lands_on_a_k_core(self):
        # the residue action permutes k-cores (Lapointe-Morse 2005): no
        # residue is both addable and removable, and the result is a
        # partition and a k-core by its hook lengths, not by the abacus
        moves = 0
        for p, k in _cores():
            addable = tableaux._addable_corners(p, k)
            for res in range(k):
                # the removable corners of residue res, by their definition
                rem = [i for i, (row, below) in enumerate(zip(p, p[1:] + (0,)))
                       if row > below and (row - 1 - i) % k == res]
                assert not (res in addable and rem), (p, res, k)
                q = core_apply_residue(p, res, k)
                assert all(a >= b >= 1 for a, b in zip(q, q[1:] + (1,))), (p, res, k)
                assert all(h % k for h in hook_lengths(q)), (p, res, k)
                moves += 1
        assert moves > 1000
