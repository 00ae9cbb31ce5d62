"""k-filling replay reads the boxes of a step off its residue move; these
tests pin that against the box difference of consecutive cores, pin the
two properties of a step's boxes that the move makes true, and pin the two
properties of the residue action that the engine no longer checks."""

from bnkit import tableaux
from bnkit.tableaux import core_apply_residue, core_length, hook_lengths, k_filling_witnesses

from oracles import replay_by_box_diff, small_k_cores


def _moves():
    """Every (core, residue, k) with k = 2..6 and the core up to 20 boxes."""
    for k in (2, 3, 4, 5, 6):
        for p in small_k_cores(k, 20):
            for res in range(k):
                yield p, res, k


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
        # pairwise lattice distance a multiple of k
        moves = 0
        for p, res, k in _moves():
            add, _ = tableaux._residue_moves(p, res, k)
            for i1, j1 in add:
                assert (j1 - i1) % k == res, (p, res, k)
                for i2, j2 in add:
                    assert (abs(i1 - i2) + abs(j1 - j2)) % k == 0, (p, res, k)
            moves += bool(add)
        assert moves > 500

    def test_a_move_is_one_kind_and_lands_on_a_k_core(self):
        # the residue action permutes k-cores (Lapointe-Morse 2005): no
        # residue is both addable and removable, and the result is a
        # partition and a k-core by its hook lengths, not by the abacus
        moves = 0
        for p, res, k in _moves():
            add, rem = tableaux._residue_moves(p, res, k)
            assert not (add and rem), (p, res, k)
            q = core_apply_residue(p, res, k)
            assert all(a >= b >= 1 for a, b in zip(q, q[1:] + (1,))), (p, res, k)
            assert all(h % k for h in hook_lengths(q)), (p, res, k)
            moves += 1
        assert moves > 1000
