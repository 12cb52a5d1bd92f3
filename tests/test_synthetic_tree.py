import pytest

from oracles import state_for_label
from tdsearch.games.base import Side
from tdsearch.games.synthetic import (
    SyntheticTreeGame,
    TIED_PV_TREE,
    UNIQUE_PV_TREE,
    parse_tree,
)


def test_parse_round_trip():
    assert parse_tree(UNIQUE_PV_TREE) == [[[3, -9], [-5, -6]], [[4, 2], [-9, 5]]]
    assert parse_tree(TIED_PV_TREE) == [[[4, -9], [10, 8]], [[4, 2], [-9, 5]]]
    assert parse_tree("(1 (2 3) ((4) 5))") == [1, [2, 3], [[4], 5]]
    assert parse_tree("(1 2)") == [1, 2]
    assert parse_tree("((1 2) 3)") == [[1, 2], 3]


def test_parse_rejects_malformed():
    for bad in ("", "()", "(1", "1 2)", "(1 2) x", "(1 ())"):
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_reference_trees_shape():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    assert g.max_depth() == 3
    root = g.initial_state()
    assert g.label(root) == "A"
    assert root.side_to_move is Side.WHITE
    assert not g.is_terminal(root)
    # BFS labels: two children B, C; leaves H..O
    b = g.apply(root, 0)
    c = g.apply(root, 1)
    assert g.label(b) == "B" and g.label(c) == "C"
    leaf = state_for_label(g, "L")
    assert g.legal_actions(leaf) == []
    assert g.leaf_value(leaf) == 4.0


def test_leaf_values_match_text():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    values = {lbl: g.leaf_value(state_for_label(g, lbl))
              for lbl in "HIJKLMNO"}
    assert values == {"H": 3.0, "I": -9.0, "J": -5.0, "K": -6.0,
                      "L": 4.0, "M": 2.0, "N": -9.0, "O": 5.0}


def test_evaluator_is_side_to_move_relative():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    leaf = state_for_label(g, "L")  # depth 3, Black to move
    assert leaf.side_to_move is Side.BLACK
    assert g.evaluator(leaf) == -4.0
    g2 = SyntheticTreeGame("(7 (1 2))")
    shallow = g2.initial_state()
    shallow = g2.apply(shallow, 0)  # depth-1 leaf, Black to move
    assert g2.evaluator(shallow) == -7.0


def test_mid_nodes_have_no_leaf_value():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    with pytest.raises(ValueError):
        g.leaf_value(g.initial_state())


def test_tied_tree_has_two_best_leaves():
    g = SyntheticTreeGame(TIED_PV_TREE)
    h = state_for_label(g, "H")
    l = state_for_label(g, "L")
    assert g.leaf_value(h) == 4.0 and g.leaf_value(l) == 4.0


def test_ragged_tree_leaves():
    g = SyntheticTreeGame("(1 (2 3))")
    root = g.initial_state()
    shallow = g.apply(root, 0)
    assert g.legal_actions(shallow) == []
    assert not g.is_terminal(shallow)
    assert g.leaf_value(shallow) == 1.0
    assert g.max_depth() == 2


@pytest.mark.parametrize("text", ["7/7/7/7", "2", "0/2", "0/0/0/0", "1/1/1/0/0"])
def test_from_text_rejects_a_path_that_leaves_the_tree(text):
    # A child index past a node's children, or any step below a leaf, names the text.
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    with pytest.raises(ValueError, match=f"path '{text}' leaves the tree"):
        g.from_text(text)

