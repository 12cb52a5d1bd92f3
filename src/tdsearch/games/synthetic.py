"""Synthetic search trees for exercising the engine on known fixtures.

Trees are written as nested parenthesized lists of leaf values, e.g.
``((1 2) (3 4))`` is a depth-2 binary tree.  Leaf values are given from the
root player's (White's) perspective; the bundled evaluator converts to the
side to move.  Nodes are labeled A, B, C, ... in breadth-first order, so in
a complete 3-ply binary tree the root is A and the leaves are H through O.

Leaf nodes are deliberately *not* game-theoretic terminals: they carry
evaluator scores, not win/loss outcomes, so a search that bottoms out on
them scores them with the evaluator rather than the terminal rule.
"""

from __future__ import annotations

from typing import NamedTuple

from tdsearch.games.base import BLACK, WHITE, Game, IllegalMoveError, Side

# Two bundled reference trees, both with root value 4 at depth 3.  The first
# has a unique principal variation ending at leaf L; in the second both
# subtrees of the root tie at 4, so the PV leaf is H or L depending on
# tie-breaking.
UNIQUE_PV_TREE = "(((3 -9) (-5 -6)) ((4 2) (-9 5)))"
TIED_PV_TREE = "(((4 -9) (10 8)) ((4 2) (-9 5)))"


def parse_tree(text: str):
    """Parse the parenthesized fixture format into nested lists / floats."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            children = []
            while pos < len(tokens) and tokens[pos] != ")":
                children.append(parse())
            if pos >= len(tokens):
                raise ValueError("unbalanced '('")
            pos += 1  # consume ')'
            if not children:
                raise ValueError("empty node")
            return children
        if tok == ")":
            raise ValueError("unbalanced ')'")
        return float(tok)

    tree = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens after tree")
    return tree


def _letters(i: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA, ..."""
    out = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


class SyntheticState(NamedTuple):
    path: tuple  # child indices from the root

    @property
    def ply(self) -> int:
        return len(self.path)

    @property
    def side_to_move(self) -> Side:
        return WHITE if len(self.path) % 2 == 0 else BLACK


class SyntheticTreeGame(Game):
    def __init__(self, tree):
        self.tree = parse_tree(tree) if isinstance(tree, str) else tree
        self._labels = {}
        queue = [((), self.tree)]
        i = 0
        while queue:
            path, node = queue.pop(0)
            self._labels[path] = _letters(i)
            i += 1
            if isinstance(node, list):
                queue.extend(((*path, j), c) for j, c in enumerate(node))

    def _node(self, state: SyntheticState):
        node = self.tree
        for i in state.path:
            node = node[i]
        return node

    def label(self, state: SyntheticState) -> str:
        return self._labels[state.path]

    def leaf_value(self, state: SyntheticState) -> float:
        """Root-perspective score stored at a leaf."""
        node = self._node(state)
        if isinstance(node, list):
            raise ValueError(f"node {self.label(state)} is internal")
        return node

    def evaluator(self, state: SyntheticState) -> float:
        """Side-to-move view of the stored leaf value."""
        return self.leaf_value(state) * state.side_to_move.sign

    def max_depth(self) -> int:
        def depth(node):
            if isinstance(node, list):
                return 1 + max(depth(c) for c in node)
            return 0

        return depth(self.tree)

    # -- Game interface ---------------------------------------------------

    def initial_state(self) -> SyntheticState:
        return SyntheticState(())

    def legal_actions(self, state: SyntheticState):
        node = self._node(state)
        return list(range(len(node))) if isinstance(node, list) else []

    def apply(self, state: SyntheticState, action: int) -> SyntheticState:
        node = self._node(state)
        if not isinstance(node, list) or not (
            isinstance(action, int) and 0 <= action < len(node)
        ):
            raise IllegalMoveError(f"bad child index {action!r}")
        return SyntheticState((*state.path, action))

    def outcome(self, state: SyntheticState) -> None:
        return None  # leaves are evaluator stops, not game results

    def to_text(self, state: SyntheticState) -> str:
        return "/".join(str(i) for i in state.path) if state.path else "root"

    def from_text(self, text: str) -> SyntheticState:
        if text == "root":
            return SyntheticState(())
        try:
            return self.replay(map(self.action_from_str, text.split("/")))
        except IllegalMoveError as e:
            raise ValueError(f"path {text!r} leaves the tree: {e}") from None
