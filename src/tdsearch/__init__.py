"""Temporal-difference learning for evaluation functions inside minimax search.

The package bundles small two-player perfect-information games, a negamax
search engine with principal-variation extraction, linear evaluation with
tanh squashing, TD(lambda) / TDLeaf(lambda) weight updates, and an arena for
rated training runs against graded opponent pools.
"""

__version__ = "0.1.0"
