"""Sparse non-negative matrix language model estimation toolkit.

Builds relative-frequency count matrices over n-gram and skip-n-gram
features, trains a hashed linear adjustment model on held-out data with
mini-batch AdaGrad under multinomial loss, and evaluates perplexity.
Heterogeneous training sources can be mixed through corpus-tagged
features.
"""

__version__ = "0.1.0"
