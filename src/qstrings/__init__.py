"""Quantum string matching and comparison, simulated with exact oracles.

Subpackages: strings_core (classical ground truth), fingerprint
(rolling-hash machinery), sim (dense and structured state backends),
grover (search primitives), qmatch (substring search), qcompare
(lexicographic comparators), resources (ledger and sweeps), cli.
"""

from .fingerprint import HashParams, choose_prime, rolling_hash
from .strings_core import BitString, MatchInstance, compare_classical, lcp_classical

__all__ = [
    "BitString",
    "MatchInstance",
    "HashParams",
    "choose_prime",
    "rolling_hash",
    "compare_classical",
    "lcp_classical",
]

__version__ = "0.1.0"
