"""Resilience analysis of random geometric graphs.

Point processes and geometric graphs, degree-dependent failure models,
threshold cascades, closed-form percolation conditions, and a reproducible
Monte Carlo experiment harness.
"""

__version__ = "0.1.0"
