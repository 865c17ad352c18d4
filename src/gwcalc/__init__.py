"""Exact genus-zero Gromov-Witten computations on small testbed spaces."""

__version__ = "0.1.0"
