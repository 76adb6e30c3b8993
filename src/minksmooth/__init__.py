"""Exact combinatorial toolkit for cone smoothings from Minkowski decompositions."""

__version__ = "0.1.0"
