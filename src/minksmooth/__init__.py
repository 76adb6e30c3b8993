"""Exact combinatorial toolkit for cone smoothings from Minkowski decompositions."""
