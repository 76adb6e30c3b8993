"""Exact combinatorial toolkit for cone smoothings from Minkowski decompositions."""

from . import cone, polytope

# sigma_tilde reads a decomposition, so it lives in polytope beside phi and
# the spanning gate; cone, its former home, still answers to the name
cone.sigma_tilde = polytope.sigma_tilde
