"""The base diagram's readings that only tests make: the boundary height
over a functional and the shear of one region under a transferred cut.
The library keeps the diagram as its decomposition and its applied cuts;
these read the paper's quantities off that state.
"""

from minksmooth.exactlin import as_vec, identity, support
from minksmooth.fibration import affine_monodromy


def boundary_height(b, c) -> int:
    """The sum of the applied summands' support terms at c."""
    c = as_vec(c)
    return sum(support(b.decomposition.summands[p - 1].vertices, c) for p in b.applied)


def region_map(b, p, j):
    """Shear applied to region j when transferring the cut of summand p;
    region zero is left alone."""
    if p not in b.applied:
        raise ValueError(f"cut {p} has not been transferred")
    if j == 0:
        return identity(b.decomposition.n + 1)
    return affine_monodromy(b.decomposition, p, j)
