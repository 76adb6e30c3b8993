"""Scalar damped-Newton oracle, independent of the library's batched search.

:func:`heuristic_points` is the multi-start search of
``numeric.heuristic_points`` written one start at a time: every gradient
and Hessian entry is a ``LaurentPoly.evaluate`` call, every step one
``np.linalg.lstsq`` call, and the norm, finiteness and hyperplane tests are
made on that start alone.  The library steps all starts at once instead: one
compiled term table evaluation, one stacked ``gelsd`` call and array tests
over the live starts per iteration.  It promises the same bits, so tests
compare the two with ``==``.
"""

import numpy as np

from minksmooth.potential import build_potential


def heuristic_points(d, starts=40, iters=80, tol=1e-10, seed=7):
    """Distinct torus critical points found from ``starts`` random starts on
    the unit torus, the last variable pinned to 1, sorted by the first
    coordinate."""
    pot = build_potential(d)
    n1 = pot.nvars
    grads = [pot.derivative(i) for i in range(n1)]
    hessian = [[g.derivative(b) for b in range(n1 - 1)] for g in grads]
    rng = np.random.default_rng(seed)
    found = []
    with np.errstate(all="ignore"):
        for _ in range(starts):
            z = np.exp(2j * np.pi * rng.random(n1 - 1))
            for _ in range(iters):
                point = list(z) + [1.0 + 0j]
                vals = np.array([g.evaluate(point) for g in grads])
                if not np.all(np.isfinite(vals)):
                    break
                if np.linalg.norm(vals) < tol:
                    break
                jac = np.zeros((n1, n1 - 1), dtype=complex)
                for a in range(n1):
                    for b in range(n1 - 1):
                        jac[a, b] = hessian[a][b].evaluate(point)
                if not np.all(np.isfinite(jac)):
                    break
                step, *_ = np.linalg.lstsq(jac, -vals, rcond=None)
                if not np.all(np.isfinite(step)):
                    break
                z = z + 0.5 * step
                if np.any(np.abs(z) < 1e-13):
                    break
            point = list(z) + [1.0 + 0j]
            residual = max(abs(g.evaluate(point)) for g in grads)
            if residual < tol and all(abs(w) > 1e-9 for w in z):
                if all(max(abs(z[i] - q[i]) for i in range(n1 - 1)) > 1e-6 for q in found):
                    found.append(tuple(complex(w) for w in z))
    return sorted(found, key=lambda t: (t[0].real, t[0].imag))
