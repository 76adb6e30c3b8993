"""Floating-point points of the critical-point analysis: the witnesses of
an exact report's families, rooted on their fibres' integer lists with each
coefficient rounded once, and the damped Newton search on W behind the
verdict "heuristic", whose starts come from a fixed PCG64 stream computed
here (:func:`_pcg64_doubles`), so numpy's random module is never loaded.
The package's only numpy code, importing none of the package:
``ratpoly.witnesses`` and ``pipeline`` import it on demand.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.linalg import _umath_linalg

# the n != 2 search: starts, Newton steps per start, the gradient size below
# which a start has converged, and the seed of the starts' PCG64 stream
_SEARCH_STARTS = 40
_SEARCH_ITERS = 80
_SEARCH_TOL = 1e-10
_SEARCH_SEED = 7


def _pcg64_doubles(seed, count):
    """The first ``count`` doubles that numpy's ``Generator(PCG64(seed))``
    draws with ``random()``, for a seed below 2**32, bit for bit and without
    numpy's random module.

    ``SeedSequence(seed).generate_state(4, np.uint64)`` mixes the seed into a
    pool of four 32-bit words and hashes the pool out to eight, two to a
    64-bit word.  PCG64 (O'Neill 2014: XSL-RR output of a 128-bit LCG) takes
    the first two words as its state and the last two as its increment, as
    numpy's ``pcg64_set_seed`` does, and a double is ``(x >> 11) * 2**-53``.
    """
    m32, m64, m128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & m32
        value = value * hash_a & m32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & m32
        return r ^ r >> 16

    # the seed is one 32-bit word of entropy; the hash runs on over zeros
    # to fill the pool, and every word is then mixed into every other
    pool = [hashmix(seed), hashmix(0), hashmix(0), hashmix(0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_b, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & m32
        value = value * hash_b & m32
        words.append(value ^ value >> 16)
    s_hi, s_lo, i_hi, i_lo = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    # pcg64_set_seed: an odd increment; from state 0, one step, the seed
    # state added, one more step
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & m128
    state = ((inc + (s_hi << 64 | s_lo)) * mult + inc) & m128
    out = []
    for _ in range(count):
        state = (state * mult + inc) & m128
        x, rot = (state >> 64 ^ state) & m64, state >> 122
        out.append((((x >> rot | x << (64 - rot)) & m64) >> 11) * 2.0**-53)
    return out


def _numeric_points(f, h, den):
    """Numeric witnesses of a fibre (f, h, den) in integer lists: the roots
    of f paired with the roots of h / den above each.  Each coefficient is
    rounded once, as ``float(c)`` or ``complex(c / den)``, which rounds
    correctly, as ``float`` of the ``Fraction`` would."""
    pts = []
    z1_roots = np.roots([float(c) for c in f])
    hcoeffs = [[complex(c / den) for c in u] for u in h]
    for alpha in z1_roots:  # h's coefficients at alpha by Horner's rule
        arr = [reduce(lambda val, c: val * alpha + c, u, 0j) for u in hcoeffs]
        pts += [(complex(alpha), complex(beta)) for beta in np.roots(arr)]
    return pts


class _TermTable:
    """Laurent polynomials compiled for evaluation at many points at once,
    bit for bit ``LaurentPoly.evaluate`` on every finite value.

    The table is term-major and ragged.  Polynomials with the same terms in
    the same dictionary order, such as the two mixed partials of W or the
    zero polynomial, are tabulated once and share one column of sums.  The
    distinct ones are ranked by decreasing term count, ties in first
    appearance, so the terms at place ``t`` of their dictionary order are
    those of the first ``counts[t]`` ranked polynomials; the table holds
    place 0 of every polynomial, then place 1, and so on, with no padding.
    Variables past the first ``nfree`` are pinned to ``1 + 0j`` and skipped,
    which is exact.  A term is its coefficient times the powers of its free
    variables in variable order.  Each variable's distinct nonzero exponents
    are powered once by ``np.power``, which matches scalar ``**``, into
    slots 1, 2, ...; slot 0 holds ``1 + 0j``, which a term without the
    variable gathers.  Where ``evaluate`` skips a variable or multiplies the
    coefficient's zero imaginary part, the table's products differ at most
    in the sign of a zero, and a zero's sign never reaches a nonzero value
    or a sum started from ``+0.0``.  Complex products are split into real
    ones so no fused multiply-add can enter.  Each polynomial's terms are
    added to its running sum one place at a time, in order, never by numpy's
    pairwise reduction.  An overflow may read ``nan`` where ``evaluate``
    reads ``inf``: both are non-finite.
    """

    __slots__ = ("columns", "counts", "coeffs", "factors")

    def __init__(self, polys, nfree):
        distinct = {}
        index = [distinct.setdefault(tuple(p.terms.items()), len(distinct)) for p in polys]
        seqs = list(distinct)
        ranked = sorted(range(len(seqs)), key=lambda a: -len(seqs[a]))
        terms = [seqs[a] for a in ranked]
        # the sum of polynomial a is row columns[a] of the ranked sums
        self.columns = np.argsort(ranked)[index]
        self.counts = [sum(len(ts) > t for ts in terms) for t in range(len(terms[0]) if terms else 0)]
        table = [ts[t] for t, count in enumerate(self.counts) for ts in terms[:count]]
        self.coeffs = np.array([c for _, c in table], dtype=float).reshape(-1, 1)
        # per free variable that any term carries: its distinct nonzero
        # exponents, and each term's slot
        self.factors = []
        for var in range(nfree):
            column = [exp[var] for exp, _ in table]
            powers = sorted(set(column) - {0})
            if powers:
                slot = np.array([powers.index(e) + 1 if e else 0 for e in column])
                self.factors.append((var, np.array(powers, dtype=np.int64)[:, None], slot))

    def evaluate(self, z):
        """Values at the rows of ``z`` (shape ``(points, nfree)``), one column
        per polynomial."""
        re, im = self.coeffs, np.zeros(self.coeffs.shape)
        for k, (var, powers, slot) in enumerate(self.factors):
            pw = np.ones((len(powers) + 1, len(z)), dtype=complex)
            pw[1:] = np.power(z[:, var], powers)
            pr, pi = pw.real[slot], pw.imag[slot]
            if k:  # re + i im times pr + i pi, formed in the gathered powers
                t = im * pi
                im *= pr
                pi *= re
                im += pi
                pr *= re
                pr -= t
            else:  # the real coefficient times the first power
                pr *= re
                pi *= re
                im = pi
            re = pr
        sums = np.zeros((2, len(self.columns), len(z)))
        start = 0
        for count in self.counts:
            sums[0, :count] += re[start : start + count]
            sums[1, :count] += im[start : start + count]
            start += count
        out = np.empty((len(z), len(self.columns)), dtype=complex)
        out.real, out.imag = sums[:, self.columns].transpose(0, 2, 1)
        return out


def _lstsq_raise(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(a, b):
    """Least-squares solutions of the complex systems ``a[i] @ x = b[i]``,
    bit for bit ``np.linalg.lstsq(a[i], b[i], rcond=None)[0]``: one call of the
    LAPACK ``gelsd`` gufunc that ``lstsq`` wraps, over the whole stack, with
    its cutoff ``eps * max(m, n)``.  A singular value decomposition that does
    not converge raises ``LinAlgError``, as in ``lstsq``.  The gufunc is a
    private numpy name, hence the numpy 2.1 floor of the package.
    """
    m, n = a.shape[-2:]
    with np.errstate(call=_lstsq_raise, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(a, b[..., None], np.finfo(float).eps * max(m, n), signature="DDd->Ddid")[0]
    return x[..., 0]


def _norm_below(vals, tol):
    """Which rows of ``vals`` have ``np.linalg.norm(row) < tol``, decided as
    ``norm`` decides it.  A row's sum of squares settles it unless it lies
    within a relative 1e-12 of ``tol**2``, far beyond the few ulps by which
    sums in another order can differ; only those rows go through ``norm``.
    """
    sq = (vals.real**2 + vals.imag**2).sum(axis=1)
    below = sq < tol * tol * (1 - 1e-12)
    for row in np.flatnonzero(~below & (sq <= tol * tol * (1 + 1e-12))):
        below[row] = np.linalg.norm(vals[row]) < tol
    return below


def _abs_sign(vals, bound):
    """The sign of ``abs(v) - bound`` for each entry ``v`` of ``vals``, as
    the scalar ``abs`` decides it.  The squared modulus settles it unless it
    lies within a relative 1e-12 of ``bound**2``; only those entries go
    through ``abs``."""
    gap = vals.real**2 + vals.imag**2 - bound * bound
    sign = np.sign(gap)
    for idx in zip(*np.nonzero(np.abs(gap) <= 1e-12 * bound * bound)):
        a = abs(vals[idx])
        sign[idx] = (a > bound) - (a < bound)
    return sign


def heuristic_points(w) -> list[tuple[complex, ...]]:
    """Torus critical points of the potential ``w``, a
    ``potential.LaurentPoly``, found by damped Newton on the full gradient
    with the last variable pinned to 1, sorted by the first coordinate.
    Non-authoritative by construction: witnesses of the verdict "heuristic".

    Start ``s`` is ``np.exp(2j * np.pi * row)`` for the ``s``-th run of
    ``n1 - 1`` doubles of the PCG64 stream with seed 7
    (:func:`_pcg64_doubles`), the doubles numpy's PCG64 generator with
    seed 7 draws, so the points depend neither on numpy's random module nor
    on its ``Generator`` methods keeping their stream.

    All starts step in lockstep, each step a handful of array operations over
    the live starts: the gradient and the Hessian are one term-major
    :class:`_TermTable`, the least-squares steps one stacked ``gelsd`` call
    (:func:`_lstsq_stack`), and the finiteness tests, the norm test
    (:func:`_norm_below`), the damped update and the drop of starts that
    reach a coordinate hyperplane act on all rows at once.  So do the final
    residual, torus and duplicate tests: every modulus is compared with its
    bound as the scalar ``abs`` compares it (:func:`_abs_sign`), and a start
    is kept when some coordinate is more than 1e-6 from that of every start
    kept before it.  Each of these rounds exactly as its one-start form
    does, so the points are bit for bit those of the one-start-at-a-time
    search with ``LaurentPoly.evaluate`` and ``np.linalg.lstsq``; the report
    prints them to 12 digits.  A start whose final point or gradient is not
    finite is no witness.
    """
    n1 = w.nvars
    grads = [w.derivative(i) for i in range(n1)]
    table = _TermTable(grads + [g.derivative(b) for g in grads for b in range(n1 - 1)], n1 - 1)
    rows = np.array(_pcg64_doubles(_SEARCH_SEED, _SEARCH_STARTS * (n1 - 1))).reshape(_SEARCH_STARTS, n1 - 1)
    zs = np.array([np.exp(2j * np.pi * row) for row in rows])
    live = np.arange(_SEARCH_STARTS)
    # a diverging start overflows to inf/nan; it is abandoned, not reported
    with np.errstate(all="ignore"):
        for _ in range(_SEARCH_ITERS):
            if not live.size:
                break
            values = table.evaluate(zs[live])
            keep = np.isfinite(values).all(axis=1)
            keep[keep] = ~_norm_below(values[keep, :n1], _SEARCH_TOL)
            live, values = live[keep], values[keep]
            step = _lstsq_stack(values[:, n1:].reshape(-1, n1, n1 - 1), -values[:, :n1])
            keep = np.isfinite(step).all(axis=1)
            live = live[keep]
            zs[live] = zs[live] + 0.5 * step[keep]
            live = live[~(np.abs(zs[live]) < 1e-13).any(axis=1)]
        values = table.evaluate(zs)[:, :n1]
        # converged (every |gradient| < tol) and off the coordinate
        # hyperplanes (every |z| > 1e-9); a non-finite point or gradient is
        # no witness
        ok = np.isfinite(values).all(axis=1) & np.isfinite(zs).all(axis=1)
        ok[ok] = (_abs_sign(values[ok], _SEARCH_TOL) < 0).all(axis=1) & (_abs_sign(zs[ok], 1e-9) > 0).all(axis=1)
        points = zs[ok]
        # a point is new when some coordinate is more than 1e-6 from that
        # of every point kept before it
        far = (_abs_sign(points[:, None] - points[None], 1e-6) > 0).any(axis=2).tolist()
    kept = []
    for i, row in enumerate(far):
        if all(row[j] for j in kept):
            kept.append(i)
    found = [tuple(p) for p in points[kept].tolist()]
    return sorted(found, key=lambda t: (t[0].real, t[0].imag))
