"""Dense polynomials over Z and Z/p: the exact kernel of the planar elimination.

A polynomial is a list of Python ints, leading coefficient first, with no
leading zero; ``[]`` is zero.  A bivariate polynomial is a list, in its main
variable, of such lists in the other.  Long products and exact quotients
are one big-integer operation each (Kronecker substitution): the
coefficients are packed, a fixed number of bytes apiece, into one int, and
read back from its bytes.

* :func:`gcd`: the heuristic gcd GCDHEU of Char, Geddes and Gonnet.  The
  evaluation points are powers of 256, so evaluating and interpolating are
  byte copies.  A candidate is the gcd when it divides both inputs; the
  primitive remainder sequence is the fallback.  :func:`sqf_list` is Yun's
  square-free decomposition.
* :func:`cyclotomic`: Phi_m from Phi_p, p the least odd prime of m, by
  exact divisions and a sign flip for even m.
* :func:`subresultants`: Brown's subresultant PRS over Z[x][y], whose last
  entry gives the resultant.
* :func:`factor_squarefree`: Zassenhaus, after von zur Gathen and Gerhard,
  *Modern Computer Algebra*, ch. 14-15.  Distinct-degree factorization
  modulo a few good small primes bounds the degrees a factor over Z can
  have (Musser's degree sieve), and may prove the input irreducible.
  Equal-degree splitting (Cantor-Zassenhaus, from a fixed seed) at the
  prime with the fewest factors, Hensel lifting of all factors at once past
  the Mignotte bound, and recombination by subset size find the rest.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd as igcd
from math import isqrt, prod

# good primes whose degree patterns the sieve intersects, at most
_SIEVE_PRIMES = 5
# below this many coefficient products a product or quotient is written out
_SCHOOLBOOK = 400


def _trim(f: list) -> list:
    """``f`` without its leading zeros."""
    for i, c in enumerate(f):
        if c:
            return f[i:] if i else f
    return []


def neg(f: list) -> list:
    return [-c for c in f]


def add(f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    k = len(f) - len(g)
    out = f[:k] + [a + b for a, b in zip(f[k:], g)]
    return out if k else _trim(out)


def sub(f: list, g: list) -> list:
    return add(f, neg(g))


def _nbytes(bound: int) -> int:
    """Bytes per packed slot that holds values of absolute value at most
    ``bound`` with their sign."""
    return bound.bit_length() // 8 + 1


def _pack(f: list, nb: int) -> int:
    """f(256^nb), each coefficient of absolute value under 2^(8 nb - 1)."""
    zero = bytes(nb)
    pos = int.from_bytes(b"".join([c.to_bytes(nb, "big") if c > 0 else zero for c in f]), "big")
    if min(f) >= 0:
        return pos
    return pos - int.from_bytes(b"".join([(-c).to_bytes(nb, "big") if c < 0 else zero for c in f]), "big")


def _unpack(v: int, n: int, nb: int) -> list:
    """The ``n`` coefficients of the polynomial whose value at 256^nb is
    ``v``, each of absolute value under 2^(8 nb - 1); OverflowError when
    ``v`` is out of that range."""
    half = 1 << (8 * nb - 1)
    data = (v + int.from_bytes(half.to_bytes(nb, "big") * n, "big")).to_bytes(n * nb, "big")
    return [int.from_bytes(data[i : i + nb], "big") - half for i in range(0, n * nb, nb)]


def mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    if len(f) * len(g) < _SCHOOLBOOK:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    out[j] += a * b
        return out
    nb = _nbytes(max(map(abs, f)) * max(map(abs, g)) * min(len(f), len(g)))
    return _unpack(_pack(f, nb) * _pack(g, nb), len(f) + len(g) - 1, nb)


def power(f: list, e: int) -> list:
    out = [1]
    while e:
        if e & 1:
            out = mul(out, f)
        e >>= 1
        if e:
            f = mul(f, f)
    return out


def _long_divmod(f: list, g: list) -> tuple[list, list] | None:
    """(q, r) with f = q g + r and deg r < deg g, for len(f) >= len(g), by
    long division over Z, or None when lc(g) fails to divide a leading
    coefficient on the way."""
    lc, n, top = g[0], len(g), len(f) - len(g) + 1
    r, q, tail = list(f), [], g[1:]
    for i in range(top):
        c, rem = divmod(r[i], lc)
        if rem:
            return None
        q.append(c)
        if c:
            r[i + 1 : i + n] = [a - c * b for a, b in zip(r[i + 1 : i + n], tail)]
    return q, _trim(r[top:])


def quotient(f: list, g: list) -> list | None:
    """f / g in Z[x] for nonzero g, or None when g does not divide f.  A
    long quotient is read off one integer division at 256^k and checked by
    multiplying back, with long division as the fallback."""
    if not f:
        return []
    if len(f) < len(g):
        return None
    if (len(f) - len(g) + 1) * len(g) >= _SCHOOLBOOK and len(g) > 1:
        nb = _nbytes(max(max(map(abs, f)) * len(f), max(map(abs, g))))
        q, r = divmod(_pack(f, nb), _pack(g, nb))
        if r:  # g(256^nb) divides f(256^nb) when g divides f
            return None
        try:
            q = _unpack(q, len(f) - len(g) + 1, nb)
        except OverflowError:
            q = None
        if q and q[0] and mul(q, g) == f:
            return q
    qr = _long_divmod(f, g)
    return qr[0] if qr and not qr[1] else None


def exquo(f: list, g: list) -> list:
    """f / g, where g divides f in Z[x]."""
    q = quotient(f, g)
    if q is None:
        raise ArithmeticError("the polynomial division is not exact")
    return q


def pdivmod(f: list, g: list) -> tuple[list, list]:
    """Pseudo-division: (q, r) with lc(g)^e f = q g + r, e = max(deg f -
    deg g + 1, 0) and deg r < deg g."""
    e = len(f) - len(g) + 1
    if e <= 0:
        return [], f
    # never None: the i-th leading coefficient still carries lc(g)^(e - i)
    return _long_divmod([g[0] ** e * c for c in f], g)


def primitive(f: list) -> list:
    """f over its content, with a positive leading coefficient."""
    c = igcd(*f)
    if f and f[0] < 0:
        c = -c
    return f if c == 1 or not f else [a // c for a in f]


def derivative(f: list) -> list:
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def _heugcd(f: list, g: list) -> list | None:
    """GCDHEU on primitive f, g of positive degree: the primitive part of
    the integer gcd of f(xi) and g(xi), its slots read signed by
    :func:`_unpack`, is the gcd when it divides both, for xi over twice the
    smaller norm plus 2.  xi = 256^k over twice the larger norm, so that
    both pack into its slots; None when four points fail."""
    nb = _nbytes(max(max(map(abs, f)), max(map(abs, g))) + 1)
    for _ in range(4):
        v = igcd(_pack(f, nb), _pack(g, nb))
        h = primitive(_trim(_unpack(v, v.bit_length() // (8 * nb) + 2, nb)))
        if quotient(f, h) is not None and quotient(g, h) is not None:
            return h
        nb = 2 * nb + 1
    return None


def _prs_gcd(f: list, g: list) -> list:
    """The gcd of primitive f, g by the primitive remainder sequence."""
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = pdivmod(f, g)[1]
        f, g = g, primitive(r)
    return primitive(f) if not g else [1]


def gcd(f: list, g: list) -> list:
    """The gcd in Z[x], with a positive leading coefficient."""
    if not f or not g:
        h = f or g
        return neg(h) if h and h[0] < 0 else h
    cf, cg = igcd(*f), igcd(*g)
    c = igcd(cf, cg)
    if len(f) == 1 or len(g) == 1:
        return [c]
    f, g = [a // cf for a in f], [a // cg for a in g]
    h = _heugcd(f, g) or _prs_gcd(f, g)
    return h if c == 1 else [c * a for a in h]


def sqf_part(f: list) -> list:
    """The primitive square-free part, with a positive leading coefficient."""
    f = primitive(f)
    if len(f) <= 2:
        return f
    g = gcd(f, derivative(f))
    return f if len(g) == 1 else exquo(f, g)


def sqf_list(f: list) -> list[tuple[list, int]]:
    """Yun's square-free decomposition: pairs (a, i), each a primitive,
    square-free, of positive degree and with a positive leading coefficient,
    whose product of the a^i is f up to its content and sign."""
    f = primitive(f)
    if len(f) <= 1:
        return []
    df = derivative(f)
    g = gcd(f, df)
    if len(g) == 1:
        return [(f, 1)]
    b, c = exquo(f, g), exquo(df, g)
    out, i = [], 1
    while len(b) > 1:
        d = sub(c, derivative(b))
        if not d:
            out.append((b, i))
            break
        a = gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c, i = exquo(b, a), exquo(d, a), i + 1
    return out


def _prime_factors(m):
    """The distinct primes dividing m >= 1, increasing, by trial division;
    the orders of the planar decision are at most 2 * 10^5, so no trial
    divisor passes 447."""
    primes, p = [], 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return primes + [m] if m > 1 else primes


def _spread(f: list, k: int) -> list:
    """f(x^k)."""
    out = [0] * (k * (len(f) - 1) + 1)
    out[::k] = f
    return out


def cyclotomic(m: int) -> list:
    """Phi_m, leading first.  Phi_p = x^(p-1) + ... + 1 for the least odd
    prime p of m, then Phi_(n q)(x) = Phi_n(x^q) / Phi_n(x), an exact
    division, for each further odd prime q, which does not divide n; for
    even m, Phi_(2 n)(x) = Phi_n(-x), n odd, as deg Phi_n is even for n > 1
    and Phi_2 = x + 1; last, Phi_m(x) = Phi_r(x^(m / r)) for r the product
    of the primes of m."""
    primes = _prime_factors(m)
    if not primes:
        return [1, -1]
    odd = [p for p in primes if p > 2]
    phi = [1] * odd[0] if odd else [1, 1]
    for q in odd[1:]:
        phi = exquo(_spread(phi, q), phi)
    if odd and primes[0] == 2:
        phi = [-c if i % 2 else c for i, c in enumerate(phi)]
    return _spread(phi, m // prod(primes))


# ---------------------------------------------------------------------------
# Z[x][y]: bivariate lists in the main variable y


def bprem(f: list, g: list) -> list:
    """The pseudo-remainder lc(g)^(deg f - deg g + 1) f mod g in y."""
    if len(f) < len(g):
        return f
    n, lc, r = len(f) - len(g) + 1, g[0], f
    while len(r) >= len(g):
        n -= 1
        shifted = [mul(r[0], b) for b in g] + [[]] * (len(r) - len(g))
        r = [sub(mul(lc, a), b) for a, b in zip(r, shifted)]
        k = next((k for k, u in enumerate(r) if u), len(r))  # the leading entry cancels
        r = r[k:]
    if not n:
        return r
    c = power(lc, n)
    return [mul(c, a) for a in r]


def subresultants(f: list, g: list) -> tuple[list, list]:
    """Brown's subresultant PRS (R, S) of nonzero bivariate f and g in y:
    R starts with the input of higher degree in y, and S[-1], a list in x,
    is their resultant, up to sign, when R's last entry is free of y."""
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        f, g, n, m = g, f, m, n
    R = [f, g]
    d = n - m
    h = bprem(f, g)
    if d % 2 == 0:
        h = [neg(c) for c in h]
    lc = g[0]
    c = power(lc, d)
    S = [[1], c]
    c = neg(c)
    while h:
        k = len(h) - 1
        R.append(h)
        f, g, m, d = g, h, k, m - k
        b = mul(neg(lc), power(c, d))
        h = [exquo(u, b) for u in bprem(f, g)]
        lc = g[0]
        c = exquo(power(neg(lc), d), power(c, d - 1)) if d > 1 else neg(lc)
        S.append(neg(c))
    return R, S


# ---------------------------------------------------------------------------
# Z/p[x], p an odd prime: coefficient lists reduced into [0, p)


def _gf(f: list, p: int) -> list:
    return _trim([c % p for c in f])


def _gf_mul(a: list, b: list, p: int) -> list:
    """The product mod p, with no trimming."""
    return [c % p for c in mul(a, b)]


def _gf_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """(q, r) with a = q b + r mod p and deg r < deg b; p may be composite
    when lc(b) is a unit mod p."""
    n = len(b)
    if len(a) < n:
        return [], a
    inv, tail = pow(b[0], -1, p), b[1:]
    r, q = list(a), []
    for i in range(len(a) - n + 1):
        c = r[i] * inv % p
        q.append(c)
        if c:
            r[i + 1 : i + n] = [x - c * y for x, y in zip(r[i + 1 : i + n], tail)]
    return q, _gf(r[len(a) - n + 1 :], p)


def _gf_monic(a: list, p: int) -> list:
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


def _gf_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd mod p."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p) if a else a


def _gf_gcdex(f: list, g: list, p: int) -> tuple[list, list]:
    """(s, t) with s f + t g = 1 mod p for coprime f and g, deg s < deg g
    and deg t < deg f."""
    s0, s1, t0, t1 = [1], [], [], [1]
    while g:
        q, r = _gf_divmod(f, g, p)
        f, g = g, r
        s0, s1 = s1, _gf(sub(s0, _gf_mul(q, s1, p)), p)
        t0, t1 = t1, _gf(sub(t0, _gf_mul(q, t1, p)), p)
    inv = pow(f[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_pow(a: list, e: int, f: list, p: int) -> list:
    """a^e mod f and p."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _gf_divmod(_gf_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = _gf_divmod(_gf_mul(out, a, p), f, p)[1]
    return out


def _ddf(f: list, p: int) -> list[tuple[int, list]]:
    """Distinct-degree factorization of a square-free monic f mod p: pairs
    (d, g) with g the product of f's monic irreducible factors of degree d,
    which is gcd(x^(p^d) - x, g) for g the part of f with no factor of lower
    degree (von zur Gathen-Gerhard, Algorithm 14.3)."""
    out, g, h, i = [], f, [1, 0], 0
    while 2 * (i + 1) <= len(g) - 1:
        i += 1
        h = _gf_pow(h, p, g, p)
        e = _gf_gcd(g, _gf(sub(h, [1, 0]), p), p)
        if len(e) > 1:
            out.append((i, e))
            g = _gf_divmod(g, e, p)[0]
            h = _gf_divmod(h, g, p)[1]
    if len(g) > 1:
        out.append((len(g) - 1, g))
    return out


def _edf(g: list, d: int, p: int, seed: int) -> list:
    """The monic irreducible factors mod p of a product g of ones of degree
    d (Cantor-Zassenhaus): gcd(g, a^((p^d - 1) / 2) - 1) for a from a fixed
    linear congruential sequence splits g with probability about 1/2."""
    if len(g) - 1 == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = []
        for _ in range(len(g) - 1):
            seed = (seed * 6364136223846793005 + 1442695040888963407) % 2**64
            a.append((seed >> 33) % p)
        u = _gf_gcd(g, _gf(sub(_gf_pow(_trim(a), e, g, p), [1]), p), p)
        if 1 < len(u) < len(g):
            return _edf(u, d, p, seed) + _edf(_gf_divmod(g, u, p)[0], d, p, seed)


# ---------------------------------------------------------------------------
# Hensel lifting and recombination


def _symmetric(f: list, m: int) -> list:
    """Coefficients reduced into (-m/2, m/2]."""
    half = m // 2
    return _trim([c - m if c > half else c for c in (a % m for a in f)])


def _hensel_step(M, f, g, h, s, t):
    """From f = g h and s g + t h = 1 mod m, h monic, the same mod M, for
    m | M | m^2 (von zur Gathen-Gerhard, Algorithm 15.10)."""
    e = _symmetric(sub(f, mul(g, h)), M)
    q, r = _gf_divmod(mul(s, e), h, M)
    g = _symmetric(add(g, add(mul(t, e), mul(q, g))), M)
    h = _symmetric(add(h, r), M)
    b = _symmetric(sub(add(mul(s, g), mul(t, h)), [1]), M)
    c, d = _gf_divmod(mul(s, b), h, M)
    s = _symmetric(sub(s, d), M)
    t = _symmetric(sub(t, add(mul(t, b), mul(c, g))), M)
    return g, h, s, t


def _hensel_lift(p: int, pl: int, f: list, factors: list) -> list:
    """The monic factors mod pl = p^l of f, lifted from the monic
    ``factors`` of f mod p: split them in two halves, lift the pair of
    products quadratically, then each half."""
    if len(factors) == 1:
        return [_symmetric([c * pow(f[0], -1, pl) for c in f], pl)]
    k = len(factors) // 2
    g = [f[0] % p]
    for u in factors[:k]:
        g = _gf_mul(g, u, p)
    h = factors[k]
    for u in factors[k + 1 :]:
        h = _gf_mul(h, u, p)
    s, t = _gf_gcdex(g, h, p)
    g, h, s, t = (_symmetric(u, p) for u in (g, h, s, t))
    m = p
    while m < pl:
        m = min(m * m, pl)
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
    return _hensel_lift(p, pl, g, factors[:k]) + _hensel_lift(p, pl, h, factors[k:])


def _recombine(f: list, pl: int, lifted: list, degrees: int, bound: int) -> list:
    """The factors over Z of f from its monic factors mod pl, by subsets of
    growing size: a subset's degree must be in the sieve's set ``degrees``
    and its constant term must divide lc(f) f(0) before the product is
    formed; a product G with cofactor H is a factor when |G|_1 |H|_1 stays
    within ``bound``, so that G H = lc(f) f holds over Z."""
    out, rest, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            b = f[0]
            q = b
            for i in subset:
                q = q * lifted[i][-1] % pl
            q = q - pl if q > pl // 2 else q
            if q and (b * f[-1]) % q:
                continue
            g, h = [b], [b]
            for i in rest:
                if i in subset:
                    g = _symmetric(mul(g, lifted[i]), pl)
                else:
                    h = _symmetric(mul(h, lifted[i]), pl)
            if sum(map(abs, g)) * sum(map(abs, h)) <= bound:
                out.append(primitive(g))
                f = primitive(h)
                rest = [i for i in rest if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _odd_primes():
    """The odd primes, smallest first."""
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def factor_squarefree(f: list) -> list:
    """The irreducible factors over Z of a primitive square-free f with a
    positive leading coefficient and f(0) != 0, each with a positive
    leading coefficient, in no fixed order."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    df = derivative(f)
    degrees, best, good = (1 << (n + 1)) - 1, None, 0
    low = (1 << (n // 2 + 1)) - 2  # the degrees 1 .. n / 2
    for p in _odd_primes():
        if f[0] % p == 0:
            continue
        fp = _gf_monic(_gf(f, p), p)
        if len(_gf_gcd(fp, _gf(df, p), p)) > 1:
            continue
        ddf = _ddf(fp, p)
        sums = 1
        for d, g in ddf:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        degrees &= sums
        count = sum((len(g) - 1) // d for d, g in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        good += 1
        if not degrees & low or good == _SIEVE_PRIMES:
            break
    if not degrees & low:
        return [f]
    _, p, ddf = best
    modular = [u for d, g in ddf for u in _edf(g, d, p, 1)]
    bound = (isqrt(n + 1) + 1) * 2**n * max(map(abs, f)) * f[0]
    pl = p
    while pl <= 2 * bound + 1:
        pl *= p
    return _recombine(f, pl, _hensel_lift(p, pl, f, modular), degrees, bound)
