"""Closed-form answers used as independent oracles.

Trivial-link label-space polynomials and their orbit decomposition (with
a brute-force enumeration they are tested against), cyclic group
cohomology with cyclotomic coefficients, the full equivariant answer for
crossingless trivial links, and the Khovanov polynomials of the two-strand
torus links, classical and for the order-two symmetry.

Nothing here imports the engine, only `errors` and `polynomials`, so
agreement with it is evidence rather than circular bookkeeping.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import ValidationError
from .polynomials import BiPolynomial, LaurentPoly

# Size limits, so that an oversized request fails at once with one line
# instead of running out of time or memory.
MAX_ORDER = 4096  # p^n, and n of T(n, 2): poly_P at p^n = 4096 takes 1.7 s and prints 3.6 MB
MAX_CIRCLES = 16  # k p^n + f of a trivial link: its torsion is listed with multiplicity,
#                   up to 3.3 M factors at 16 circles and window 200
MAX_WINDOW = 200  # degrees of a trivial link's listing, which grows linearly in the
#                   window: the 3.3 M factors above are at window 200


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def _prime_power(p: int, n: int) -> int:
    """p^n for a prime p and n >= 0, refused past MAX_ORDER.

    A p over the limit is refused before the primality test, which is trial
    division.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    too_large = ValidationError(f"p^n over {MAX_ORDER} is not supported")
    if p > MAX_ORDER:
        raise too_large
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    pn = 1
    for _ in range(n):
        pn *= p
        if pn > MAX_ORDER:
            raise too_large
    return pn


def euler_phi(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def poly_P(p: int, n: int) -> LaurentPoly:
    """Free-orbit generating polynomial at tensor length p^n.

    P_0 = q + 1/q; for n >= 1 the coefficient of q^(2k - p^n) counts free
    rotation orbits of basis labels with k symbols of positive degree.
    """
    pn = _prime_power(p, n)
    if n == 0:
        return LaurentPoly.q_plus_qinv()
    acc: dict[int, int] = {}
    for k in range(1, pn):
        # labelings with k low symbols whose exact rotation period is p^n:
        # all of them minus those already periodic of order p^(n-1)
        cnt = comb(pn, k)
        if k % p == 0:
            cnt -= comb(pn // p, k // p)
        if cnt:
            acc[2 * k - pn] = acc.get(2 * k - pn, 0) + cnt
    return LaurentPoly(acc).divide_int(pn)


def qdim_M(p: int, n: int, s: int, k: int, f: int = 0) -> LaurentPoly:
    """Graded rank of the isotropy-p^(n-s) block of the trivial-link labels.

    k free orbits of circles and f fixed circles; the fixed circles
    contribute the factor (q + 1/q)^f.
    """
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    if not 0 <= s <= n or k < 0 or f < 0 or k + f < 1:
        raise ValidationError("arguments out of range")
    fixed = LaurentPoly.q_plus_qinv() ** f
    return fixed * _qdim_M_free(p, n, s, k)


def _qdim_M_free(p: int, n: int, s: int, k: int) -> LaurentPoly:
    # Orbit-product recursion: appending one more orbit of circles to a
    # block of isotropy exponent s' gives max(s, s') with multiplicity
    # p^min(s, s') (the product of a length-p^s orbit and a length-p^s'
    # orbit splits into that many full orbits).
    if k == 0:
        return LaurentPoly.one() if s == 0 else LaurentPoly.zero()
    table = [[None] * (k + 1) for _ in range(n + 1)]
    for t in range(n + 1):
        table[t][0] = LaurentPoly.one() if t == 0 else LaurentPoly.zero()
        table[t][1] = poly_P(p, t).substitute_power(p ** (n - t))
    for kk in range(2, k + 1):
        for t in range(n + 1):
            acc = LaurentPoly.zero()
            for t2 in range(t):
                cross = table[t][kk - 1] * table[t2][1] + table[t2][kk - 1] * table[t][1]
                acc = acc + (p ** t2) * cross
            acc = acc + (p ** t) * (table[t][kk - 1] * table[t][1])
            table[t][kk] = acc
    return table[s][k]


def brute_orbit_qdims(p: int, n: int, k: int) -> dict[int, LaurentPoly]:
    """Enumerate label rotations directly: qdim of each isotropy block.

    Walks all 2^(k p^n) labelings of k p^n circles under rotation by k
    positions and buckets orbits by exact isotropy.  Small inputs only.
    """
    pn = p ** n
    size = k * pn
    if size > 20:
        raise ValidationError("enumeration bounded to 20 circles")
    out: dict[int, dict[int, int]] = {}
    seen = bytearray(1 << size)
    mask = (1 << size) - 1
    for v in range(1 << size):
        if seen[v]:
            continue
        orbit = [v]
        cur = ((v << k) & mask) | (v >> (size - k))
        while cur != v:
            orbit.append(cur)
            cur = ((cur << k) & mask) | (cur >> (size - k))
        for w in orbit:
            seen[w] = 1
        iso = pn // len(orbit)  # exact isotropy order
        s = 0
        while p ** s != pn // iso:
            s += 1
        deg = size - 2 * v.bit_count()
        out.setdefault(s, {})[deg] = out.setdefault(s, {}).get(deg, 0) + 1
    return {s: LaurentPoly(d) for s, d in out.items()}


def group_cohomology_cyclotomic(p: int, e: int, c: int, degree: int) -> tuple[int, tuple[int, ...]]:
    """H^degree of the cyclic group of order p^e with coefficients Z[xi_{p^c}].

    c = 0 is ordinary integral cohomology (Z, 0, Z/p^e, 0, ...); for c >= 1
    the answer is Z/p in every odd degree and zero otherwise.
    """
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    if e < 0 or c < 0 or c > e:
        raise ValidationError("need 0 <= c <= e")
    if degree < 0:
        return (0, ())
    if c == 0:
        if degree == 0:
            return (1, ())
        if degree % 2 == 0:
            return (0, (p ** e,)) if e else (0, ())
        return (0, ())
    return (0, (p,)) if degree % 2 else (0, ())


def trivial_link_ekh(p: int, n: int, k: int, f: int, u: int,
                     window: int) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
    """Equivariant groups of the crossingless trivial link, index d = p^(n-u).

    Assembled from the orbit decomposition of the label space and cyclic
    group cohomology, through degree `window`.
    """
    pn = _prime_power(p, n)
    if not 0 <= u <= n:
        raise ValidationError("need 0 <= u <= n")
    if k < 0 or f < 0 or k + f == 0:
        raise ValidationError("k and f must be non-negative, with k + f >= 1 components")
    if k * pn + f > MAX_CIRCLES:
        raise ValidationError(f"{k * pn + f} circles: over {MAX_CIRCLES} is not supported")
    if not 0 <= window <= MAX_WINDOW:
        raise ValidationError(f"window must be between 0 and {MAX_WINDOW}")
    out: dict[tuple[int, int], list] = {}

    def add(i, j, free, torsion, mult):
        if i > window or (free == 0 and not torsion):
            return
        slot = out.setdefault((i, j), [0, []])
        slot[0] += free * mult
        slot[1].extend(list(torsion) * mult)

    for s in range(n + 1):
        qd = qdim_M(p, n, s, k, f)
        if s > 0 and k == 0:
            continue  # no free orbits, higher isotropy blocks are empty
        for j, dj in qd.items():
            if n - s <= u:
                mult = euler_phi(p ** (n - u)) * dj
                for i in range(window + 1):
                    free, tors = group_cohomology_cyclotomic(p, n - s, 0, i)
                    add(i, j, free, tors, mult)
            else:
                mult = (p ** s) * dj
                for i in range(window + 1):
                    free, tors = group_cohomology_cyclotomic(p, n - s, n - s - u, i)
                    add(i, j, free, tors, mult)
    return {key: (free, tuple(sorted(tors))) for key, (free, tors) in out.items()}


# ---------------------------------------------------------------------------
# torus links T(n, 2)


def torus_khp(n: int) -> BiPolynomial:
    """Khovanov polynomial of the two-strand torus link T(n, 2), n >= 2."""
    if not 2 <= n <= MAX_ORDER:
        raise ValidationError(f"n must be between 2 and {MAX_ORDER}")
    k, odd = divmod(n, 2)
    out: dict[tuple[int, int], int] = {}
    if odd:
        out[(0, 2 * k - 1)] = 1
        out[(0, 2 * k + 1)] = 1
        for j in range(k):
            out[(2 + 2 * j, 2 * k + 3 + 4 * j)] = 1
            out[(3 + 2 * j, 2 * k + 7 + 4 * j)] = 1
    else:
        out[(0, 2 * k - 2)] = 1
        out[(0, 2 * k)] = 1
        for j in range(k - 1):
            out[(2 + 2 * j, 2 * k + 2 + 4 * j)] = 1
            out[(3 + 2 * j, 2 * k + 6 + 4 * j)] = 1
        out[(2 * k, 6 * k - 2)] = out.get((2 * k, 6 * k - 2), 0) + 1
        out[(2 * k, 6 * k)] = 1
    return BiPolynomial(out)


def torus_ekh2(n: int) -> tuple[BiPolynomial, BiPolynomial]:
    """Equivariant Khovanov polynomials of T(n, 2) for the order-2 symmetry.

    The second sector is t^(2k) q^(6k) when n = 2k and zero when n is odd;
    the first sector is the classical polynomial minus that.
    """
    if n < 2:
        raise ValidationError("n must be >= 2")
    khp = torus_khp(n)
    if n % 2:
        sector2 = BiPolynomial.zero()
    else:
        k = n // 2
        sector2 = BiPolynomial.monomial(2 * k, 6 * k)
    return khp - sector2, sector2
