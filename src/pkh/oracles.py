"""Closed-form answers used as independent oracles.

Trivial-link label-space polynomials and their orbit decomposition, cyclic
group cohomology with cyclotomic coefficients, restriction of cyclotomic
modules, the full equivariant answer for crossingless trivial links, and
the Khovanov polynomials of the two-strand torus links, classical and for
the order-two symmetry.

Nothing here touches the chain-level machinery, so agreement with the main
engine is meaningful evidence rather than circular bookkeeping.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import ValidationError
from .homalg import SparseIntMatrix, cyclotomic, poly_divmod_exact, smith_normal_form
from .polynomials import BiPolynomial, LaurentPoly


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def euler_phi(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def poly_P(p: int, n: int) -> LaurentPoly:
    """Free-orbit generating polynomial at tensor length p^n.

    P_0 = q + 1/q; for n >= 1 the coefficient of q^(2k - p^n) counts free
    rotation orbits of basis labels with k symbols of positive degree.
    """
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    if n < 0:
        raise ValidationError("n must be non-negative")
    if n == 0:
        return LaurentPoly.q_plus_qinv()
    pn = p ** n
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


def cyclic_group_cohomology(p: int, m: int, s: int, degree: int) -> tuple[int, tuple[int, ...]]:
    """Self-Ext of the cyclotomic module Z[xi_{p^s}] over Z[Z/p^m].

    Degree 0 is the cyclotomic ring itself (free of rank phi(p^s)); odd
    degrees vanish; positive even degrees are the quotient of Z[xi_{p^s}]
    by the evaluation of the cofactor (t^{p^m}-1)/Phi_{p^s}(t) at the root,
    computed exactly by Smith normal form.
    """
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    if not 0 <= s <= m:
        raise ValidationError("need 0 <= s <= m")
    if degree < 0:
        return (0, ())
    if degree == 0:
        return (euler_phi(p ** s), ())
    if s == 0:
        if degree % 2:
            return (0, ())
        return (0, (p ** m,))
    if degree % 2:
        return (0, ())
    phi = cyclotomic(p ** s)
    cof = poly_divmod_exact([-1] + [0] * (p ** m - 1) + [1], phi)
    deg = len(phi) - 1
    mat = _mult_mod_matrix(cof, phi, deg)
    return (0, smith_normal_form(mat).nonunit)


def _mult_mod_matrix(f: list[int], phi: list[int], deg: int) -> SparseIntMatrix:
    """Matrix of multiplication by f on Z[t]/(phi), phi monic of degree deg."""
    m = SparseIntMatrix(deg, deg)
    col = [0] * deg
    col[0] = 1
    for j in range(deg):
        acc = [0] * deg
        base = list(col)
        for coef in f:
            if coef:
                for i, v in enumerate(base):
                    acc[i] += coef * v
            base = _tmul(base, phi)
        for i, v in enumerate(acc):
            if v:
                m.set(i, j, v)
        col = _tmul(col, phi)
    return m


def _tmul(vec: list[int], phi: list[int]) -> list[int]:
    deg = len(vec)
    out = [0] * deg
    lead = vec[deg - 1]
    for i in range(deg - 1):
        out[i + 1] = vec[i]
    if lead:
        for i in range(deg):
            out[i] -= lead * phi[i]
    return out


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


def restrict_cyclotomic(p: int, n: int, s: int, m: int) -> dict:
    """Restriction of Z[xi_{p^(n-s)}] to the subgroup of order p^m."""
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    if not (0 <= s <= n and 0 <= m <= n):
        raise ValidationError("need 0 <= s, m <= n")
    if m <= s:
        return {"kind": "trivial", "rank": euler_phi(p ** (n - s)), "multiplicity": 1}
    return {"kind": "cyclotomic", "index": p ** (m - s), "multiplicity": p ** (n - m)}


def trivial_link_ekh(p: int, n: int, k: int, f: int, u: int,
                     window: int) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
    """Equivariant groups of the crossingless trivial link, index d = p^(n-u).

    Assembled from the orbit decomposition of the label space and cyclic
    group cohomology, through degree `window`.
    """
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    if not 0 <= u <= n:
        raise ValidationError("need 0 <= u <= n")
    if k < 0 or f < 0:
        raise ValidationError("k and f must be non-negative")
    if window < 0:
        raise ValidationError("window must be non-negative")
    out: dict[tuple[int, int], list] = {}

    def add(i, j, free, torsion, mult):
        if i > window or (free == 0 and not torsion):
            return
        slot = out.setdefault((i, j), [0, []])
        slot[0] += free * mult
        slot[1].extend(list(torsion) * mult)

    for s in range(n + 1):
        qd = qdim_M(p, n, s, k, f) if k + f else LaurentPoly.zero()
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
    if n < 2:
        raise ValidationError("n must be >= 2")
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


def unknot_khp() -> BiPolynomial:
    return BiPolynomial({(0, 1): 1, (0, -1): 1})


def unlink_khp(components: int) -> BiPolynomial:
    q = LaurentPoly.q_plus_qinv() ** components
    return BiPolynomial.from_laurent(q)
