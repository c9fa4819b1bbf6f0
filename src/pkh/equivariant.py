"""Equivariant Khovanov homology of periodic diagrams.

Integrally, the triply graded groups are hyper-Ext of the cyclotomic module
Z[xi_d] into the Khovanov complex over Z[t]/(t^n - 1), computed from the
two-periodic resolution whose maps alternate between multiplication by
Phi_d(t) and by (t^n - 1)/Phi_d(t).  `PeriodicResolution` is that data: the
two multipliers and the number of columns of the Hom double complex.
Exactness of the resolution holds for every d | n because Z[t] is a
domain; the engine relies on it through the contraction of each free row
(`_free_rows`), which `test_free_row_homotopy` checks for every d | n <= 12.

The double complex is not written out whole.  On a free orbit Z[G] its row
is split exact beyond column 0, with H^0 = Hom(Z[xi_d], Z[G]) = Z^phi(d):
the homotopy h on column p >= 1 is the polynomial quotient by the map into
it (both multipliers are monic, so the division is over Z), and column 0
projects onto the kernel of Phi_d.  By the homological perturbation lemma
(Crainic, arXiv:math/0403266) the total complex is homotopy equivalent to
the one `_totalize` builds: phi(d) generators per free orbit in column 0,
every column for the other orbits, and differentials corrected by zigzags
d h d ... through the free rows.

The underived Hom from Z or Z_- is the +1 or -1 eigenlattice of the
complex.  Rationally the group algebra is semisimple, so the computation
reduces to the homology of the Phi_d-isotypic summand; this side doubles as
an independent check on the free ranks of the integral answer.  Both are
`homalg.isotypic_complex` of the orbit-reduced slices, the projection that
the sector pages of the spectral sequence take of the whole slices.

For speed, the complex is first compressed by Gaussian cancellation over
the group ring: d is built only on the columns of orbit leads (the least
index of each rotation orbit), and a free orbit pair is cancelled through
a unit entry that is the only one of the target orbit in its lead column,
i.e. through a quotient entry +-t^k.  The cancelled span is an acyclic free
module summand, so the quotient is a complex of free modules with the same
hyper-Ext; the survivors are whole orbits, expanded back to the full
basis, on which the generator still acts by a signed permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import GradedAbGroup, SliceComplex, build_complex, khovanov_homology
from .diagram import PeriodicDiagram
from .errors import InvariantError, ValidationError
from .homalg import (FreeComplex, OrbitCancellingComplex, SparseIntMatrix, cofactor,
                     cyclotomic, eval_group_ring, isotypic_complex, isotypic_part, orbits,
                     poly_divmod, reduce_unit_pivots)
from .polynomials import BiPolynomial

MAX_WINDOW = 200  # hyper-Ext degrees: ekh t6_2 --d 2 costs 0.8 s at window 40 and
#                   2.7 s and 81 MB at 160, growing linearly

# ---------------------------------------------------------------------------
# periodic resolutions


@dataclass
class PeriodicResolution:
    """Free resolution of Z[xi_d] over Z[t]/(t^n - 1), `length` columns: the
    map out of column k multiplies by Phi_d (k odd) or by the cofactor."""

    n: int
    d: int
    length: int
    phi: list[int] = field(init=False)
    cof: list[int] = field(init=False)

    def __post_init__(self):
        _check_divisor(self.n, self.d)
        if self.length < 1:
            raise ValidationError("length must be >= 1")
        self.phi = cyclotomic(self.d)
        self.cof = cofactor(self.d, self.n)


def _check_divisor(n: int, d: int) -> None:
    """The cyclotomic index d must be a positive divisor of the order n."""
    if d < 1 or n % d:
        raise ValidationError(f"{d} does not divide the rotation order {n}")


# ---------------------------------------------------------------------------
# equivariant unit-orbit reduction


@dataclass
class EquivariantSlice:
    """A j-slice after reduction: dims, differentials and the action."""

    dims: dict[int, int]
    diffs: dict[int, SparseIntMatrix]
    psi: dict[int, list[tuple[int, int]]]


def equivariant_reduce(sl: SliceComplex, n: int) -> EquivariantSlice:
    """Cancel free orbits over the group ring; the result is kept on sl.

    d is built on the orbit-lead columns only, and `OrbitCancellingComplex`
    cancels a pair of free orbits through a unit d[t][s] on a lead s when t
    is the only member of its orbit in column s.  Survivors are whole orbits
    of the slice, expanded back to the full basis, so its psi carries over.
    """
    cached = sl.reduced
    if cached is None:
        dims = sl.dims
        psi = {i: sl.psi(i) for i in dims}
        red = OrbitCancellingComplex(dims, psi, n, sl.build_diff)
        red.reduce(red.free_pivot)
        dims, diffs, remap = red.export()
        out_psi = {}
        for i in dims:
            p, rm = psi[i], remap[i]
            out_psi[i] = [(rm[p[e][0]], p[e][1]) for e in rm]
        cached = sl.reduced = EquivariantSlice(dims, diffs, out_psi)
    return cached


# ---------------------------------------------------------------------------
# integral hyper-Ext


@dataclass
class EquivariantGroups:
    """Triply graded groups at one cyclotomic index d, over a window."""

    n: int
    d: int
    window: int
    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]]
    tail: dict = field(default_factory=dict)

    def group(self, i: int, j: int) -> tuple[int, tuple[int, ...]]:
        return self.groups.get((i, j), (0, ()))

    def detect_tail(self) -> dict:
        """Least degree from which the groups repeat with period two."""
        if not self.groups:
            self.tail = {"periodic_from": 0, "top_degree": None}
            return self.tail
        js = {j for _, j in self.groups}

        def matches(i):
            return all(self.group(i, j) == self.group(i + 2, j) for j in js)

        start = None
        for i in range(self.window - 2, min(i0 for i0, _ in self.groups) - 1, -1):
            if matches(i):
                start = i
            else:
                break
        self.tail = {"periodic_from": start, "top_degree": max(i for i, _ in self.groups)}
        return self.tail


def ext_groups(diagram: PeriodicDiagram, d: int, window: int | None = None) -> EquivariantGroups:
    """Hyper-Ext of Z[xi_d] into the Khovanov complex, graded by (i, j).

    Degrees i <= window are exact; the resolution is truncated far enough
    beyond the window that no boundary effects reach it.
    """
    n = diagram.n
    if window is None:
        window = 2 * diagram.ncross + 6
    if not 0 <= window <= MAX_WINDOW:
        raise ValidationError(f"window must be between 0 and {MAX_WINDOW}")
    res = PeriodicResolution(n, d, window + diagram.n_minus + 2)  # columns 0..length-1
    cx = build_complex(diagram)
    out: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if not sl.dims:
            continue
        red = equivariant_reduce(sl, n)
        if not red.dims:
            continue
        # the total complex is built here for this call alone, so it is reduced in place
        hom = reduce_unit_pivots(_totalize(red, res, window + 1)).homology()
        for m, grp in hom.items():
            if m <= window:
                out[(m, j)] = grp
    res = EquivariantGroups(n, d, window, {k: v for k, v in out.items() if v[0] or v[1]})
    res.detect_tail()
    return res


def _free_rows(psi: list[tuple[int, int]], res: PeriodicResolution):
    """The contraction of the free rows of one chain group onto column 0.

    On a free orbit, x = sum_k c_k psi^k(lead) is the polynomial c(t) mod
    t^n - 1, and g_p, the horizontal map out of column p, multiplies it by
    Phi_d (p even) or by the cofactor (p odd).  The homotopy h on column
    p >= 1 is the quotient by g_{p-1}; column 0 projects onto H = ker Phi_d
    by pi(x) = cof * (c div cof), which is `isotypic_part` of the free
    orbits.  Returns (nonfree, h, proj, incl):

    - nonfree: the ids outside free orbits, ascending;
    - h: the quotients by Phi_d and by the cofactor, {id: [(id', coef)]};
    - proj: pi in coordinates of H, {id: [(k, coef)]}, for every free id;
    - incl: the basis of H as vectors {id: coef}.
    """
    n = res.n
    quot = [[poly_divmod([0] * k + [1], g)[0] for k in range(n)] for g in (res.phi, res.cof)]
    nonfree: list[int] = []
    free = []
    h: tuple[dict, dict] = ({}, {})
    for orbit in orbits(psi):
        ids, signs, _ = orbit
        if len(ids) < n:
            nonfree.extend(ids)
            continue
        free.append(orbit)
        for k, e in enumerate(ids):
            s = signs[k]
            for table, qk in zip(h, quot):
                table[e] = [(ids[j], s * c * signs[j]) for j, c in enumerate(qk[k]) if c]
    nonfree.sort()
    incl, proj = isotypic_part(free, res.d)
    return nonfree, h, proj, incl


def _totalize(red: EquivariantSlice, res: PeriodicResolution, maxdeg: int) -> FreeComplex:
    """The Hom double complex with its free rows retracted, degrees <= maxdeg.

    Each free row is split exact beyond column 0 (`_free_rows`), so by the
    homological perturbation lemma (with -h as its homotopy) the total
    complex is homotopy equivalent to a smaller one: H in column 0 for the
    free orbits, and every column p < res.length for the others, N.  A
    generator y of N at (p, q) maps by g_p into (p + 1, q) and by (-1)^p d;
    the N part of that is written at (p, q + 1), and its free part goes by
    -h to column p - 1 and on by (-1)^(p-1) d, each step writing its N part,
    until column 0, where pi takes the free part into H.  A generator of H
    maps by d: its N part, and pi of its free part.  Such a zigzag depends
    on p only through its parity and where it stops, so one is computed per
    generator and parity.

    Free rows are retracted on the whole resolution, so res must reach
    every column at or below maxdeg (res.length > maxdeg - min q), which
    leaves homology below maxdeg exact.
    """
    cols = res.length
    qs = sorted(red.dims)
    rows_of = {}  # q -> (nonfree, their indices, h, proj, incl, g_p on N by column)
    for q in qs:
        psi = red.psi[q]
        nonfree, h, proj, incl = _free_rows(psi, res)
        nidx = {e: k for k, e in enumerate(nonfree)}
        horiz = []
        if nonfree:
            psi_n = [(nidx[psi[e][0]], psi[e][1]) for e in nonfree]
            for g in (res.phi, res.cof):
                mat = eval_group_ring(g, psi_n, len(nonfree))
                horiz.append({c: [(r, mat.rows[r][c]) for r in rs] for c, rs in mat.cols.items()})
        rows_of[q] = (nonfree, nidx, h, proj, incl, horiz)

    # generators: per degree, blocks by ascending q; column 0 holds N then H
    dims: dict[int, int] = {}
    noff: dict[tuple[int, int], int] = {}
    hoff: dict[int, int] = {}
    for m in range(min(qs, default=0), maxdeg + 1):
        size = 0
        for q in qs:
            p = m - q
            if not 0 <= p < cols:
                continue
            nonfree, incl = rows_of[q][0], rows_of[q][4]
            if nonfree:
                noff[(p, q)] = size
                size += len(nonfree)
            if p == 0 and incl:
                hoff[q] = size
                size += len(incl)
        if size:
            dims[m] = size

    def zigzag(vec, q, par, depth):
        """Up to `depth` steps [(N part, pi of free part)] from vec at (col, q).

        par is the column's parity; pi is taken only where the column can be 0.
        """
        steps = []
        while vec and len(steps) < depth:
            d = red.diffs.get(q)
            if d is None or q + 1 not in rows_of:
                break
            drows, dcols = d.rows, d.cols
            img: dict[int, int] = {}
            for c, a in vec.items():
                for r in dcols.get(c, ()):
                    img[r] = img.get(r, 0) + a * drows[r][c]
            q += 1
            _, nidx, h, proj, _, _ = rows_of[q]
            div = h[0] if par else h[1]  # h on column p divides by g_{p-1}
            sign = -1 if par else 1
            nv, hv, nxt = {}, {}, {}
            for r, a in img.items():
                if not a:
                    continue
                a *= sign
                k = nidx.get(r)
                if k is not None:
                    nv[k] = a
                    continue
                if not par:
                    for k, c in proj[r]:
                        hv[k] = hv.get(k, 0) + a * c
                for r2, c in div[r]:
                    nxt[r2] = nxt.get(r2, 0) - a * c
            steps.append((list(nv.items()), [(k, v) for k, v in hv.items() if v]))
            vec = {r: v for r, v in nxt.items() if v}
            par ^= 1
        return steps

    mats = {m: SparseIntMatrix(dims[m + 1], dims[m]) for m in dims if m + 1 in dims}

    def write(m, c, blocks):
        """Column c of d_m: the entries of each (row offset, entries) block.

        The blocks lie in disjoint row ranges and list a row once each, so
        no entry is written twice."""
        mat = mats.get(m)
        if mat is None:
            return
        rows = mat.rows
        col = []
        for off, entries in blocks:
            for r, v in entries:
                r += off
                row = rows.get(r)
                if row is None:
                    rows[r] = {c: v}
                else:
                    row[c] = v
                col.append(r)
        if col:
            mat.cols[c] = col

    for q in qs:
        nonfree, _, _, _, incl, horiz = rows_of[q]
        if q + 1 > maxdeg:
            continue
        for k, vec in enumerate(incl):
            for nv, hv in zigzag(vec, q, 0, 1):
                write(q, hoff[q] + k, ((noff.get((0, q + 1)), nv), (hoff.get(q + 1), hv)))
        top = min(cols - 1, maxdeg - 1 - q)  # the last column whose image is kept
        for y, e in enumerate(nonfree):
            chains = [zigzag({e: 1}, q, par, top + 1) for par in (0, 1)]
            for p in range(top + 1):
                blocks = []
                if p + 1 < cols:
                    blocks.append((noff[(p + 1, q)], horiz[p % 2].get(y, ())))
                steps = chains[p % 2]
                for k in range(min(p + 1, len(steps))):
                    nv, hv = steps[k]
                    blocks.append((noff.get((p - k, q + 1 + k)), nv))
                    if k == p:
                        blocks.append((hoff.get(q + 1 + p), hv))
                write(p + q, noff[(p, q)] + y, blocks)
    return FreeComplex(dims, {m: mat for m, mat in mats.items() if mat.rows})


# ---------------------------------------------------------------------------
# plain Hom cohomology (underived)


def hom_cohomology(diagram: PeriodicDiagram, module: str = "trivial") -> GradedAbGroup:
    """Cohomology of the plain Hom complex from Z (trivial) or Z_- (sign).

    No derived functors: per degree this is the subgroup on which the
    generator acts by +1 (trivial) or -1 (sign), with the induced
    differential.  Depends on the chosen diagram, not just the link.  Taken on
    the orbit-reduced slices, which are equivariantly homotopy equivalent.
    """
    if module not in ("trivial", "sign"):
        raise ValidationError("module must be 'trivial' or 'sign'")
    d = 1 if module == "trivial" else 2  # the +1 or -1 eigenlattice
    if d == 2 and diagram.n % 2:
        raise ValidationError("the sign module needs even rotation order")
    return GradedAbGroup.from_dict(dict(_isotypic_slices(diagram, d)))


def _isotypic_slices(diagram: PeriodicDiagram, d: int):
    """((i, j), group) per nonzero group of the Phi_d-isotypic parts of the
    orbit-reduced slices: each part is built afresh and reduced in place."""
    cx = build_complex(diagram)
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if sl.dims:
            red = equivariant_reduce(sl, diagram.n)
            fc = isotypic_complex(red.dims, red.psi.get, red.diffs.get, d)[1]
            for i, grp in reduce_unit_pivots(fc).homology().items():
                yield (i, j), grp


# ---------------------------------------------------------------------------
# rational isotypic homology


def rational_equivariant(diagram: PeriodicDiagram, d: int) -> dict:
    """Dimensions of the Phi_d-isotypic part of rational Khovanov homology.

    Returns {'dim_q': {(i, j): dim over Q}, 'dim_cyc': {(i, j): dim over the
    cyclotomic field}}; the former is always divisible by phi(d).  A
    dimension is the free rank of the integral isotypic group; degrees with
    torsion only are left out.
    """
    _check_divisor(diagram.n, d)
    phi_d = len(cyclotomic(d)) - 1
    dims: dict[tuple[int, int], int] = {}
    for key, (h, _) in _isotypic_slices(diagram, d):
        if not h:
            continue
        if h % phi_d:
            raise InvariantError("isotypic dimension not divisible by phi(d)")
        dims[key] = h
    return {"dim_q": dims, "dim_cyc": {k: v // phi_d for k, v in dims.items()}}


def equivariant_polynomials(diagram: PeriodicDiagram, d: int):
    """(equivariant Khovanov polynomial, equivariant Jones polynomial) at d.

    Coefficients are dimensions over the d-th cyclotomic field.
    """
    data = rational_equivariant(diagram, d)
    khp = BiPolynomial(dict(data["dim_cyc"]))
    return khp, khp.at_t_minus_one()


# ---------------------------------------------------------------------------
# structure checks


def _strip_primes(factors, primes) -> list[int]:
    out = []
    for f in factors:
        for p in primes:
            while f % p == 0:
                f //= p
        if f > 1:
            out.append(f)
    return out


def _prime_power_multiset(factors) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for f in factors:
        n, p = f, 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out[(p, e)] = out.get((p, e), 0) + 1
            p += 1
        if n > 1:
            out[(n, 1)] = out.get((n, 1), 0) + 1
    return out


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def total_comparison(diagram: PeriodicDiagram, window: int | None = None) -> dict:
    """Compare the d-sum of equivariant groups with classical homology.

    Free ranks must agree on the nose; torsion after inverting the primes
    dividing n.  Returns a report with per-(i, j) failures, if any.
    """
    classical = khovanov_homology(diagram).as_dict()
    n = diagram.n
    primes = _prime_divisors(n)
    top = max((i for i, _ in classical), default=0)
    if window is None:
        window = top + 2
    exts = {d: ext_groups(diagram, d, window)
            for d in range(1, n + 1) if n % d == 0}
    keys = set(classical)
    for e in exts.values():
        keys |= set(e.groups)
    failures = []
    for (i, j) in sorted(keys):
        if i > window:
            continue
        free_sum = sum(e.group(i, j)[0] for e in exts.values())
        tors_sum: list[int] = []
        for e in exts.values():
            tors_sum.extend(e.group(i, j)[1])
        cfree, ctors = classical.get((i, j), (0, ()))
        if free_sum != cfree:
            failures.append({"i": i, "j": j, "kind": "free", "sum": free_sum, "classical": cfree})
            continue
        a = _prime_power_multiset(_strip_primes(tors_sum, primes))
        b = _prime_power_multiset(_strip_primes(ctors, primes))
        if a != b:
            failures.append({"i": i, "j": j, "kind": "torsion", "sum": sorted(tors_sum),
                             "classical": sorted(ctors)})
    return {"ok": not failures, "window": window, "failures": failures}


def tail_checks(diagram: PeriodicDiagram, d: int, window: int | None = None) -> dict:
    """Two-periodicity and annihilation of the window tail.

    Needs prime-power rotation order p^m.  Beyond the top classical degree
    the groups must repeat with period two and be annihilated by p^m when
    d = 1 and by p^(m-s+1) when d = p^s with s >= 1.
    """
    n = diagram.n
    primes = _prime_divisors(n)
    if len(primes) != 1:
        raise ValidationError("rotation order must be a prime power")
    p = primes[0]
    m = 0
    nn = n
    while nn > 1:
        nn //= p
        m += 1
    s = 0
    dd = d
    while dd > 1:
        if dd % p:
            raise ValidationError("d must be a power of the same prime")
        dd //= p
        s += 1
    classical = khovanov_homology(diagram).as_dict()
    m_top = max((i for i, _ in classical), default=0)
    if window is None:
        window = m_top + 6
    if window < m_top + 4:
        raise ValidationError("window too small to see the tail")
    ext = ext_groups(diagram, d, window)
    bound = n if s == 0 else p ** (m - s + 1)
    failures = []
    js = {j for _, j in ext.groups}
    for i in range(m_top + 1, window - 1):
        for j in sorted(js):
            if ext.group(i, j) != ext.group(i + 2, j):
                failures.append({"i": i, "j": j, "kind": "period"})
    for (i, j), (free, tors) in sorted(ext.groups.items()):
        if i <= m_top:
            continue
        if free:
            failures.append({"i": i, "j": j, "kind": "free_tail"})
        for t in tors:
            if bound % t:
                failures.append({"i": i, "j": j, "kind": "annihilator", "factor": t})
    return {"ok": not failures, "m_top": m_top, "window": window,
            "annihilator": bound, "failures": failures}
