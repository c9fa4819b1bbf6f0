"""Equivariant Khovanov homology of periodic diagrams.

Integrally, the triply graded groups are hyper-Ext of the cyclotomic module
Z[xi_d] into the Khovanov complex over Z[t]/(t^n - 1), computed from the
two-periodic resolution whose maps alternate between multiplication by
Phi_d(t) and by (t^n - 1)/Phi_d(t).  `PeriodicResolution` owns those maps:
`ext_groups` takes from it the two multipliers, evaluated at the action on
each chain group, and the number of columns of the Hom double complex.
Exactness of the resolution holds for every d | n because Z[t] is a domain,
and is verified mechanically on its regular-representation matrices.

The underived Hom from Z or Z_- is the slice on the +1 or -1 eigenlattice,
`SliceComplex.eigen`, which the sector pages of the spectral sequence share.

Rationally the group algebra is semisimple, so the computation reduces to
projecting the complex onto the Phi_d-isotypic summand and taking homology;
this side doubles as an independent check on the free ranks of the
integral answer.

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
                     cyclotomic, eval_group_ring, int_rank, isotypic_basis, project)
from .oracles import MAX_WINDOW, euler_phi
from .polynomials import BiPolynomial

# ---------------------------------------------------------------------------
# periodic resolutions


@dataclass
class PeriodicResolution:
    """Free resolution of Z[xi_d] over Z[t]/(t^n - 1), maps alternating."""

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

    def map_poly(self, k: int) -> list[int]:
        """Multiplier of the k-th map P_k -> P_{k-1} (k >= 1)."""
        return self.phi if k % 2 else self.cof

    def map_matrix(self, k: int) -> SparseIntMatrix:
        """The k-th map on the basis 1, t, ..., t^(n-1): t acts as the cyclic shift."""
        n = self.n
        return eval_group_ring(self.map_poly(k), [((e + 1) % n, 1) for e in range(n)], n)

    def augmentation(self) -> SparseIntMatrix:
        """P_0 = Z[t]/(t^n-1) onto Z[xi_d] = Z[t]/Phi_d, as a matrix."""
        phi = self.phi
        deg = len(phi) - 1
        m = SparseIntMatrix(deg, self.n)
        rem = [0] * deg
        rem[0] = 1  # t^0
        for j in range(self.n):
            for i, v in enumerate(rem):
                if v:
                    m.set(i, j, v)
            rem = _shift_mod(rem, phi)
        return m

    def verify(self) -> None:
        """Composition-to-zero and exactness at every inner stage."""
        a, b = self.map_matrix(1), self.map_matrix(2)
        if not a.matmul(b).is_zero() or not b.matmul(a).is_zero():
            raise InvariantError("consecutive resolution maps do not compose to zero")
        for first, second in ((a, b), (b, a)):
            mid = FreeComplex({0: self.n, 1: self.n, 2: self.n}, {0: first, 1: second})
            h = mid.homology()
            if h.get(1, (0, ()))[0] or h.get(1, (0, ()))[1]:
                raise InvariantError("resolution is not exact at an inner stage")
        aug = self.augmentation()
        top = FreeComplex({0: self.n, 1: self.n, 2: aug.nrows}, {0: a, 1: aug})
        h = top.homology()
        if h.get(1, (0, ()))[0] or h.get(1, (0, ()))[1]:
            raise InvariantError("resolution is not exact below the augmentation")


def _shift_mod(rem: list[int], phi: list[int]) -> list[int]:
    """Multiply a residue mod the monic polynomial phi by t."""
    deg = len(phi) - 1
    out = [0] * deg
    lead = rem[deg - 1]
    for i in range(deg - 1):
        out[i + 1] = rem[i]
    if lead:
        for i in range(deg):
            out[i] -= lead * phi[i]
    return out


def _check_divisor(n: int, d: int) -> None:
    """The cyclotomic index d must be a positive divisor of the order n."""
    if d < 1 or n % d:
        raise ValidationError(f"{d} does not divide the rotation order {n}")


def build_resolution(n: int, d: int, length: int) -> PeriodicResolution:
    res = PeriodicResolution(n, d, length)
    res.verify()
    return res


# ---------------------------------------------------------------------------
# equivariant unit-orbit reduction


@dataclass
class EquivariantSlice:
    """A j-slice after reduction: dims, differentials and the action."""

    dims: dict[int, int]
    diffs: dict[int, SparseIntMatrix]
    psi: dict[int, list[tuple[int, int]]]


def equivariant_reduce(sl: SliceComplex, n: int) -> EquivariantSlice:
    """Cancel free orbits over the group ring; the result is cached on sl.

    d is built on the orbit-lead columns only, and `OrbitCancellingComplex`
    cancels a pair of free orbits through a unit d[t][s] on a lead s when t
    is the only member of its orbit in column s.  Survivors are whole orbits
    of the slice, expanded back to the full basis, so its psi carries over.
    """
    cached = getattr(sl, "_eq_reduced", None)
    if cached is None:
        dims = {i: len(basis) for i, basis in sl.basis.items() if basis}
        psi = {i: sl.psi(i) for i in dims}
        red = OrbitCancellingComplex(dims, psi, n, sl.build_diff)
        red.reduce(red.free_pivot)
        dims, diffs, remap = red.export()
        out_psi = {}
        for i in dims:
            p, rm = psi[i], remap[i]
            out_psi[i] = [(rm[p[e][0]], p[e][1]) for e in rm]
        cached = sl._eq_reduced = EquivariantSlice(dims, diffs, out_psi)
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

    def same_groups(self, other: "EquivariantGroups", window: int | None = None) -> bool:
        w = min(self.window, other.window) if window is None else window
        keys = {k for k in self.groups if k[0] <= w} | {k for k in other.groups if k[0] <= w}
        return all(self.group(*k) == other.group(*k) for k in keys)

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
    phi, cof = res.map_poly(1), res.map_poly(2)
    cx = build_complex(diagram)
    out: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if not sl.basis:
            continue
        red = equivariant_reduce(sl, n)
        if not red.dims:
            continue
        horiz = {}
        for i, dim in red.dims.items():
            psi = red.psi[i]
            horiz[i] = (eval_group_ring(phi, psi, dim), eval_group_ring(cof, psi, dim))
        tot = _totalize(red, horiz, res.length, window + 1)
        hom = tot.homology()
        for m, grp in hom.items():
            if m <= window:
                out[(m, j)] = grp
    res = EquivariantGroups(n, d, window, {k: v for k, v in out.items() if v[0] or v[1]})
    res.detect_tail()
    return res


def _totalize(red: EquivariantSlice, horiz, cols: int, maxdeg: int) -> FreeComplex:
    """Total complex of the Hom double complex, columns 0..cols-1.

    Degrees above maxdeg are dropped; they cannot influence homology at or
    below maxdeg - 1.
    """
    qs = sorted(red.dims)
    offsets: dict[int, dict[int, int]] = {}
    dims: dict[int, int] = {}
    for q in qs:
        for p in range(cols):
            m = p + q
            if m > maxdeg:
                continue
            offsets.setdefault(m, {})[p] = dims.get(m, 0)
            dims[m] = dims.get(m, 0) + red.dims[q]
    diffs: dict[int, SparseIntMatrix] = {}
    for m in sorted(dims):
        if m + 1 not in dims:
            continue
        mat = SparseIntMatrix(dims[m + 1], dims[m])
        rows, mcols = mat.rows, mat.cols
        above = offsets.get(m + 1, {})
        for p, off in offsets[m].items():
            q = m - p
            # the vertical and horizontal images of block (p, q) lie in the
            # distinct blocks (p, q + 1) and (p + 1, q), so no entry is
            # written twice
            blocks = []
            vert = red.diffs.get(q)
            if vert is not None and p in above:
                blocks.append((vert, above[p], -1 if p % 2 else 1))
            if p + 1 in above:
                blocks.append((horiz[q][p % 2], above[p + 1], 1))
            for src, toff, sign in blocks:
                for r, row in src.rows.items():
                    r += toff
                    out = rows.get(r)
                    if out is None:
                        out = rows[r] = {}
                    for c, v in row.items():
                        c += off
                        out[c] = sign * v
                        col = mcols.get(c)
                        if col is None:
                            mcols[c] = {r}
                        else:
                            col.add(r)
        if mat.rows:
            diffs[m] = mat
    return FreeComplex(dims, diffs)


# ---------------------------------------------------------------------------
# plain Hom cohomology (underived)


def hom_cohomology(diagram: PeriodicDiagram, module: str = "trivial") -> GradedAbGroup:
    """Cohomology of the plain Hom complex from Z (trivial) or Z_- (sign).

    No derived functors: per degree this is the subgroup on which the
    generator acts by +1 (trivial) or -1 (sign), with the induced
    differential.  Depends on the chosen diagram, not just the link.
    """
    if module not in ("trivial", "sign"):
        raise ValidationError("module must be 'trivial' or 'sign'")
    d = 1 if module == "trivial" else 2  # the +1 or -1 eigenlattice
    if d == 2 and diagram.n % 2:
        raise ValidationError("the sign module needs even rotation order")
    cx = build_complex(diagram)
    out: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if not sl.basis:
            continue
        _, dims, diffs = sl.eigen(d)
        for i, grp in FreeComplex(dims, diffs).homology().items():
            out[(i, j)] = grp
    return GradedAbGroup.from_dict(out)


# ---------------------------------------------------------------------------
# rational isotypic homology


def rational_equivariant(diagram: PeriodicDiagram, d: int) -> dict:
    """Dimensions of the Phi_d-isotypic part of rational Khovanov homology.

    Returns {'dim_q': {(i, j): dim over Q}, 'dim_cyc': {(i, j): dim over the
    cyclotomic field}}; the former is always divisible by phi(d).
    """
    n = diagram.n
    _check_divisor(n, d)
    cx = build_complex(diagram)
    phi_d = euler_phi(d)
    dims: dict[tuple[int, int], int] = {}
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if not sl.basis:
            continue
        red = equivariant_reduce(sl, n)
        iso: dict[int, list[dict[int, int]]] = {}
        for i, dim in red.dims.items():
            iso[i] = isotypic_basis(red.psi[i], d)
        ranks: dict[int, int] = {}
        for i in red.dims:
            if not iso.get(i) or (i + 1) not in red.dims:
                ranks[i] = 0
                continue
            dmat = red.diffs.get(i)
            if dmat is None:
                ranks[i] = 0
                continue
            ranks[i] = int_rank(project(dmat, iso[i], red.dims[i + 1]))
        for i in red.dims:
            h = len(iso.get(i, ())) - ranks.get(i, 0) - ranks.get(i - 1, 0)
            if h:
                if h % phi_d:
                    raise InvariantError("isotypic dimension not divisible by phi(d)")
                dims[(i, j)] = h
    return {
        "dim_q": dims,
        "dim_cyc": {k: v // phi_d for k, v in dims.items()},
        "phi": phi_d,
    }


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
    classical = khovanov_homology(diagram, "Z").as_dict()
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
    classical = khovanov_homology(diagram, "Z").as_dict()
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
