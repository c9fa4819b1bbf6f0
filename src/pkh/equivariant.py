"""Equivariant Khovanov homology of periodic diagrams.

Integrally, the triply graded groups are hyper-Ext of the cyclotomic module
Z[xi_d] into the Khovanov complex over Z[t]/(t^n - 1), computed from the
two-periodic resolution whose maps alternate between multiplication by
Phi_d(t) and by (t^n - 1)/Phi_d(t).  Exactness of that resolution holds for
every d | n because Z[t] is a domain, and is verified mechanically.

Rationally the group algebra is semisimple, so the computation reduces to
projecting the complex onto the Phi_d-isotypic summand and taking homology;
this side doubles as an independent check on the free ranks of the
integral answer.

For speed, the complex is first compressed by an equivariant variant of
unit-pivot Gaussian cancellation: only whole free rotation orbits of basis
elements are cancelled, against unit differential entries that touch a
single member of the target orbit.  The cancelled span is an acyclic free
module summand and a subcomplex, so the quotient is a complex of free
modules with the same hyper-Ext, and the generator still acts on the
surviving basis by a signed permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import GradedAbGroup, SliceComplex, build_complex, khovanov_homology
from .diagram import PeriodicDiagram
from .errors import InvariantError, ValidationError
from .homalg import (FreeComplex, GroupRingElt, SparseIntMatrix, cofactor,
                     cyclotomic, eval_group_ring, int_rank, poly_divmod_exact)
from .oracles import euler_phi
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
        if self.n % self.d:
            raise ValidationError(f"{self.d} does not divide {self.n}")
        if self.length < 1:
            raise ValidationError("length must be >= 1")
        self.phi = cyclotomic(self.d)
        self.cof = cofactor(self.d, self.n)

    def map_poly(self, k: int) -> list[int]:
        """Multiplier of the k-th map P_k -> P_{k-1} (k >= 1)."""
        return self.phi if k % 2 else self.cof

    def map_matrix(self, k: int) -> SparseIntMatrix:
        return GroupRingElt.from_poly(self.n, self.map_poly(k)).mult_matrix()

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


class _EqReducer:
    def __init__(self, sl: SliceComplex, n: int):
        self.n = n
        self.alive: dict[int, set[int]] = {}
        self.mats: dict[int, SparseIntMatrix] = {}
        self.psi: dict[int, dict[int, tuple[int, int]]] = {}
        for i, basis in sl.basis.items():
            if not basis:
                continue
            self.alive[i] = set(range(len(basis)))
            self.psi[i] = {k: v for k, v in enumerate(sl.psi(i))}
            if sl.dim(i + 1):
                d = sl.diff(i)
                if not d.is_zero():
                    self.mats[i] = d.copy()

    def orbit(self, i: int, e: int) -> list[int]:
        psi = self.psi[i]
        out = [e]
        cur = psi[e][0]
        while cur != e:
            out.append(cur)
            cur = psi[cur][0]
        return out

    def reduce(self) -> None:
        n = self.n
        while True:
            batch = []
            for i, m in self.mats.items():
                cols = m.cols
                for t, row in m.rows.items():
                    rl = len(row)
                    for s, v in row.items():
                        if v == 1 or v == -1:
                            batch.append(((rl - 1) * (len(cols[s]) - 1), i, t, s))
            if not batch:
                return
            batch.sort()
            progress = False
            for _, i, t, s in batch:
                m = self.mats.get(i)
                if m is None or m.get(t, s) not in (1, -1) or s not in self.psi[i]:
                    continue
                if t not in self.psi[i + 1]:
                    continue
                orb_s = self.orbit(i, s)
                if len(orb_s) != n:
                    continue
                orb_t = self.orbit(i + 1, t)
                if len(orb_t) != n:
                    continue
                if any(m.get(t2, s) for t2 in orb_t if t2 != t):
                    continue
                if any(m.get(t2, s2) not in (1, -1)
                       for t2, s2 in zip(orb_t, orb_s)):
                    continue
                self._cancel_orbit(i, orb_t, orb_s)
                progress = True
            if not progress:
                return

    def _cancel_orbit(self, i: int, orb_t: list[int], orb_s: list[int]) -> None:
        m = self.mats[i]
        rows, cols = m.rows, m.cols
        for t, s in zip(orb_t, orb_s):
            lam = m.get(t, s)
            assert lam in (1, -1)
            prow = [(c, b) for c, b in rows[t].items() if c != s]
            pcol = [(r, rows[r][s]) for r in cols.get(s, ()) if r != t]
            for r, a in pcol:
                coeff = a * lam
                row = rows.setdefault(r, {})
                for c, b in prow:
                    new = row.get(c, 0) - coeff * b
                    if new:
                        row[c] = new
                        cols.setdefault(c, set()).add(r)
                    elif c in row:
                        del row[c]
                        col = cols[c]
                        col.discard(r)
                        if not col:
                            del cols[c]
                if not row:
                    del rows[r]
            for c, _ in prow:
                m._drop(t, c)
            for r in list(cols.get(s, ())):
                m._drop(r, s)
            below = self.mats.get(i - 1)
            if below is not None:
                for c in list(below.rows.get(s, {})):
                    below._drop(s, c)
            above = self.mats.get(i + 1)
            if above is not None:
                for r in list(above.cols.get(t, set())):
                    above._drop(r, t)
        for s in orb_s:
            self.alive[i].discard(s)
            del self.psi[i][s]
        for t in orb_t:
            self.alive[i + 1].discard(t)
            del self.psi[i + 1][t]
        if i in self.mats and self.mats[i].is_zero():
            del self.mats[i]
        for k in (i - 1, i + 1):
            if k in self.mats and self.mats[k].is_zero():
                del self.mats[k]

    def export(self) -> EquivariantSlice:
        remap = {i: {e: k for k, e in enumerate(sorted(s))} for i, s in self.alive.items()}
        dims = {i: len(s) for i, s in self.alive.items() if s}
        diffs: dict[int, SparseIntMatrix] = {}
        for i, m in self.mats.items():
            out = SparseIntMatrix(dims.get(i + 1, 0), dims.get(i, 0))
            for r, c, v in m.entries():
                out.set(remap[i + 1][r], remap[i][c], v)
            if not out.is_zero():
                diffs[i] = out
        psi: dict[int, list[tuple[int, int]]] = {}
        for i, table in self.psi.items():
            if not self.alive.get(i):
                continue
            rm = remap[i]
            lst = [(0, 1)] * len(rm)
            for e, (img, sg) in table.items():
                lst[rm[e]] = (rm[img], sg)
            psi[i] = lst
        return EquivariantSlice(dims, diffs, psi)


def equivariant_reduce(sl: SliceComplex, n: int) -> EquivariantSlice:
    cached = getattr(sl, "_eq_reduced", None)
    if cached is None:
        red = _EqReducer(sl, n)
        sl.release_diffs()  # the reducer works on its own copies
        red.reduce()
        cached = red.export()
        sl._eq_reduced = cached
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
    if n % d:
        raise ValidationError(f"{d} does not divide the rotation order {n}")
    if window is None:
        window = 2 * diagram.ncross + 6
    if window < 0:
        raise ValidationError("window must be non-negative")
    cx = build_complex(diagram)
    cols = window + diagram.n_minus + 2  # columns 0..cols-1
    phi = GroupRingElt.from_poly(n, cyclotomic(d)).coeffs
    cof = GroupRingElt.from_poly(n, cofactor(d, n)).coeffs
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
            horiz[i] = (eval_group_ring(list(phi), psi, dim),
                        eval_group_ring(list(cof), psi, dim))
        tot = _totalize(red, horiz, cols, window + 1)
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
        for p, off in offsets[m].items():
            q = m - p
            vert = red.diffs.get(q)
            if vert is not None and p in offsets.get(m + 1, {}):
                toff = offsets[m + 1][p]
                sign = -1 if p % 2 else 1
                for r, c, v in vert.entries():
                    mat.add(toff + r, off + c, sign * v)
            if p + 1 < cols and (p + 1) in offsets.get(m + 1, {}):
                h = horiz[q][0] if p % 2 == 0 else horiz[q][1]
                toff = offsets[m + 1][p + 1]
                for r, c, v in h.entries():
                    mat.add(toff + r, off + c, v)
        if not mat.is_zero():
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
    eps = 1 if module == "trivial" else -1
    if eps == -1 and diagram.n % 2:
        raise ValidationError("the sign module needs even rotation order")
    cx = build_complex(diagram)
    out: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if not sl.basis:
            continue
        bases: dict[int, list[dict[int, int]]] = {}
        reps: dict[int, dict[int, int]] = {}  # orbit rep index -> generator col
        for i in sorted(sl.basis):
            gens, repmap = _eigen_basis(sl.psi(i), eps)
            bases[i] = gens
            reps[i] = repmap
        dims = {i: len(g) for i, g in bases.items() if g}
        diffs: dict[int, SparseIntMatrix] = {}
        for i in dims:
            if i + 1 not in dims:
                continue
            d = sl.diff(i)
            mat = SparseIntMatrix(dims[i + 1], dims[i])
            for col, vec in enumerate(bases[i]):
                img: dict[int, int] = {}
                for k, a in vec.items():
                    for r in d.cols.get(k, ()):
                        img[r] = img.get(r, 0) + a * d.rows[r][k]
                for r, v in img.items():
                    if v and r in reps[i + 1]:
                        mat.add(reps[i + 1][r], col, v)
            if not mat.is_zero():
                diffs[i] = mat
        hom = FreeComplex(dims, diffs).homology()
        for i, grp in hom.items():
            out[(i, j)] = grp
    return GradedAbGroup.from_dict(out)


def _eigen_basis(psi: list[tuple[int, int]], eps: int):
    """Integral basis of the eps-eigenlattice of a signed permutation.

    Each qualifying orbit contributes one generator with +-1 coefficients.
    Returns (generators as sparse dicts, map orbit-representative -> column).
    """
    seen = [False] * len(psi)
    gens: list[dict[int, int]] = []
    repmap: dict[int, int] = {}
    for start in range(len(psi)):
        if seen[start]:
            continue
        coeffs = {start: 1}
        order = [start]
        cur, a, sigma = start, 1, 1
        while True:
            nxt, s = psi[cur]
            sigma *= s
            if nxt == start:
                break
            a = a * s * eps
            coeffs[nxt] = a
            order.append(nxt)
            cur = nxt
        for k in order:
            seen[k] = True
        if sigma * (eps ** len(order)) == 1:
            repmap[start] = len(gens)
            gens.append(coeffs)
    return gens, repmap


# ---------------------------------------------------------------------------
# rational isotypic homology


def rational_equivariant(diagram: PeriodicDiagram, d: int) -> dict:
    """Dimensions of the Phi_d-isotypic part of rational Khovanov homology.

    Returns {'dim_q': {(i, j): dim over Q}, 'dim_cyc': {(i, j): dim over the
    cyclotomic field}}; the former is always divisible by phi(d).
    """
    n = diagram.n
    if n % d:
        raise ValidationError(f"{d} does not divide the rotation order {n}")
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
            iso[i] = _isotypic_basis(red.psi[i], d)
        ranks: dict[int, int] = {}
        for i in red.dims:
            if not iso.get(i) or (i + 1) not in red.dims:
                ranks[i] = 0
                continue
            dmat = red.diffs.get(i)
            if dmat is None:
                ranks[i] = 0
                continue
            cols = SparseIntMatrix(red.dims[i + 1], len(iso[i]))
            for c, vec in enumerate(iso[i]):
                for k, a in vec.items():
                    for r in dmat.cols.get(k, ()):
                        cols.add(r, c, a * dmat.rows[r][k])
            ranks[i] = int_rank(cols)
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


def _isotypic_basis(psi: list[tuple[int, int]], d: int) -> list[dict[int, int]]:
    """Integer basis of the Phi_d-isotypic subspace of a signed permutation."""
    out: list[dict[int, int]] = []
    seen = [False] * len(psi)
    phi_d = euler_phi(d)
    for start in range(len(psi)):
        if seen[start]:
            continue
        elems = [start]
        signs = [1]
        cur, a = start, 1
        while True:
            nxt, s = psi[cur]
            a *= s
            if nxt == start:
                sigma = a
                break
            elems.append(nxt)
            signs.append(a)
            cur = nxt
        for k in elems:
            seen[k] = True
        L = len(elems)
        if sigma == 1:
            # Phi_d divides t^L - 1 iff d | L
            if L % d:
                continue
            h = cofactor(d, L)
        else:
            # Phi_d divides t^L + 1 iff d | 2L and d does not divide L
            if (2 * L) % d or L % d == 0:
                continue
            tl_plus_1 = [1] + [0] * (L - 1) + [1]
            h = poly_divmod_exact(tl_plus_1, cyclotomic(d))
        for shift in range(phi_d):
            vec: dict[int, int] = {}
            for k, coef in enumerate(h):
                if coef:
                    pos = (k + shift) % L
                    wrap = (k + shift) // L
                    val = coef * signs[pos] * (sigma ** wrap)
                    vec[elems[pos]] = vec.get(elems[pos], 0) + val
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                out.append(vec)
    return out


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
