"""Exact linear algebra over Z and arithmetic in Z[t]/(t^n - 1).

Sparse integer matrices with arbitrary-precision entries, the invariant
factors of their Smith normal form as a plain tuple (growth-aware pivoting;
every group is read off the factors, so no unimodular change of basis is
kept), and homology of finite free cochain complexes, each degree's group
as the pair (free rank, torsion factors): the Smith form of the complex as
given, which every engine first compresses by unit-pivot Gaussian
cancellation (`reduce_unit_pivots`, which preserves integral homology
exactly).  Smith form is the only elimination: it gives the groups and the
ranks, `int_rank` is its rank, and a rational answer is the free rank of an
integral group.

The group ring acts on a complex through a chain automorphism psi, a signed
permutation of each basis.  A ring element is a plain coefficient list in
ascending degree (`cyclotomic`, `cofactor`), and `eval_group_ring` gives its
matrix at psi; at the cyclic shift of 1, t, ..., t^(n-1) that is the regular
representation.  The cycles of psi are walked in one place, `orbits`, which
serves the isotypic bases and the orbit cancellation.  `isotypic_part` is
the one construction of an orbit's part of ker Phi_d and of its
coordinates, and `isotypic_complex` the one projection of a complex onto
its Phi_d-isotypic part, over Z, for every d | n.  `poly_divmod` divides by
a monic polynomial over Z, and `rational_idempotents` gives the central
idempotents of Q[t]/(t^n - 1) in closed form.  `factorize` is the engine's
one factorization of an integer, for the Moebius function here and the
prime-power checks of `equivariant`.

One Gaussian-cancellation step serves every engine.  `CancellingComplex`
holds its only copy: the Schur update from a pivot row, the removal of the
cancelled ids from the neighbouring differentials, and the renumbering
`export`.  A free orbit pair of a chain automorphism of order n is
cancelled over the group ring by taking that step n times, once per power
of the automorphism (`OrbitCancellingComplex`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvariantError

# ---------------------------------------------------------------------------
# sparse integer matrices


class SparseIntMatrix:
    """Sparse integer matrix: rows[r] maps column to nonzero value, and the
    column index cols[c] lists the rows of column c, each once, in no
    particular order."""

    __slots__ = ("nrows", "ncols", "rows", "cols")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, list[int]] = {}

    def get(self, r: int, c: int) -> int:
        return self.rows.get(r, {}).get(c, 0)

    def set(self, r: int, c: int, v: int) -> None:
        if v:
            row = self.rows.setdefault(r, {})
            if c not in row:
                self.cols.setdefault(c, []).append(r)
            row[c] = v
        else:
            self._drop(r, c)

    def add(self, r: int, c: int, v: int) -> None:
        if not v:
            return
        row = self.rows.setdefault(r, {})
        old = row.get(c)
        if old is None:
            row[c] = v
            self.cols.setdefault(c, []).append(r)
        elif old + v:
            row[c] += v
        else:
            self._drop(r, c)

    def _drop(self, r: int, c: int) -> None:
        row = self.rows.get(r)
        if row and c in row:
            del row[c]
            if not row:
                del self.rows[r]
            col = self.cols[c]
            col.remove(r)
            if not col:
                del self.cols[c]

    def entries(self):
        for r, row in self.rows.items():
            for c, v in row.items():
                yield r, c, v

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def copy(self) -> "SparseIntMatrix":
        m = SparseIntMatrix(self.nrows, self.ncols)
        m.rows = {r: dict(row) for r, row in self.rows.items()}
        m.cols = {c: col.copy() for c, col in self.cols.items()}
        return m


# ---------------------------------------------------------------------------
# Smith normal form


def _pick_pivot(m: SparseIntMatrix):
    """Pivot with minimal |value|, ties broken by minimal fill estimate."""
    best = None
    best_key = None
    for r, row in m.rows.items():
        rlen = len(row)
        for c, v in row.items():
            key = (abs(v), (rlen - 1) * (len(m.cols[c]) - 1))
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
                if key == (1, 0):
                    return best
    return best


def _row_op(m: SparseIntMatrix, dst: int, src: int, q: int):
    """row[dst] -= q * row[src]."""
    if not q:
        return
    for c, v in list(m.rows.get(src, {}).items()):
        m.add(dst, c, -q * v)


def _col_op(m: SparseIntMatrix, dst: int, src: int, q: int):
    """col[dst] -= q * col[src]."""
    if not q:
        return
    for r in list(m.cols.get(src, ())):
        m.add(r, dst, -q * m.rows[r][src])


def smith_normal_form(a: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors of the Smith normal form of an integer matrix.

    Returns d_1 | d_2 | ... (units included, zeros omitted); `a` itself is
    left unchanged.
    """
    m = a.copy()
    diag: list[int] = []
    while m.rows:
        r0, c0 = _pick_pivot(m)
        while True:
            p = m.rows[r0][c0]
            moved = False
            for r in list(m.cols.get(c0, ())):
                if r == r0:
                    continue
                v = m.rows[r][c0]
                _row_op(m, r, r0, v // p)
                if m.get(r, c0):
                    r0 = r  # remainder is smaller, becomes the pivot
                    moved = True
                    break
            if moved:
                continue
            for c in list(m.rows.get(r0, {}).keys()):
                if c == c0:
                    continue
                v = m.rows[r0][c]
                _col_op(m, c, c0, v // p)
                if m.get(r0, c):
                    c0 = c
                    moved = True
                    break
            if not moved:
                break
        diag.append(abs(m.rows[r0][c0]))
        m._drop(r0, c0)
    return tuple(_invariant_chain(diag))


def _invariant_chain(diag: list[int]) -> list[int]:
    d = sorted(x for x in diag if x)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
        d.sort()
    return d


def int_rank(a: SparseIntMatrix) -> int:
    """Rank over Q: the number of invariant factors of the Smith form."""
    return len(smith_normal_form(a))


# ---------------------------------------------------------------------------
# free cochain complexes


@dataclass
class FreeComplex:
    """Finite cochain complex of free Z-modules.

    dims[i] is the rank of the degree-i term; diffs[i] maps degree i to
    degree i+1.  Degrees without entries are zero.
    """

    dims: dict[int, int]
    diffs: dict[int, SparseIntMatrix]

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def check_composes(self) -> None:
        """Raise unless d_{i+1} o d_i = 0 for every i.

        The product is formed one row at a time and not kept: the check
        stops at the first row with a nonzero entry.
        """
        for i, d in self.diffs.items():
            nxt = self.diffs.get(i + 1)
            if nxt is None:
                continue
            drows = d.rows
            for row in nxt.rows.values():
                acc: dict[int, int] = {}
                for k, v in row.items():
                    drow = drows.get(k)
                    if drow:
                        for c, w in drow.items():
                            acc[c] = acc.get(c, 0) + v * w
                for v in acc.values():
                    if v:
                        raise InvariantError(f"d_{i+1} o d_{i} != 0")

    def diff(self, i: int) -> SparseIntMatrix:
        m = self.diffs.get(i)
        if m is None:
            m = SparseIntMatrix(self.dims.get(i + 1, 0), self.dims.get(i, 0))
        return m

    def homology(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        """Group H^i per degree as (free rank, torsion invariant factors).

        Read off the Smith form of each d_i of the complex as given, which
        is left unchanged; a large complex is passed through
        `reduce_unit_pivots` first.  Degrees whose group is zero are
        omitted; the rational homology is the free rank.
        """
        snf = {i: smith_normal_form(self.diff(i)) for i in self.degrees()}
        out: dict[int, tuple[int, tuple[int, ...]]] = {}
        for i in self.degrees():
            below = snf.get(i - 1, ())
            free = self.dims[i] - len(snf[i]) - len(below)
            torsion = tuple(f for f in below if f != 1)
            if free or torsion:
                out[i] = (free, torsion)
        return out


def reduce_unit_pivots(cx) -> FreeComplex:
    """Homotopy-equivalent compression by cancelling +-1 differential entries.

    Each cancellation removes an acyclic two-term direct summand, so integral
    homology (including torsion) is preserved exactly.  Units are cancelled
    one at a time, in rounds ordered by (Markowitz fill estimate, degree,
    row, column).

    `cx` is a `FreeComplex`, whose matrices are taken over and reduced in
    place in global rounds, so a caller that keeps it passes copies; or a
    complex with `dims` and `build_diff(i, keep)`, which builds d_i on the
    degree-i columns c with keep[c] set (a Khovanov slice).  Such a complex
    is swept in ascending degree: d_i is built on the degree-i generators
    still alive, those not cancelled as rows of d_{i-1}, with the kernel's
    flags `alive[i]` as keep, and reduced before d_{i+1} is built.  That is
    exact, because a cancellation in d_i deletes only rows of d_{i-1} and
    columns of d_{i+1}, so a reduced degree never gains a unit again; and
    only one unreduced differential is held at a time.
    """
    ranks = cx.dims
    if isinstance(cx, FreeComplex):
        red = CancellingComplex(ranks, cx.diffs)
        red.reduce()
    else:
        red = CancellingComplex(ranks, {})
        for i in sorted(ranks):
            if i + 1 in ranks:
                m = cx.build_diff(i, red.alive[i])
                if m.rows:
                    red.mats[i] = m
                    red.reduce()
    dims, diffs, _ = red.export()
    return FreeComplex({i: dims.get(i, 0) for i in ranks}, diffs)


def orbits(psi: list[tuple[int, int]]):
    """The cycles of a signed permutation (psi[e] = (image, sign)), by least id.

    Yields (ids, signs, sigma) per cycle: ids[0] is its least id, and
    psi^k(e_{ids[0]}) = signs[k] e_{ids[k]} for k < L = len(ids), so
    psi(ids[k]) = (ids[k+1], signs[k] * signs[k+1]); psi^L acts on the
    cycle as the sign sigma.
    """
    seen = bytearray(len(psi))
    for start in range(len(psi)):
        if seen[start]:
            continue
        ids, signs = [start], [1]
        nxt, a = psi[start]
        while nxt != start:
            ids.append(nxt)
            signs.append(a)
            nxt, s = psi[nxt]
            a *= s
        for e in ids:
            seen[e] = 1
        yield ids, signs, a


def project(d: SparseIntMatrix, gens: list[dict[int, int]], nrows: int,
            rows: dict[int, list[tuple[int, int]]]) -> SparseIntMatrix:
    """The matrix of d on the sparse vectors `gens`, one column per vector: an
    image's value at row r of d, times coef, adds to row k per (k, coef) in rows[r]."""
    out = SparseIntMatrix(nrows, len(gens))
    drows, dcols = d.rows, d.cols
    for col, vec in enumerate(gens):
        img: dict[int, int] = {}
        for k, a in vec.items():
            for r in dcols.get(k, ()):
                img[r] = img.get(r, 0) + a * drows[r][k]
        for r, v in img.items():
            if v:
                for row, coef in rows.get(r, ()):
                    out.add(row, col, coef * v)
    return out


def isotypic_part(orbs, d: int):
    """Integer basis of ker Phi_d on the given orbits of a signed permutation,
    and its coordinates: the one construction of an orbit's Phi_d-part.

    An orbit (ids, signs, sigma) of `orbits`, of length L, is Z[t]/(t^L -
    sigma): sum_k c_k t^k has the value c_k * signs[k] at ids[k].  Where Phi_d
    divides t^L - sigma, with the monic quotient h, the orbit's part is h Z[t]
    below degree L, with the basis h t^s, s < phi(d), each vector scaled to +1
    at its least id.  Returns (vectors, coords): coords[id] = [(k, coef)],
    possibly empty, for every id of such an orbit, from t^m div h at ids[m].
    The sum of coef * x[id] gives the coordinates of h (x div h): a projection
    of the orbit, exact on the lattice.  The quotients are computed once per
    (L, sigma).  At d = 1, 2 (the +1, -1 eigenlattices) each orbit's one
    vector is read at its last id in walk order, with coefficient +-1.
    """
    phi = cyclotomic(d)
    phi_d = len(phi) - 1
    tables: dict[tuple[int, int], tuple | None] = {}  # (L, sigma) -> (h, t^m div h by m)
    out: list[dict[int, int]] = []
    coords: dict[int, list[tuple[int, int]]] = {}
    for ids, signs, sigma in orbs:
        L = len(ids)
        key = (L, sigma)
        if key not in tables:
            h, rem = poly_divmod([-sigma] + [0] * (L - 1) + [1], phi)
            tables[key] = None if rem else (h, [poly_divmod([0] * m + [1], h)[0]
                                                for m in range(L)])
        table = tables[key]
        if table is None:
            continue
        h, quot = table
        base, scale = len(out), []
        for s in range(phi_d):
            vec = {ids[k + s]: c * signs[k + s] for k, c in enumerate(h) if c}
            scale.append(1 if vec[min(vec)] > 0 else -1)
            out.append(vec if scale[s] > 0 else {e: -c for e, c in vec.items()})
        for m, e in enumerate(ids):
            # an empty entry is the shared (), not a list per id of a whole slice
            coords[e] = [(base + s, scale[s] * c * signs[m])
                         for s, c in enumerate(quot[m]) if c] or ()
    return out, coords


def isotypic_complex(dims, psi, diff, d: int):
    """The Phi_d-isotypic part of a complex with a chain automorphism, over Z.

    psi(i) is the automorphism on degree i of `dims` as a signed
    permutation, and diff(i) is d_i or None, asked for only where both ends
    have a nonzero part.  Returns (gens, complex): gens[i] are the vectors of
    `isotypic_part(orbits(psi(i)), d)`, and the complex is d on them, in their
    coordinates.

    The degrees go up one at a time.  Degree i's coordinates are read only
    by d_{i-1}, so they are dropped once it is projected: no two degrees'
    coordinates, and no differential, are held while a basis is built.
    """
    gens, iso_dims, diffs = {}, {}, {}
    for i in sorted(dims):
        gens[i], coords = isotypic_part(orbits(psi(i)), d)
        if gens[i]:
            iso_dims[i] = len(gens[i])
            if i - 1 in iso_dims:
                m = diff(i - 1)
                if m is not None:
                    diffs[i - 1] = project(m, gens[i - 1], iso_dims[i], coords)
                del m
        del coords
    return gens, FreeComplex(iso_dims, diffs)


class CancellingComplex:
    """A cochain complex under Gaussian cancellation (algebraic Morse theory).

    Takes ownership of the matrices it is given and updates them in place.
    Basis elements keep their original ids until `export`; `alive[i]` is a
    bytearray of flags, one per degree-i id and 1 while it is not cancelled,
    and `mats[i]` is the nonzero d_i on the ids alive.  An engine may bring
    a rule, yes or no per unit entry, for which ones to cancel; `reduce`
    offers them in rounds ordered by (Markowitz fill estimate, degree, row,
    column).

    A cancellation through d_i[t][s] is two steps: `_schur` updates d_i,
    and `_drop` retires s and t from d_{i-1}, d_{i+1} and `alive`.  These
    and `export` are the whole kernel; the group-ring subclass runs them
    once per power of its automorphism.
    """

    def __init__(self, dims: dict[int, int], mats: dict[int, SparseIntMatrix]):
        self.alive: dict[int, bytearray] = {i: bytearray(b"\x01") * n for i, n in dims.items()}
        self.mats = {i: m for i, m in mats.items() if m.rows}

    def cancel(self, i: int, t: int, s: int) -> None:
        """Cancel the unit entry d_i[t][s]; t in degree i+1, s in degree i."""
        self._schur(i, t, s)
        self._drop(i, s, t)

    def _schur(self, i: int, t: int, s: int) -> None:
        """The Schur complement step on d_i through its unit lam = d_i[t][s].

        Row t and column s leave d_i, and every other row r of column s
        gains -lam * d_i[r][s] * (row t).  Rows keep their keys' order: an
        update changes entries in place and appends fill-in in the order of
        row t.  No row is created, so the order in which a column's rows are
        visited reaches no result.

        The rows leave the columns of row t after the update, one pass per
        column: one update can cancel thousands of entries of one dense
        column (`kh t8_2`), and a removal each would scan it that often.
        """
        m = self.mats[i]
        rows, cols = m.rows, m.cols
        prow = rows[t]
        lam = prow[s]
        if lam != 1 and lam != -1:
            raise InvariantError(f"cancelling a non-unit entry {lam}")
        del rows[t]
        del prow[s]
        # lam in {1,-1} so 1/lam == lam; t is in the column of every c in
        # row t until the end, so no such column empties before then
        gone = None  # column -> t and the rows whose entry there cancelled
        for r in cols.pop(s):
            if r == t:
                continue
            row = rows[r]
            coeff = -lam * row.pop(s)
            for c, b in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = coeff * b
                    cols[c].append(r)
                else:
                    new = old + coeff * b
                    if new:
                        row[c] = new
                    else:
                        del row[c]
                        if gone is None:
                            gone = {}
                        gone.setdefault(c, {t}).add(r)
            if not row:
                del rows[r]
        for c in prow:
            col = cols[c]
            out = gone.get(c) if gone is not None else None
            if out is None:
                col.remove(t)
            else:
                col[:] = [r for r in col if r not in out]
            if not col:
                del cols[c]
        if not rows:
            del self.mats[i]

    def _drop(self, i: int, s: int, t: int) -> None:
        """Retire s (degree i) and t (degree i+1) after a cancellation in d_i.

        Row s leaves d_{i-1}, column t leaves d_{i+1} if it is stored there,
        both leave `alive`, and a differential left empty is deleted.
        """
        mats = self.mats
        below = mats.get(i - 1)
        if below is not None:
            brow = below.rows.pop(s, None)
            if brow is not None:
                bcols = below.cols
                for c in brow:
                    col = bcols[c]
                    col.remove(s)
                    if not col:
                        del bcols[c]
                if not below.rows:
                    del mats[i - 1]
        above = mats.get(i + 1)
        if above is not None:
            acol = above.cols.pop(t, None)
            if acol is not None:
                arows = above.rows
                for r in acol:
                    row = arows[r]
                    del row[t]
                    if not row:
                        del arows[r]
                if not arows:
                    del mats[i + 1]
        self.alive[i][s] = 0
        self.alive[i + 1][t] = 0

    def reduce(self, rule=None) -> None:
        """Cancel in rounds until a round cancels nothing.

        A round lists every unit entry in the order (Markowitz fill estimate,
        degree, row, column), least first, and each one still a unit is
        cancelled if `rule(i, t, s)` is true, or always without a rule.  A
        candidate is one int packing those four keys with bit widths taken
        from the round's matrices, so a plain int sort gives that order.
        """
        mats = self.mats
        while mats:
            lo = min(mats)
            sbits = max(m.ncols for m in mats.values()).bit_length()
            tbits = max(m.nrows for m in mats.values()).bit_length()
            ibits = (max(mats) - lo).bit_length()
            ishift = sbits + tbits
            fshift = ishift + ibits
            smask, tmask, imask = (1 << sbits) - 1, (1 << tbits) - 1, (1 << ibits) - 1
            batch = []
            append = batch.append
            for i, m in mats.items():
                cols = m.cols
                base = (i - lo) << ishift
                wide = self._row_fill(i, m)
                for t, row in m.rows.items():
                    rl = len(row) - 1 if wide is None else wide.get(t)
                    if rl is None:
                        continue
                    key = base | (t << sbits)
                    for s, v in row.items():
                        if v == 1 or v == -1:
                            append((rl * (len(cols[s]) - 1) << fshift) | key | s)
            batch.sort()
            progress = False
            for key in batch:
                i = ((key >> ishift) & imask) + lo
                t = (key >> sbits) & tmask
                s = key & smask
                m = mats.get(i)
                if m is None:
                    continue
                row = m.rows.get(t)
                if row is None:
                    continue
                v = row.get(s)
                if v != 1 and v != -1:
                    continue
                if rule is not None and not rule(i, t, s):
                    continue
                self.cancel(i, t, s)
                progress = True
            if not progress:
                return

    def _row_fill(self, i: int, m: SparseIntMatrix):
        """Row t's length less one, for the fill estimate of d_i's entries.

        None means each row's own length; a rule that reads rows differently
        returns a dict, and the rows it leaves out give no candidates.
        """
        return None

    def export(self):
        """(dims, diffs, remap) on the surviving basis, renumbered in order.

        dims omits degrees with nothing left; remap[i] sends each surviving
        original id of degree i to its new index.
        """
        remap = {i: {e: k for k, e in enumerate(e for e, a in enumerate(flags) if a)}
                 for i, flags in self.alive.items()}
        dims = {i: len(rm) for i, rm in remap.items() if rm}
        diffs: dict[int, SparseIntMatrix] = {}
        for i, m in self.mats.items():
            out = SparseIntMatrix(dims.get(i + 1, 0), dims.get(i, 0))
            tgt, src = remap[i + 1], remap[i]
            for r, c, v in m.entries():
                out.set(tgt[r], src[c], v)
            diffs[i] = out
        return dims, diffs, remap


class OrbitCancellingComplex(CancellingComplex):
    """Gaussian cancellation over the group ring, on orbit-lead columns.

    The complex carries a chain automorphism psi of order n, a signed
    permutation of each basis (psi[i][e] = (image, sign)).  The lead of an
    orbit is its least id, and `mats[i]` holds d_i on the lead columns of
    degree i only, with every row: column psi^k(s) is psi^k applied to
    column s, so it is not stored.  The build is `build(i, keep)`, with
    keep[e] = 1 on the leads of degree i and 0 elsewhere.

    A unit d_i[t][s] on a lead s is a group-ring pivot when the orbits of s
    and t are free and t is the only member of its orbit in column s: the
    quotient entry sum_k d[psi^k t][s] t^k is then a signed monomial.
    Cancelling it removes both orbits whole, which is the n unit pivots
    (psi^k t, psi^k s) of the full basis taken together (equivariant
    discrete Morse theory).  Orbits that are not free are never cancelled,
    so the survivors are whole orbits and psi still permutes them.  With
    n = 1 and the identity action this is the unit kernel, step for step.
    """

    def __init__(self, dims: dict[int, int], psi: dict[int, list[tuple[int, int]]],
                 n: int, build):
        self.psi, self.n = psi, n
        self.lead: dict[int, list[int]] = {}            # id -> lead of its orbit
        self.orbit: dict[int, dict[int, list[int]]] = {}  # lead -> psi^k(lead) ids
        for i, p in psi.items():
            lead = [0] * len(p)
            orbit = {}
            for ids, _, _ in orbits(p):
                for e in ids:
                    lead[e] = ids[0]
                orbit[ids[0]] = ids
            self.lead[i], self.orbit[i] = lead, orbit
        # the build's mask flags the ids that are their own orbit's lead
        super().__init__(dims, {i: build(i, bytearray(a == e for e, a in enumerate(self.lead[i])))
                                for i in dims if i + 1 in dims})

    def free_pivot(self, i: int, t: int, s: int) -> bool:
        """The rule for `reduce`: whether (t, s) is a group-ring pivot."""
        n = self.n
        if len(self.orbit[i][s]) != n:
            return False
        lead = self.lead[i + 1]
        a = lead[t]
        if len(self.orbit[i + 1][a]) != n:
            return False
        for r in self.mats[i].cols[s]:
            if r != t and lead[r] == a:
                return False
        return True

    def _row_fill(self, i: int, m: SparseIntMatrix):
        """Orbit-wide lengths: sum_k |row psi^k t| on the lead columns.

        That is row t's length on the full basis when every column orbit is
        free.  Only rows of free orbits are listed; no other row can pivot.
        """
        lead, orbit, n = self.lead[i + 1], self.orbit[i + 1], self.n
        rows = m.rows
        total: dict[int, int] = {}
        for t, row in rows.items():
            a = lead[t]
            total[a] = total.get(a, 0) + len(row)
        return {t: total[lead[t]] - 1 for t in rows if len(orbit[lead[t]]) == n}

    def cancel(self, i: int, t: int, s: int) -> None:
        """Cancel the orbits of t and of the lead s through the unit d_i[t][s].

        The pivots (psi^k t, psi^k s) form a diagonal block, so they are
        cancelled one after another by the unit kernel's steps, and no step
        changes the pivot columns of the others.  Column psi^k s is not
        stored, so it is first written in as psi^k of column s: that is the
        column up to a sign, which does not change the Schur step.  A row
        psi^k t that is zero on the lead columns leaves nothing to update.
        """
        m = self.mats[i]
        rows, cols = m.rows, m.cols
        col = [(r, rows[r][s]) for r in cols[s]]
        super().cancel(i, t, s)
        psi_t, psi_s = self.psi[i + 1], self.psi[i]
        for _ in range(1, self.n):
            t, s = psi_t[t][0], psi_s[s][0]
            col = [(psi_t[r][0], psi_t[r][1] * y) for r, y in col]
            if t in rows:
                for r, y in col:
                    row = rows.get(r)
                    if row is None:
                        rows[r] = {s: y}
                    else:
                        row[s] = y
                cols[s] = [r for r, _ in col]
                self._schur(i, t, s)
            self._drop(i, s, t)

    def export(self):
        """As `CancellingComplex.export`, with every orbit's columns filled in.

        Member psi^k(lead) = a_k e_k of a surviving orbit has the column
        a_k psi^k(d lead); it is written into `mats` on the original ids
        before the renumbering.
        """
        for i, m in self.mats.items():
            rows, cols = m.rows, m.cols
            psi_t, psi_s = self.psi[i + 1], self.psi[i]
            for lead in list(cols):
                vec = [(r, rows[r][lead]) for r in cols[lead]]
                cur, a = lead, 1
                for _ in range(len(self.orbit[i][lead]) - 1):
                    vec = [(psi_t[r][0], psi_t[r][1] * v) for r, v in vec]
                    cur, sg = psi_s[cur]
                    a *= sg
                    for r, v in vec:
                        row = rows.get(r)
                        if row is None:
                            rows[r] = {cur: a * v}
                        else:
                            row[cur] = a * v
                    cols[cur] = [r for r, _ in vec]
        return super().export()


# ---------------------------------------------------------------------------
# polynomials over Z, cyclotomic factors, group-ring elements


def poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the monic b in Z[t], both trimmed."""
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(a)
    while r and r[-1] == 0:
        r.pop()
    nb = len(b) - 1
    q = [0] * max(0, len(r) - nb)
    for k in range(len(q) - 1, -1, -1):
        coef = r[k + nb]
        if coef:
            q[k] = coef
            for i in range(nb + 1):
                r[k + i] -= coef * b[i]
    while q and q[-1] == 0:
        q.pop()
    del r[nb:]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def poly_divmod_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b in Z[t] for monic b; raises if the division is not exact."""
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("division not exact")
    return q


def cyclotomic(d: int) -> list[int]:
    """Coefficients of the d-th cyclotomic polynomial, ascending degree."""
    if d < 1:
        raise ValueError("d must be positive")
    num = [-1] + [0] * (d - 1) + [1]  # t^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = poly_divmod_exact(num, cyclotomic(e))
    return num


def cofactor(d: int, n: int) -> list[int]:
    """(t^n - 1) / Phi_d(t), requires d | n."""
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    tn1 = [-1] + [0] * (n - 1) + [1]
    return poly_divmod_exact(tn1, cyclotomic(d))


def rational_idempotents(n: int) -> dict[int, tuple[Fraction, ...]]:
    """Central idempotents e_d of Q[t]/(t^n-1), one per divisor d of n.

    e_d acts as the identity on the component cut out by Phi_d and kills the
    others.  In closed form e_d = (1/n) sum_k c_d(k) t^k, where
    c_d(k) = sum_{e | gcd(d, k)} mu(d/e) e is Ramanujan's sum: the trace of
    xi^k over the primitive d-th roots of unity xi.
    """
    out: dict[int, tuple[Fraction, ...]] = {}
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    mobius = {}
    for d in divisors:
        exps = factorize(d).values()
        mobius[d] = 0 if any(e > 1 for e in exps) else (-1) ** len(exps)
    for d in divisors:
        ramanujan = {g: sum(mobius[d // e] * e for e in range(1, g + 1) if g % e == 0)
                     for g in divisors if d % g == 0}
        out[d] = tuple(Fraction(ramanujan[gcd(d, k)], n) for k in range(n))
    return out


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1 by trial division, primes ascending."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def eval_group_ring(poly: list[int], perm_block, dim: int) -> SparseIntMatrix:
    """f(psi) on one graded block, for psi a signed permutation.

    perm_block[k] = (image index, sign).  The polynomial is reduced mod
    t^n - 1 by the caller if needed; powers are taken directly here.
    """
    m = SparseIntMatrix(dim, dim)
    cur = [(k, 1) for k in range(dim)]  # psi^0
    for a in poly:
        if a:
            for src in range(dim):
                tgt, sg = cur[src]
                m.add(tgt, src, a * sg)
        cur = [(perm_block[t][0], s * perm_block[t][1]) for (t, s) in cur]
    return m
