"""Exact linear algebra over Z and arithmetic in Z[t]/(t^n - 1).

Sparse integer matrices with arbitrary-precision entries, Smith normal form
with growth-aware pivoting, homology of finite free cochain complexes
(compressed first by unit-pivot Gaussian cancellation, which preserves
integral homology exactly), and group-ring utilities: cyclotomic factors of
t^n - 1, rational idempotents, and evaluation of ring elements on a chain
automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvariantError, ValidationError

# ---------------------------------------------------------------------------
# sparse integer matrices


class SparseIntMatrix:
    """Sparse integer matrix, row-major with a column occupancy index."""

    __slots__ = ("nrows", "ncols", "rows", "cols")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}

    @classmethod
    def from_entries(cls, nrows, ncols, entries) -> "SparseIntMatrix":
        m = cls(nrows, ncols)
        for r, c, v in entries:
            m.add(r, c, v)
        return m

    @classmethod
    def from_dense(cls, dense: list[list[int]]) -> "SparseIntMatrix":
        m = cls(len(dense), len(dense[0]) if dense else 0)
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                if v:
                    m.set(r, c, v)
        return m

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for r, row in self.rows.items():
            for c, v in row.items():
                out[r][c] = v
        return out

    def get(self, r: int, c: int) -> int:
        return self.rows.get(r, {}).get(c, 0)

    def set(self, r: int, c: int, v: int) -> None:
        if v:
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, set()).add(r)
        else:
            self._drop(r, c)

    def add(self, r: int, c: int, v: int) -> None:
        if not v:
            return
        row = self.rows.setdefault(r, {})
        new = row.get(c, 0) + v
        if new:
            row[c] = new
            self.cols.setdefault(c, set()).add(r)
        else:
            del row[c]
            if not row:
                del self.rows[r]
            col = self.cols[c]
            col.discard(r)
            if not col:
                del self.cols[c]

    def _drop(self, r: int, c: int) -> None:
        row = self.rows.get(r)
        if row and c in row:
            del row[c]
            if not row:
                del self.rows[r]
            col = self.cols[c]
            col.discard(r)
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
        m.cols = {c: set(col) for c, col in self.cols.items()}
        return m

    def transpose(self) -> "SparseIntMatrix":
        m = SparseIntMatrix(self.ncols, self.nrows)
        for r, c, v in self.entries():
            m.set(c, r, v)
        return m

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.nrows, other.ncols)
        for r, row in self.rows.items():
            acc: dict[int, int] = {}
            for k, v in row.items():
                orow = other.rows.get(k)
                if orow:
                    for c, w in orow.items():
                        acc[c] = acc.get(c, 0) + v * w
            for c, v in acc.items():
                if v:
                    out.set(r, c, v)
        return out

    def apply(self, vec: dict[int, int]) -> dict[int, int]:
        """Matrix times sparse column vector."""
        out: dict[int, int] = {}
        for c, v in vec.items():
            for r in self.cols.get(c, ()):
                out[r] = out.get(r, 0) + self.rows[r][c] * v
        return {r: v for r, v in out.items() if v}


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SmithForm:
    """Diagonal d_1 | d_2 | ... of an integer matrix, with optional U, V."""

    factors: tuple[int, ...]
    U: list[list[int]] | None = None
    V: list[list[int]] | None = None

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def nonunit(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d != 1)


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


def _row_op(m: SparseIntMatrix, dst: int, src: int, q: int, U=None):
    """row[dst] -= q * row[src]; mirrored on U when tracking transforms."""
    if not q:
        return
    for c, v in list(m.rows.get(src, {}).items()):
        m.add(dst, c, -q * v)
    if U is not None:
        for j in range(len(U[src])):
            U[dst][j] -= q * U[src][j]


def _col_op(m: SparseIntMatrix, dst: int, src: int, q: int, V=None):
    """col[dst] -= q * col[src]; mirrored on V."""
    if not q:
        return
    for r in list(m.cols.get(src, ())):
        m.add(r, dst, -q * m.rows[r][src])
    if V is not None:
        for i in range(len(V)):
            V[i][dst] -= q * V[i][src]


def smith_normal_form(a: SparseIntMatrix, transforms: bool = False) -> SmithForm:
    """Smith normal form of an integer matrix.

    Returns the invariant factors d_1 | d_2 | ... (units included, zeros
    omitted).  With transforms=True also returns unimodular U, V with
    U a V = diag(factors), padded with zero rows/columns.
    """
    m = a.copy()
    U = [[int(i == j) for j in range(a.nrows)] for i in range(a.nrows)] if transforms else None
    V = [[int(i == j) for j in range(a.ncols)] for i in range(a.ncols)] if transforms else None
    diag: list[int] = []
    order: list[tuple[int, int]] = []
    while m.rows:
        r0, c0 = _pick_pivot(m)
        while True:
            p = m.rows[r0][c0]
            moved = False
            for r in list(m.cols.get(c0, ())):
                if r == r0:
                    continue
                v = m.rows[r][c0]
                _row_op(m, r, r0, v // p, U)
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
                _col_op(m, c, c0, v // p, V)
                if m.get(r0, c):
                    c0 = c
                    moved = True
                    break
            if not moved:
                break
        p = m.rows[r0][c0]
        if p < 0 and U is not None:
            for j in range(len(U[r0])):
                U[r0][j] = -U[r0][j]
        diag.append(abs(p))
        order.append((r0, c0))
        m._drop(r0, c0)
    factors = _invariant_chain(diag)
    if not transforms:
        return SmithForm(tuple(factors))
    # Reorder so U a V has the diagonal in factor order, then fix the
    # divisibility chain with explicit 2x2 moves.
    U2, V2 = _permute_to_front(U, V, order, a.nrows, a.ncols)
    _enforce_chain(U2, V2, a)
    d = _apply(U2, a, V2)
    facs = tuple(d[i][i] for i in range(min(a.nrows, a.ncols)) if i < len(diag) and d[i][i])
    return SmithForm(facs, U2, V2)


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


def _permute_to_front(U, V, order, nr, nc):
    rperm = [r for r, _ in order] + [r for r in range(nr) if r not in {r for r, _ in order}]
    cperm = [c for _, c in order] + [c for c in range(nc) if c not in {c for _, c in order}]
    U2 = [U[r] for r in rperm]
    V2 = [[V[i][c] for c in cperm] for i in range(nc)]
    return U2, V2


def _apply(U, a: SparseIntMatrix, V):
    ua = [[sum(U[i][k] * a.get(k, j) for k in a.rows if U[i][k]) for j in range(a.ncols)]
          for i in range(len(U))]
    return [[sum(ua[i][k] * V[k][j] for k in range(a.ncols) if ua[i][k]) for j in range(len(V[0]))]
            for i in range(len(U))]


def _enforce_chain(U, V, a):
    """Make the diagonal of U a V a divisibility chain by 2x2 reductions."""
    n = min(a.nrows, a.ncols)
    while True:
        d = _apply(U, a, V)
        bad = None
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][i] and d[j][j] and d[j][j] % d[i][i]:
                    bad = (i, j)
                    break
            if bad:
                break
        if not bad:
            for i in range(n):
                if d[i][i] < 0:
                    for k in range(len(U[i])):
                        U[i][k] = -U[i][k]
            return
        i, j = bad
        # col_i += col_j, then clear the 2x2 block Euclid-style
        for k in range(len(V)):
            V[k][i] += V[k][j]
        while True:
            d = _apply(U, a, V)
            if d[j][i] == 0 and d[i][j] == 0:
                if abs(d[i][i]) > abs(d[j][j]) and d[j][j]:
                    U[i], U[j] = U[j], U[i]
                    for k in range(len(V)):
                        V[k][i], V[k][j] = V[k][j], V[k][i]
                    continue
                break
            if d[j][i]:
                q = d[j][i] // d[i][i]
                for k in range(len(U[i])):
                    U[j][k] -= q * U[i][k]
                d2 = _apply(U, a, V)
                if d2[j][i]:
                    U[i], U[j] = U[j], U[i]
            else:
                q = d[i][j] // d[i][i]
                for k in range(len(V)):
                    V[k][j] -= q * V[k][i]
                d2 = _apply(U, a, V)
                if d2[i][j]:
                    for k in range(len(V)):
                        V[k][i], V[k][j] = V[k][j], V[k][i]


def int_rank(a: SparseIntMatrix) -> int:
    """Rank over Q, by fraction-free sparse elimination."""
    m = a.copy()
    rank = 0
    while m.rows:
        r0, c0 = _pick_pivot(m)
        p = m.rows[r0][c0]
        prow = dict(m.rows[r0])
        for r in list(m.cols.get(c0, ())):
            if r == r0:
                continue
            v = m.rows[r][c0]
            if v % p == 0:
                _row_op(m, r, r0, v // p)
            else:
                row = m.rows[r]
                for c in list(row.keys()):
                    row[c] *= p
                for c, w in prow.items():
                    m.add(r, c, -v * w)
                row = m.rows.get(r)
                if row:
                    g = 0
                    for w in row.values():
                        g = gcd(g, w)
                    if g > 1:
                        for c in row:
                            row[c] //= g
        for c in list(m.rows.get(r0, {}).keys()):
            m._drop(r0, c)
        rank += 1
    return rank


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
        for i, d in self.diffs.items():
            nxt = self.diffs.get(i + 1)
            if nxt is not None and not nxt.matmul(d).is_zero():
                raise InvariantError(f"d_{i+1} o d_{i} != 0")

    def diff(self, i: int) -> SparseIntMatrix:
        m = self.diffs.get(i)
        if m is None:
            m = SparseIntMatrix(self.dims.get(i + 1, 0), self.dims.get(i, 0))
        return m

    def homology(self, ring: str = "Z", prereduce: bool = True) -> dict[int, tuple[int, tuple[int, ...]]]:
        """Group H^i per degree as (free rank, torsion invariant factors).

        ring 'Z' gives the groups, 'Q' the free ranks only.  The complex is
        left as it was: the unit reduction works on copies of its matrices.
        """
        if ring not in ("Z", "Q"):
            raise ValidationError("ring must be 'Z' or 'Q'")
        cx = self
        if prereduce:
            copies = {i: m.copy() for i, m in self.diffs.items()}
            cx = reduce_unit_pivots(FreeComplex(self.dims, copies))
        out: dict[int, tuple[int, tuple[int, ...]]] = {}
        ranks: dict[int, int] = {}
        torsions: dict[int, tuple[int, ...]] = {}
        for i in cx.degrees():
            d = cx.diff(i)
            if ring == "Q":
                ranks[i] = int_rank(d)
                torsions[i] = ()
            else:
                snf = smith_normal_form(d)
                ranks[i] = snf.rank
                torsions[i] = snf.nonunit
        for i in cx.degrees():
            free = cx.dims[i] - ranks.get(i, 0) - ranks.get(i - 1, 0)
            tors = torsions.get(i - 1, ())
            if free or tors:
                out[i] = (free, tors)
        return out


def reduce_unit_pivots(cx: FreeComplex) -> FreeComplex:
    """Homotopy-equivalent compression by cancelling +-1 differential entries.

    Each cancellation removes an acyclic two-term direct summand, so integral
    homology (including torsion) is preserved exactly.  Takes ownership of
    `cx.diffs`: the matrices are reduced in place and are not valid
    afterwards, so a caller that keeps `cx` passes copies.  Units are
    cancelled one at a time, in rounds ordered by (Markowitz fill estimate,
    degree, row, column).
    """
    red = CancellingComplex(cx.dims, cx.diffs)
    red.reduce(lambda i, t, s: ((t, s),))
    dims, diffs, _ = red.export()
    return FreeComplex({i: dims.get(i, 0) for i in cx.dims}, diffs)


def project(d: SparseIntMatrix, gens: list[dict[int, int]], nrows: int,
            rows: dict[int, int] | None = None) -> SparseIntMatrix:
    """The matrix of d on the sparse vectors `gens`, one column per vector.

    Without `rows`, row r of the result is row r of d(v).  With `rows`, only
    the rows it lists are kept, renumbered by it: for an eigen basis, d(v)
    is determined by its coefficients at the orbit representatives.
    """
    out = SparseIntMatrix(nrows, len(gens))
    drows, dcols = d.rows, d.cols
    for col, vec in enumerate(gens):
        img: dict[int, int] = {}
        for k, a in vec.items():
            for r in dcols.get(k, ()):
                img[r] = img.get(r, 0) + a * drows[r][k]
        for r, v in img.items():
            if v:
                if rows is None:
                    out.add(r, col, v)
                elif r in rows:
                    out.add(rows[r], col, v)
    return out


class CancellingComplex:
    """A cochain complex under Gaussian cancellation (algebraic Morse theory).

    Takes ownership of the matrices it is given and updates them in place.
    Basis elements keep their original ids until `export`; `alive` holds the
    ids not yet cancelled and `mats[i]` the nonzero d_i on them.  Each engine
    brings its own rule for which unit entries may be cancelled; `reduce`
    offers them in rounds ordered by (Markowitz fill estimate, degree, row,
    column).
    """

    def __init__(self, dims: dict[int, int], mats: dict[int, SparseIntMatrix]):
        self.alive: dict[int, set[int]] = {i: set(range(n)) for i, n in dims.items()}
        self.mats = {i: m for i, m in mats.items() if m.rows}

    def cancel(self, i: int, t: int, s: int) -> None:
        """Cancel the unit entry d_i[t][s]; t in degree i+1, s in degree i.

        Rows keep their keys' order: an update changes entries in place and
        appends fill-in in the order of row t.  No row is created, so the
        order in which a column's rows are visited reaches no result.
        """
        mats = self.mats
        m = mats[i]
        rows, cols = m.rows, m.cols
        prow = rows[t]
        lam = prow[s]
        if lam != 1 and lam != -1:
            raise InvariantError(f"cancelling a non-unit entry {lam}")
        del rows[t]
        del prow[s]
        # Schur complement on d_i; lam in {1,-1} so 1/lam == lam
        for r in cols.pop(s):
            if r == t:
                continue
            row = rows[r]
            coeff = -lam * row.pop(s)
            for c, b in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = coeff * b
                    cols[c].add(r)
                else:
                    new = old + coeff * b
                    if new:
                        row[c] = new
                    else:
                        del row[c]
                        cols[c].discard(r)
            if not row:
                del rows[r]
        for c in prow:
            col = cols[c]
            col.discard(t)
            if not col:
                del cols[c]
        if not rows:
            del mats[i]
        below = mats.get(i - 1)
        if below is not None:
            brow = below.rows.pop(s, None)
            if brow is not None:
                bcols = below.cols
                for c in brow:
                    col = bcols[c]
                    col.discard(s)
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
        self.alive[i].discard(s)
        self.alive[i + 1].discard(t)

    def reduce(self, pairs) -> None:
        """Cancel in rounds until a round cancels nothing.

        A round lists every unit entry in the order (Markowitz fill estimate,
        degree, row, column), least first.  For each one still a unit,
        `pairs(i, t, s)` returns the (t, s) pairs of d_i to cancel together,
        or None to leave it.  A candidate is one int packing those four keys
        with bit widths taken from the round's matrices, so a plain int sort
        gives that order.
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
                for t, row in m.rows.items():
                    rl = len(row) - 1
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
                group = pairs(i, t, s)
                if group is None:
                    continue
                for t2, s2 in group:
                    self.cancel(i, t2, s2)
                progress = True
            if not progress:
                return

    def export(self):
        """(dims, diffs, remap) on the surviving basis, renumbered in order.

        dims omits degrees with nothing left; remap[i] sends each surviving
        original id of degree i to its new index.
        """
        remap = {i: {e: k for k, e in enumerate(sorted(s))} for i, s in self.alive.items()}
        dims = {i: len(s) for i, s in self.alive.items() if s}
        diffs: dict[int, SparseIntMatrix] = {}
        for i, m in self.mats.items():
            out = SparseIntMatrix(dims.get(i + 1, 0), dims.get(i, 0))
            tgt, src = remap[i + 1], remap[i]
            for r, c, v in m.entries():
                out.set(tgt[r], src[c], v)
            diffs[i] = out
        return dims, diffs, remap


# ---------------------------------------------------------------------------
# polynomials over Z, cyclotomic factors, group ring


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_divmod_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b in Z[t]; raises if the division is not exact."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    if not b or b[-1] == 0:
        raise ValueError("bad divisor")
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        if a[-1] % b[-1]:
            raise ValueError("division not exact")
        coef = a[-1] // b[-1]
        k = len(a) - len(b)
        q[k] = coef
        for i, y in enumerate(b):
            a[k + i] -= coef * y
        while a and a[-1] == 0:
            a.pop()
    if a:
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


@dataclass(frozen=True)
class GroupRingElt:
    """Element of Z[t]/(t^n - 1) as a coefficient vector of length n."""

    n: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_poly(cls, n: int, poly: list[int]) -> "GroupRingElt":
        c = [0] * n
        for k, v in enumerate(poly):
            c[k % n] += v
        return cls(n, tuple(c))

    @classmethod
    def t_power(cls, n: int, k: int) -> "GroupRingElt":
        c = [0] * n
        c[k % n] = 1
        return cls(n, tuple(c))

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        return GroupRingElt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElt(self.n, tuple(a * other for a in self.coeffs))
        out = [0] * self.n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % self.n] += a * b
        return GroupRingElt(self.n, tuple(out))

    def mult_matrix(self) -> SparseIntMatrix:
        """Matrix of multiplication by self on Z[t]/(t^n-1), basis 1..t^{n-1}."""
        m = SparseIntMatrix(self.n, self.n)
        for j in range(self.n):
            for k, a in enumerate(self.coeffs):
                if a:
                    m.add((j + k) % self.n, j, a)
        return m


def norm_element(n: int) -> GroupRingElt:
    return GroupRingElt(n, tuple([1] * n))


def rational_idempotents(n: int) -> dict[int, tuple[Fraction, ...]]:
    """Central idempotents e_d of Q[t]/(t^n-1), one per divisor d of n.

    e_d acts as the identity on the component cut out by Phi_d and kills the
    others.  Computed by extended gcd of Phi_d and its cofactor over Q.
    """
    out: dict[int, tuple[Fraction, ...]] = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        phi = [Fraction(c) for c in cyclotomic(d)]
        g = [Fraction(c) for c in cofactor(d, n)]
        _, b = _poly_xgcd(phi, g)
        e = _fpoly_mul(b, g)
        coeffs = [Fraction(0)] * n
        for k, v in enumerate(e):
            coeffs[k % n] += v
        out[d] = tuple(coeffs)
    return out


def idempotent_int_scaled(n: int, d: int) -> GroupRingElt:
    """n * e_d, which has integer coefficients."""
    e = rational_idempotents(n)[d]
    ints = []
    for c in e:
        v = c * n
        if v.denominator != 1:
            raise InvariantError("idempotent denominator does not divide n")
        ints.append(int(v))
    return GroupRingElt(n, tuple(ints))


def _fpoly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fpoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fpoly_trim(out)


def _fpoly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _fpoly_trim(a):
        coef = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] += coef
        for i, y in enumerate(b):
            a[k + i] -= coef * y
        _fpoly_trim(a)
    return _fpoly_trim(q), _fpoly_trim(a)


def _poly_xgcd(a, b):
    """Bezout pair (x, y) with x*a + y*b = 1 for coprime a, b over Q."""
    r0, r1 = list(a), list(b)
    x0, x1 = [Fraction(1)], []
    y0, y1 = [], [Fraction(1)]
    while r1:
        q, r = _fpoly_divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, _fpoly_sub(x0, _fpoly_mul(q, x1))
        y0, y1 = y1, _fpoly_sub(y0, _fpoly_mul(q, y1))
    if len(r0) != 1:
        raise ValueError("inputs not coprime")
    inv = 1 / r0[0]
    return [c * inv for c in x0], [c * inv for c in y0]


def _fpoly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _fpoly_trim(out)


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
