"""Helpers the tests share and the package does not use.

Dense views of sparse matrices, the rank over Q and the determinant by
dense `Fraction` elimination, invariant factors from determinantal divisors,
the product and the long division of integer polynomials, the product of
polynomials in t and q, the rank of each chain group of a complex, the
rational part and the mirror of a graded group (a dict {(i, j): (free
rank, torsion factors)}, as the engine returns it), two such dicts
compared up to a window, the rotation orbits of the smoothings of one
weight, the chain-level tiling of the orbit-resolution filtration, and
references for the isotypic projection: the full-row product, the
eigenlattices of a signed permutation walked cycle by cycle, and the slice
on them; and a reference for the action check, comparing d(psi x) with
psi(d x) as vectors.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from pkh.complexes import build_complex
from pkh.diagram import isotropy
from pkh.equivariant import equivariant_reduce
from pkh.homalg import FreeComplex, SparseIntMatrix, isotypic_complex
from pkh.polynomials import BiPolynomial
from pkh.spectral import resolve_diagram


def from_dense(dense: list[list[int]]) -> SparseIntMatrix:
    m = SparseIntMatrix(len(dense), len(dense[0]) if dense else 0)
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            if v:
                m.set(r, c, v)
    return m


def to_dense(m: SparseIntMatrix) -> list[list[int]]:
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for r, c, v in m.entries():
        out[r][c] = v
    return out


def fraction_rank(m: SparseIntMatrix) -> int:
    """Rank over Q by dense Gauss-Jordan elimination with `Fraction` entries.

    Shares no code with the package's elimination, so it is an oracle for it.
    """
    rows = [[Fraction(m.get(r, c)) for c in range(m.ncols)] for r in range(m.nrows)]
    rank = 0
    for c in range(m.ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                for k in range(m.ncols):
                    rows[r][k] -= f * rows[rank][k]
        rank += 1
    return rank


def det(m: list[list[int]]) -> Fraction:
    """Determinant of a square matrix by `Fraction` elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return out


def determinantal_factors(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_k = D_k / D_(k-1), D_k the gcd of all k x k minors.

    Stops at the first D_k that is zero.  D_(k-1) divides D_k, so the scan
    of the k x k minors stops once their running gcd reaches D_(k-1).
    Shares no code with the package's Smith form, so it is an oracle for it.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    factors, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = gcd(g, int(det([[rows[r][c] for c in cs] for r in rs])))
                if g == prev:
                    break
            if g == prev:
                break
        if not g:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def transpose(m: SparseIntMatrix) -> SparseIntMatrix:
    out = SparseIntMatrix(m.ncols, m.nrows)
    for r, c, v in m.entries():
        out.set(c, r, v)
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[t] of ascending coefficient lists, trimmed."""
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


def bipoly_mul(a: BiPolynomial, b: BiPolynomial) -> BiPolynomial:
    """The product of two polynomials in t and q."""
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.coeffs.items():
        for (i2, j2), c2 in b.coeffs.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return BiPolynomial(out)


def divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the monic b in Z[t] by long division, untrimmed."""
    r = list(a)
    q = [0] * max(0, len(r) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1]
        for i, c in enumerate(b):
            r[k + i] -= q[k] * c
    return q, r[:len(b) - 1]


def rational(groups: dict) -> dict:
    """The rational groups: the free parts of the integral ones."""
    return {k: (free, ()) for k, (free, _) in groups.items() if free}


def chain_dims(cx) -> dict[tuple[int, int], int]:
    """The rank of each chain group of a `DiagramComplex`, keyed by (i, j)."""
    return {(i, j): rank for j in cx.quantum_range() for i, rank in cx.slice(j).dims.items()}


def mirror(groups: dict) -> dict:
    """The groups of the mirror image: (i, j) -> (-i, -j)."""
    return {(-i, -j): val for (i, j), val in groups.items()}


def same_groups(a: dict, b: dict, window: int) -> bool:
    """Equal groups in every degree up to `window`."""
    return {k: v for k, v in a.items() if k[0] <= window} == \
        {k: v for k, v in b.items() if k[0] <= window}


def rotation_orbits(d, r):
    """(least smoothing, its isotropy, orbit size) per rotation orbit of the
    weight-r smoothings, walked with `rotate_state`."""
    seen, out = set(), []
    for bits in range(1 << d.ncross):
        if bits.bit_count() != r or bits in seen:
            continue
        orbit = [bits]
        while (nxt := d.rotate_state(orbit[-1])) != bits:
            assert nxt.bit_count() == r  # the rotation keeps the weight
            orbit.append(nxt)
        seen.update(orbit)
        out.append((min(orbit), isotropy(d, bits), len(orbit)))
    return out


def resolutions_tile(D, X) -> bool:
    """Chain-level bookkeeping: the shifted resolved complexes tile CKh."""
    want: dict[tuple[int, int], int] = {}
    for p in range(len(X) + 1):
        for ones in combinations(X, p):
            Dres, c = resolve_diagram(D, {x: int(x in ones) for x in X})
            for (i, j), dim in chain_dims(build_complex(Dres)).items():
                key = (i + c + p, j + p + 3 * c + len(X))
                want[key] = want.get(key, 0) + dim
    return want == chain_dims(build_complex(D))


def project_full_rows(d: SparseIntMatrix, gens: list[dict[int, int]], nrows: int) -> SparseIntMatrix:
    """The matrix of d on the sparse vectors `gens`: column k is d(gens[k]), every row kept."""
    out = SparseIntMatrix(nrows, len(gens))
    for col, vec in enumerate(gens):
        for k, a in vec.items():
            for r in d.cols.get(k, ()):
                out.add(r, col, a * d.rows[r][k])
    return out


def eigenlattice(psi: list[tuple[int, int]], eps: int) -> list[dict[int, int]]:
    """Basis of the eps-eigenlattice of a signed permutation, eps = +-1.

    One vector per cycle that has one, walked from the cycle's least id at
    +1: psi(v) = eps v fixes each coefficient from the one before, and the
    cycle has a vector when the walk comes back to +1.
    """
    out, seen = [], set()
    for start in range(len(psi)):
        if start in seen:
            continue
        vec, e, c = {}, start, 1
        while e not in vec:
            vec[e] = c
            e, s = psi[e]
            c *= s * eps
        seen.update(vec)
        if c == 1:
            out.append(vec)
    return out


def slice_eigen(sl, eps: int) -> FreeComplex:
    """The whole slice on the eps-eigenlattice of psi, eps = +-1.

    Each image is read at the least ids of the target vectors, where an
    eigenvector's coordinates are: the plain Hom complex from Z or Z_-.
    """
    gens = {i: eigenlattice(sl.psi(i), eps) for i in sl.basis}
    dims = {i: len(g) for i, g in gens.items() if g}
    diffs = {}
    for i in dims:
        if i + 1 in dims:
            at = {min(v): k for k, v in enumerate(gens[i + 1])}
            m = diffs[i] = SparseIntMatrix(dims[i + 1], dims[i])
            for r, c, v in project_full_rows(sl.diff(i), gens[i], sl.dim(i + 1)).entries():
                if r in at:
                    m.set(at[r], c, v)
    return FreeComplex(dims, diffs)


def isotypic_parts(sl, n: int, diffs: dict[int, SparseIntMatrix]):
    """(d, complex) for the Phi_d-isotypic parts of one slice, at every d | n.

    Two per d: that of the whole slice, with the differentials `diffs`, as
    the sector pages take it, and that of `equivariant_reduce`'s output, as
    `rational_equivariant` and `hom_cohomology` take it.
    """
    red = equivariant_reduce(sl, n)
    for d in range(1, n + 1):
        if n % d == 0:
            yield d, isotypic_complex(sl.dims, sl.psi, diffs.get, d)[1]
            yield d, isotypic_complex(red.dims, red.psi.get, red.diffs.get, d)[1]


def reference_action_failure(sl, diffs, n: int):
    """The first failure of psi^n = 1 or psi d = d psi on one slice, or None,
    with d(psi x) and psi(d x) summed into vectors, column by column."""
    for i, basis in sl.basis.items():
        psi = sl.psi(i)
        for k in range(len(basis)):
            cur, sign = k, 1
            for _ in range(n):
                cur, s = psi[cur]
                sign *= s
            if cur != k or sign != 1:
                return "psi_order", (i, sl.j, k)
        d = diffs.get(i)
        if d is not None:
            psi_t = sl.psi(i + 1)
            for k in range(len(basis)):
                img, sg = psi[k]
                lhs = {}  # d(psi x)
                for r in d.cols.get(img, ()):
                    lhs[r] = lhs.get(r, 0) + sg * d.rows[r][img]
                rhs = {}  # psi(d x)
                for r in d.cols.get(k, ()):
                    tr, ts = psi_t[r]
                    rhs[tr] = rhs.get(tr, 0) + ts * d.rows[r][k]
                if {a: b for a, b in lhs.items() if b} != {a: b for a, b in rhs.items() if b}:
                    return "psi_commutes", (i, sl.j, k)
    return None
