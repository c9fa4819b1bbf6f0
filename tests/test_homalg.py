import random
import tracemalloc

import pytest

from pkh import corpus
from pkh.complexes import build_complex
from pkh.equivariant import EquivariantSlice, PeriodicResolution, _totalize, equivariant_reduce
from pkh.equivariant import rational_equivariant
from pkh.errors import InvariantError
from pkh.homalg import (FreeComplex, OrbitCancellingComplex, SparseIntMatrix,
                        cofactor, cyclotomic, eval_group_ring, int_rank,
                        isotypic_basis, isotypic_complex, orbits, project,
                        rational_idempotents, reduce_unit_pivots,
                        smith_normal_form)
from helpers import (determinantal_factors, divmod_monic, fraction_rank, from_dense,
                     isotypic_parts, poly_mul, project_full_rows, to_dense, transpose)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(from_dense([[2, 0], [0, 3]])).factors == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form(SparseIntMatrix(3, 4)).factors == ()

    def test_identity(self):
        assert smith_normal_form(from_dense([[1, 0], [0, 1]])).factors == (1, 1)

    def test_transpose_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) if rng.random() < 0.5 else 0
                     for _ in range(5)] for _ in range(4)]
            a = from_dense(rows)
            assert smith_normal_form(a).factors == smith_normal_form(transpose(a)).factors

    def test_factors_match_determinantal_divisors(self):
        rng = random.Random(11)
        for _ in range(15):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.randint(-6, 6) if rng.random() < 0.4 else 0
                     for _ in range(nc)] for _ in range(nr)]
            assert smith_normal_form(from_dense(rows)).factors == determinantal_factors(rows)
        big = 2 ** 64 + 13
        for rows, want in [
            ([], ()),
            ([[], [], []], ()),
            ([[0, 3, 0, -6, 9]], (3,)),
            ([[4], [0], [-10], [0], [6]], (2,)),
            ([[0, 0, 0], [0, 0, 0]], ()),
            ([[4, 0], [0, 6]], (2, 12)),
            ([[2 * big, 6], [4, 2 * big]], (2, 2 * (big * big - 6))),
        ]:
            a = from_dense(rows) if rows else SparseIntMatrix(0, 3)
            assert determinantal_factors(rows) == want
            assert smith_normal_form(a).factors == want

    def test_divisibility_chain(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                     for _ in range(6)] for _ in range(6)]
            f = smith_normal_form(from_dense(rows)).factors
            assert all(b % a == 0 for a, b in zip(f, f[1:]))


class TestHomology:
    def test_multiplication_by_two(self):
        # 0 -> Z --2--> Z -> 0
        cx = FreeComplex({0: 1, 1: 1}, {0: from_dense([[2]])})
        assert cx.homology() == {1: (0, (2,))}

    def test_identity_complex(self):
        cx = FreeComplex({0: 2, 1: 2}, {0: from_dense([[1, 0], [0, 1]])})
        assert cx.homology() == {}

    def test_two_sphere(self):
        # coboundaries of the tetrahedron: H^0 = Z, H^2 = Z
        vertices = list(range(4))
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        faces = [(a, b, c) for a in range(4) for b in range(a + 1, 4)
                 for c in range(b + 1, 4)]
        d0 = SparseIntMatrix(len(edges), 4)
        for r, (a, b) in enumerate(edges):
            d0.set(r, a, -1)
            d0.set(r, b, 1)
        d1 = SparseIntMatrix(len(faces), len(edges))
        for r, (a, b, c) in enumerate(faces):
            d1.set(r, edges.index((b, c)), 1)
            d1.set(r, edges.index((a, c)), -1)
            d1.set(r, edges.index((a, b)), 1)
        cx = FreeComplex({0: 4, 1: 6, 2: 4}, {0: d0, 1: d1})
        cx.check_composes()
        assert cx.homology() == {0: (1, ()), 2: (1, ())}

    def test_homology_leaves_the_complex_unchanged(self):
        rng = random.Random(23)
        sl = build_complex(corpus.build("t3_2")).slice(5)
        for cx in [_random_complex(rng) for _ in range(5)] + [sl.to_free_complex()]:
            dims = list(cx.dims.items())
            diffs = {i: (m, entries_in_order(m), [(c, list(col)) for c, col in m.cols.items()])
                     for i, m in cx.diffs.items()}
            cx.homology()
            assert list(cx.dims.items()) == dims
            assert list(cx.diffs) == list(diffs)
            for i, (m, entries, cols) in diffs.items():
                assert cx.diffs[i] is m
                assert entries_in_order(m) == entries, i
                assert [(c, list(col)) for c, col in m.cols.items()] == cols, i

    def test_reduction_preserves_homology(self):
        """Smith form alone against unit reduction of a copy, then Smith form."""
        rng = random.Random(5)
        for _ in range(10):
            cx = _random_complex(rng)
            copy = FreeComplex(cx.dims, {i: m.copy() for i, m in cx.diffs.items()})
            assert reduce_unit_pivots(copy).homology() == cx.homology()

    def test_check_composes_reads_every_row(self):
        """A nonzero entry in the last of three or more rows of d_1 o d_0, alone,
        is caught."""
        rng = random.Random(59)
        while True:
            cx = _random_complex(rng)
            d0, d1 = cx.diffs[0], cx.diffs[1]
            last = list(d1.rows)[-1]
            # a lower row k of d_0 reaches the product only through column k
            # of d_1, so a k whose column is that one row changes only that row
            k = next((k for k in range(d0.ncols, d0.nrows) if d1.cols.get(k) == [last]), None)
            if k is not None and len(d1.rows) > 2:
                break
        d0.set(k, 0, 1)
        with pytest.raises(InvariantError):
            cx.check_composes()

    def test_check_composes_accepts_cancelling_contributions(self):
        # d_1 o d_0 = 1 * 1 + 1 * (-1) + 2 * 3 + (-3) * 2 = 0, term by term nonzero
        cx = FreeComplex({0: 1, 1: 4, 2: 1}, {0: from_dense([[1], [-1], [3], [2]]),
                                              1: from_dense([[1, 1, 2, -3]])})
        cx.check_composes()

    def test_free_ranks_against_dense_kernel_oracle(self):
        # rank-nullity over Q with dense fraction elimination, no shared code
        rng = random.Random(17)
        for _ in range(10):
            cx = _random_complex(rng)
            hom = cx.homology()
            for i, n in cx.dims.items():
                want = n - fraction_rank(cx.diff(i)) - fraction_rank(cx.diff(i - 1))
                assert hom.get(i, (0, ()))[0] == want


def _random_complex(rng, n=None):
    # two-step mapping-cone style construction, so compositions vanish
    n = n or rng.randint(2, 6)
    a = from_dense([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    zero = SparseIntMatrix(n, n)
    cx = FreeComplex({0: n, 1: 2 * n, 2: n}, {
        0: _stack_vert(a, zero),
        1: _stack_horiz(zero, a),
    })
    cx.check_composes()
    return cx


def _direct_sum(*parts):
    """The complexes cx of the pairs (cx, lo), each moved up by lo degrees.

    Their degrees must not overlap, so no differential joins two parts.
    """
    dims, diffs = {}, {}
    for cx, lo in parts:
        for i, n in cx.dims.items():
            assert i + lo not in dims
            dims[i + lo] = n
        for i, m in cx.diffs.items():
            diffs[i + lo] = m
    return FreeComplex(dims, diffs)


def _dual(cx):
    """The dual complex: degree -i is the dual of degree i, d_i transposed."""
    return FreeComplex({-i: n for i, n in cx.dims.items()},
                       {-i - 1: transpose(m) for i, m in cx.diffs.items()})


def _stack_vert(top, bottom):
    out = SparseIntMatrix(top.nrows + bottom.nrows, top.ncols)
    for r, c, v in top.entries():
        out.set(r, c, v)
    for r, c, v in bottom.entries():
        out.set(top.nrows + r, c, v)
    return out


def _stack_horiz(left, right):
    out = SparseIntMatrix(left.nrows, left.ncols + right.ncols)
    for r, c, v in left.entries():
        out.set(r, c, v)
    for r, c, v in right.entries():
        out.set(r, left.ncols + c, v)
    return out


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == [-1, 1]
        assert cyclotomic(2) == [1, 1]
        assert cyclotomic(4) == [1, 0, 1]
        assert cofactor(1, 3) == [1, 1, 1]
        assert cofactor(2, 2) == [-1, 1]
        assert cofactor(4, 4) == [-1, 0, 1]

    def test_product_over_divisors(self):
        for n in range(1, 25):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = poly_mul(prod, cyclotomic(d))
            assert prod == [-1] + [0] * (n - 1) + [1]

    def test_cofactor_needs_divisor(self):
        with pytest.raises(ValueError):
            cofactor(3, 4)


class TestIdempotents:
    @pytest.mark.parametrize("n", list(range(1, 25)))
    def test_identities(self, n):
        from fractions import Fraction
        es = rational_idempotents(n)
        assert set(es) == {d for d in range(1, n + 1) if n % d == 0}

        def mul(a, b):
            out = [Fraction(0)] * n
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            out[(i + j) % n] += x * y
            return tuple(out)

        one = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
        total = [Fraction(0)] * n
        for d, e in es.items():
            assert mul(e, e) == e
            for d2, e2 in es.items():
                if d2 != d:
                    assert all(v == 0 for v in mul(e, e2))
            for k in range(n):
                total[k] += e[k]
        assert tuple(total) == one

    def test_n2_values(self):
        from fractions import Fraction
        es = rational_idempotents(2)
        assert es[1] == (Fraction(1, 2), Fraction(1, 2))
        assert es[2] == (Fraction(1, 2), Fraction(-1, 2))
        assert rational_idempotents(1)[1] == (Fraction(1),)

    def test_integer_scaling(self):
        for n in (2, 3, 4, 6, 12):
            for e in rational_idempotents(n).values():
                assert all((n * c).denominator == 1 for c in e)


class TestGroupRingEval:
    def test_t_minus_one_on_identity(self):
        ident = [(k, 1) for k in range(3)]
        m = eval_group_ring([-1, 1], ident, 3)
        assert m.is_zero()

    def test_norm_on_trivial_rank_one(self):
        m = eval_group_ring([1, 1, 1, 1], [(0, 1)], 1)
        assert m.get(0, 0) == 4

    def test_t_plus_one_on_sign(self):
        m = eval_group_ring([1, 1], [(0, -1)], 1)
        assert m.is_zero()


class TestRank:
    def test_int_rank_random_vs_fraction(self):
        from fractions import Fraction
        rng = random.Random(13)
        for _ in range(20):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-5, 5) if rng.random() < 0.5 else 0
                     for _ in range(nc)] for _ in range(nr)]
            a = [[Fraction(v) for v in row] for row in rows]
            rank = 0
            for c in range(nc):
                piv = next((r for r in range(rank, nr) if a[r][c]), None)
                if piv is None:
                    continue
                a[rank], a[piv] = a[piv], a[rank]
                for r in range(nr):
                    if r != rank and a[r][c]:
                        f = a[r][c] / a[rank][c]
                        for k in range(nc):
                            a[r][k] -= f * a[rank][k]
                rank += 1
            assert int_rank(from_dense(rows)) == rank


# ---------------------------------------------------------------------------
# the shared cancellation kernel against the reducers it replaced


def _schur_cancel(mats, i, t, s):
    """The Schur-complement step each reference reducer used, written out."""
    m = mats[i]
    rows, cols = m.rows, m.cols
    lam = rows[t][s]
    assert lam in (1, -1)
    prow = [(c, b) for c, b in rows[t].items() if c != s]
    pcol = [(r, rows[r][s]) for r in cols.get(s, ()) if r != t]
    for r, a in pcol:
        coeff = a * lam
        row = rows.setdefault(r, {})
        for c, b in prow:
            new = row.get(c, 0) - coeff * b
            if new:
                if c not in row:
                    cols.setdefault(c, []).append(r)
                row[c] = new
            elif c in row:
                del row[c]
                col = cols[c]
                col.remove(r)
                if not col:
                    del cols[c]
        if not row:
            del rows[r]
    for c, _ in prow:
        m._drop(t, c)
    for r in list(cols.get(s, ())):
        m._drop(r, s)
    below = mats.get(i - 1)
    if below is not None:
        for c in list(below.rows.get(s, {})):
            below._drop(s, c)
    above = mats.get(i + 1)
    if above is not None:
        for r in list(above.cols.get(t, ())):
            above._drop(r, t)


def _unit_batch(mats):
    out = []
    for i, m in mats.items():
        for r, row in m.rows.items():
            for c, v in row.items():
                if v == 1 or v == -1:
                    out.append(((len(row) - 1) * (len(m.cols[c]) - 1), i, r, c))
    out.sort()
    return out


def _compact(alive, mats, keep_empty):
    remap = {i: {b: k for k, b in enumerate(sorted(s))} for i, s in alive.items()}
    dims = {i: len(s) for i, s in alive.items() if s or keep_empty}
    diffs = {}
    for i, m in mats.items():
        out = SparseIntMatrix(dims.get(i + 1, 0), dims.get(i, 0))
        for r, c, v in m.entries():
            out.set(remap[i + 1][r], remap[i][c], v)
        if not out.is_zero():
            diffs[i] = out
    return dims, diffs, remap


def reference_unit_reduction(cx):
    """Unit-pivot reduction in rounds, one unit at a time."""
    alive = {i: set(range(n)) for i, n in cx.dims.items()}
    mats = {i: m.copy() for i, m in cx.diffs.items() if not m.is_zero()}
    while True:
        batch = _unit_batch(mats)
        if not batch:
            break
        for _, i, r, c in batch:
            m = mats.get(i)
            if m is not None and m.get(r, c) in (1, -1):
                _schur_cancel(mats, i, r, c)
                alive[i].discard(c)
                alive[i + 1].discard(r)
                for k in (i - 1, i, i + 1):
                    if k in mats and mats[k].is_zero():
                        del mats[k]
    dims, diffs, _ = _compact(alive, mats, keep_empty=True)
    return FreeComplex(dims, diffs)


def reference_orbit_reduction(sl, n):
    """Free-orbit reduction of a slice, with the action kept as a dict."""
    alive, mats, psi = {}, {}, {}
    for i, basis in sl.basis.items():
        if not basis:
            continue
        alive[i] = set(range(len(basis)))
        psi[i] = dict(enumerate(sl.psi(i)))
        d = sl.diff(i) if sl.dim(i + 1) else None
        if d is not None and d.rows:
            mats[i] = d

    def orbit(i, e):
        out, cur = [e], psi[i][e][0]
        while cur != e:
            out.append(cur)
            cur = psi[i][cur][0]
        return out

    progress = True
    while progress:
        progress = False
        for _, i, t, s in _unit_batch(mats):
            m = mats.get(i)
            if m is None or m.get(t, s) not in (1, -1):
                continue
            if s not in psi[i] or t not in psi[i + 1]:
                continue
            orb_s, orb_t = orbit(i, s), orbit(i + 1, t)
            if len(orb_s) != n or len(orb_t) != n:
                continue
            if any(m.get(t2, s) for t2 in orb_t if t2 != t):
                continue
            if any(m.get(t2, s2) not in (1, -1) for t2, s2 in zip(orb_t, orb_s)):
                continue
            for t2, s2 in zip(orb_t, orb_s):
                _schur_cancel(mats, i, t2, s2)
            for s2 in orb_s:
                alive[i].discard(s2)
                del psi[i][s2]
            for t2 in orb_t:
                alive[i + 1].discard(t2)
                del psi[i + 1][t2]
            for k in (i - 1, i, i + 1):
                if k in mats and mats[k].is_zero():
                    del mats[k]
            progress = True
    dims, diffs, remap = _compact(alive, mats, keep_empty=False)
    out_psi = {}
    for i, table in psi.items():
        if alive[i]:
            rm = remap[i]
            lst = [(0, 1)] * len(rm)
            for e, (img, sg) in table.items():
                lst[rm[e]] = (rm[img], sg)
            out_psi[i] = lst
    return EquivariantSlice(dims, diffs, out_psi)


def _horizontal(red, n, d):
    phi, cof = cyclotomic(d), cofactor(d, n)
    return {i: (eval_group_ring(phi, red.psi[i], dim), eval_group_ring(cof, red.psi[i], dim))
            for i, dim in red.dims.items()}


def slice_ext(red, n, d):
    """Hyper-Ext of one reduced slice in degrees <= 5, as ext_groups takes it."""
    tot = _totalize(red, PeriodicResolution(n, d, 7 - min(0, *red.dims)), 6)
    return {m: grp for m, grp in reduce_unit_pivots(tot).homology().items() if m <= 5}


def slice_isotypic(red, d):
    """Rank of the Phi_d-isotypic homology per degree, as rational_equivariant takes it."""
    iso = {i: isotypic_basis(red.psi[i], d)[0] for i in red.dims}
    rank = {i: int_rank(project_full_rows(red.diffs[i], iso[i], red.dims[i + 1]))
            for i in red.dims if iso[i] and i in red.diffs}
    return {i: len(iso[i]) - rank.get(i, 0) - rank.get(i - 1, 0) for i in red.dims}


def reference_totalize(red, horiz, cols, maxdeg):
    """The whole Hom double complex, columns 0..cols-1, totalized.

    Every generator in every column, written one `SparseIntMatrix.add` per
    entry: the complex `_totalize` retracts the free rows of.
    """
    offsets, dims = {}, {}
    for q in sorted(red.dims):
        for p in range(cols):
            m = p + q
            if m <= maxdeg:
                offsets.setdefault(m, {})[p] = dims.get(m, 0)
                dims[m] = dims.get(m, 0) + red.dims[q]
    diffs = {}
    for m in sorted(dims):
        if m + 1 not in dims:
            continue
        mat = SparseIntMatrix(dims[m + 1], dims[m])
        for p, off in offsets[m].items():
            q = m - p
            vert = red.diffs.get(q)
            if vert is not None and p in offsets.get(m + 1, {}):
                for r, c, v in vert.entries():
                    mat.add(offsets[m + 1][p] + r, off + c, (-1 if p % 2 else 1) * v)
            if p + 1 < cols and (p + 1) in offsets.get(m + 1, {}):
                for r, c, v in horiz[q][p % 2].entries():
                    mat.add(offsets[m + 1][p + 1] + r, off + c, v)
        if not mat.is_zero():
            diffs[m] = mat
    return FreeComplex(dims, diffs)


def reference_slice_ext(red, n, d, window, n_minus):
    """Hyper-Ext of one reduced slice in degrees <= window, from the whole double complex."""
    tot = reference_totalize(red, _horizontal(red, n, d), window + n_minus + 2, window + 1)
    return {m: grp for m, grp in reduce_unit_pivots(tot).homology().items() if m <= window}


def entries_in_order(m):
    return (m.nrows, m.ncols, [(r, list(row.items())) for r, row in m.rows.items()])


def assert_same_complex(got_dims, got_diffs, want_dims, want_diffs, where):
    assert list(got_dims.items()) == list(want_dims.items()), where
    assert list(got_diffs) == list(want_diffs), where
    for i, m in want_diffs.items():
        assert entries_in_order(got_diffs[i]) == entries_in_order(m), (where, i)


SMALL = [name for name in corpus.corpus_names() if corpus.build(name).ncross <= 8]


def random_signed_permutation(rng):
    """(psi, cycles): a signed permutation of up to 12 ids, cycles of random lengths and signs."""
    ids = list(range(rng.randint(1, 12)))
    rng.shuffle(ids)
    psi = [None] * len(ids)
    cycles = []
    while ids:
        k = rng.randint(1, min(4, len(ids)))
        cyc, ids = ids[:k], ids[k:]
        cycles.append(cyc)
        for k, e in enumerate(cyc):
            psi[e] = (cyc[(k + 1) % len(cyc)], rng.choice((1, -1)))
    return psi, cycles


def random_signed_orbits(rng):
    """A signed permutation of cycles whose lengths suit d = 3, 4 and 6, with either sigma."""
    psi, ids = [], 0
    for _ in range(rng.randint(1, 6)):
        L = rng.choice((1, 2, 3, 4, 6, 8, 9, 12))
        signs = [rng.choice((1, -1)) for _ in range(L)]
        psi.extend((ids + (k + 1) % L, signs[k]) for k in range(L))
        ids += L
    perm = list(range(ids))
    rng.shuffle(perm)
    out = [None] * ids
    for e, (f, s) in enumerate(psi):
        out[perm[e]] = (perm[f], s)
    return out


def kernel_inputs():
    """(where, complex) for test_unit_reduction_matches_reference's inputs.

    The same seeded random complexes, then every slice of every `SMALL`
    diagram, each built fresh.
    """
    rng = random.Random(29)
    for k in range(20):
        yield ("random", k), _random_complex(rng)
    for shift, gap, n in ((-3, 0, 9), (-7, 4, 17), (-1, 9, 5), (-40, 70, 33)):
        yield ("random", shift), _direct_sum((_random_complex(rng, n), shift),
                                             (_dual(_random_complex(rng, n)), shift + 5 + gap))
    for name in SMALL:
        cx = build_complex(corpus.build(name))
        for j in cx.quantum_range():
            sl = cx.slice(j)
            if sl.basis:
                yield (name, j), sl.to_free_complex()


class TestCancellationKernel:
    """Unit and orbit reduction give the old reducers' results, entry for entry."""

    def test_unit_reduction_matches_reference(self):
        assert "t5_2" in SMALL and "t8_2_flat" in SMALL
        rng = random.Random(29)
        inputs = [_random_complex(rng) for _ in range(20)]
        # negative and gapped degrees, and ranks just past a power of two
        # whose last rows and columns hold entries, for the bit widths of
        # the packed candidate keys
        for shift, gap, n in ((-3, 0, 9), (-7, 4, 17), (-1, 9, 5), (-40, 70, 33)):
            inputs.append(_direct_sum((_random_complex(rng, n), shift),
                                      (_dual(_random_complex(rng, n)), shift + 5 + gap)))
        for cx in inputs:
            want = reference_unit_reduction(cx)
            got = reduce_unit_pivots(cx)
            assert_same_complex(got.dims, got.diffs, want.dims, want.diffs, "random")
        for name in SMALL:
            # a fresh diagram, so no reduction cached by another test is reused
            cx = build_complex(corpus.build(name))
            for j in cx.quantum_range():
                sl = cx.slice(j)
                if not sl.basis:
                    continue
                full = sl.to_free_complex()
                want = reference_unit_reduction(full)
                got = reduce_unit_pivots(full)
                assert_same_complex(got.dims, got.diffs, want.dims, want.diffs, (name, j))

    def test_orbit_reduction_matches_reference(self):
        """The group-ring reduction and the full-basis one give the same groups.

        The reduced slices may differ; their hyper-Ext groups and isotypic
        ranks may not, at every d | n.
        """
        for name in SMALL:
            D = corpus.build(name)
            cx = build_complex(D)
            for j in cx.quantum_range():
                sl = cx.slice(j)
                if not sl.basis:
                    continue
                want = reference_orbit_reduction(sl, D.n)
                got = equivariant_reduce(sl, D.n)
                for d in range(1, D.n + 1):
                    if D.n % d:
                        continue
                    where = (name, j, d)
                    assert slice_ext(got, D.n, d) == slice_ext(want, D.n, d), where
                    assert slice_isotypic(got, d) == slice_isotypic(want, d), where

    def test_orbit_kernel_with_trivial_action_is_the_unit_kernel(self):
        """n = 1 and the identity action: the orbit kernel reduces as the unit one.

        Every id is then the lead of its own free orbit, so the build takes
        every column and each orbit cancellation is one unit cancellation.
        """
        for where, cx in kernel_inputs():
            mats = {i: m.copy() for i, m in cx.diffs.items()}

            def build(i, keep):
                assert list(keep) == [1] * cx.dims[i], where
                return mats.get(i, SparseIntMatrix(cx.dims[i + 1], cx.dims[i]))

            psi = {i: [(e, 1) for e in range(dim)] for i, dim in cx.dims.items()}
            red = OrbitCancellingComplex(cx.dims, psi, 1, build)
            red.reduce(red.free_pivot)
            dims, diffs, _ = red.export()
            want = reduce_unit_pivots(FreeComplex(cx.dims, {i: m.copy() for i, m in cx.diffs.items()}))
            assert_same_complex({i: dims.get(i, 0) for i in cx.dims}, diffs,
                                want.dims, want.diffs, where)

    def test_totalize_matches_add_based_copy(self, diagrams, complexes):
        """The retracted total complex has the whole double complex's groups.

        The two are homotopy equivalent, not equal entry for entry.  The
        reference is taken once, at the default window: below its top
        degree the groups do not depend on where it is cut.
        """
        for name in corpus.corpus_names():
            if name == "t8_2":
                continue
            D = diagrams(name)
            default = 2 * D.ncross + 6
            cx = complexes(name)
            for j in cx.quantum_range():
                sl = cx.slice(j)
                if not sl.basis:
                    continue
                red = equivariant_reduce(sl, D.n)
                if not red.dims:
                    continue
                for d in range(1, D.n + 1):
                    if D.n % d:
                        continue
                    want = reference_slice_ext(red, D.n, d, default, D.n_minus)
                    for window in (0, 1, 6, default):
                        res = PeriodicResolution(D.n, d, window + D.n_minus + 2)
                        tot = _totalize(red, res, window + 1)
                        tot.check_composes()
                        got = reduce_unit_pivots(tot).homology()
                        assert {m: g for m, g in got.items() if m <= window} == \
                            {m: g for m, g in want.items() if m <= window}, (name, j, d, window)

    def test_orbits_walk_each_cycle_once_from_its_least_id(self):
        rng = random.Random(41)
        for _ in range(60):
            psi, cycles = random_signed_permutation(rng)
            seen = []
            for ids, signs, sigma in orbits(psi):
                assert ids[0] == min(ids) and len(signs) == len(ids) and signs[0] == 1
                assert any(set(ids) == set(cyc) for cyc in cycles)
                L = len(ids)
                for k in range(L):
                    # psi(e_{ids[k]}) = (signs[k+1] / signs[k]) e_{ids[k+1]}, and
                    # psi^L acts on ids[0] as sigma
                    nxt, s = psi[ids[k]]
                    assert nxt == ids[(k + 1) % L]
                    assert signs[k] * s == (signs[k + 1] if k + 1 < L else sigma)
                seen.extend(ids)
            assert sorted(seen) == list(range(len(psi)))

    def test_isotypic_basis_at_d1_d2_is_the_eigenlattice(self):
        rng = random.Random(37)
        for _ in range(40):
            psi, cycles = random_signed_permutation(rng)
            for d, eps in ((1, 1), (2, -1)):
                gens, coords = isotypic_basis(psi, d)
                want = 0
                for cyc in cycles:
                    sigma = 1
                    for e in cyc:
                        sigma *= psi[e][1]
                    want += sigma * eps ** len(cyc) == 1
                assert len(gens) == want
                for v in gens:
                    assert v[min(v)] == 1 and set(v.values()) <= {1, -1}
                    assert any(set(v) == set(cyc) for cyc in cycles)
                    image = {psi[e][0]: psi[e][1] * c for e, c in v.items()}
                    assert image == {e: eps * c for e, c in v.items()}
                assert [min(v) for v in gens] == sorted(min(v) for v in gens)
                # coordinates sit at the last id of each vector's orbit, walked from its least id
                last = []
                for v in gens:
                    e = min(v)
                    for _ in range(len(v) - 1):
                        e = psi[e][0]
                    last.append(e)
                assert {e: c for e, c in coords.items() if c} == \
                    {e: [(k, v[e])] for k, (e, v) in enumerate(zip(last, gens))}

    def test_project_matches_dense_product(self):
        rng = random.Random(31)
        for _ in range(30):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) if rng.random() < 0.4 else 0
                     for _ in range(nc)] for _ in range(nr)]
            gens = [{k: rng.choice((-2, -1, 1, 2)) for k in rng.sample(range(nc), rng.randint(0, nc))}
                    for _ in range(rng.randint(0, 4))]
            img = [[sum(rows[r][k] * v.get(k, 0) for k in range(nc)) for v in gens]
                   for r in range(nr)]
            assert to_dense(project_full_rows(from_dense(rows), gens, nr)) == img
            nout = rng.randint(1, 4)
            coords = {r: [(rng.randrange(nout), rng.choice((-2, -1, 1, 3)))
                          for _ in range(rng.randint(0, 2))]
                      for r in rng.sample(range(nr), rng.randint(0, nr))}
            want = [[0] * len(gens) for _ in range(nout)]
            for r, pairs in coords.items():
                for row, coef in pairs:
                    for col in range(len(gens)):
                        want[row][col] += coef * img[r][col]
            got = project(from_dense(rows), gens, nout, coords)
            assert (got.nrows, got.ncols) == (nout, len(gens))
            assert to_dense(got) == want
            assert all(v for row in got.rows.values() for v in row.values())
            # a column lists its rows once each, in no meaningful order
            assert {c: sorted(col) for c, col in got.cols.items()} == \
                {c: sorted(r for r, row in got.rows.items() if c in row)
                 for c in range(len(gens)) if any(row[c] for row in want)}


class TestIsotypicProjection:
    """`isotypic_basis` at every d and `isotypic_complex` on the corpus."""

    def test_coordinates_read_back_every_combination(self):
        """On signed orbits at d = 3, 4, 6 the basis spans ker Phi_d(psi), and
        the coordinates return the integer combination a vector was made of."""
        rng = random.Random(43)
        for _ in range(40):
            psi = random_signed_orbits(rng)
            for d in (3, 4, 6):
                gens, coords = isotypic_basis(psi, d)
                phi = eval_group_ring(cyclotomic(d), psi, len(psi))
                assert len(gens) == len(psi) - int_rank(phi), (psi, d)
                for v in gens:
                    assert all(sum(a * v.get(c, 0) for c, a in row.items()) == 0
                               for row in phi.rows.values()), (psi, d, v)
                for _ in range(3):
                    comb = [rng.randint(-4, 4) for _ in gens]
                    vec: dict[int, int] = {}
                    for c, v in zip(comb, gens):
                        for e, a in v.items():
                            vec[e] = vec.get(e, 0) + c * a
                    back = [0] * len(gens)
                    for e, pairs in coords.items():
                        for k, coef in pairs:
                            back[k] += coef * vec.get(e, 0)
                    assert back == comb, (psi, d)

    def test_projection_is_h_times_the_quotient_by_h(self):
        """On signed orbits at d = 1, 2, 3, 4, 6, iota(pi(e)) = h (t^m div h) for the
        unit vector e at ids[m] of an orbit, h = (t^L - sigma) / Phi_d; 0 where
        Phi_d does not divide t^L - sigma.  Divided here by plain long division."""
        rng = random.Random(61)
        for _ in range(40):
            psi = random_signed_orbits(rng)
            for d in (1, 2, 3, 4, 6):
                gens, coords = isotypic_basis(psi, d)
                for ids, signs, sigma in orbits(psi):
                    h, rem = divmod_monic([-sigma] + [0] * (len(ids) - 1) + [1], cyclotomic(d))
                    for m, e in enumerate(ids):
                        got: dict[int, int] = {}
                        for k, coef in coords.get(e, ()):
                            for f, a in gens[k].items():
                                got[f] = got.get(f, 0) + coef * a
                        want = {}
                        if not any(rem):
                            # e is signs[m] t^m; sum c_k t^k has the value c_k signs[k] at ids[k]
                            quot, _ = divmod_monic([0] * m + [signs[m]], h)
                            want = {ids[k]: c * signs[k] for k, c in enumerate(poly_mul(h, quot)) if c}
                        assert {f: a for f, a in got.items() if a} == want, (psi, d, e)

    def test_every_isotypic_complex_composes(self, diagrams, complexes):
        """d o d = 0 on the Phi_d part of every slice, whole and reduced, at every d | n.

        The corpus has no crossing with n = 4, so d = 4 is projected here but
        meets a nonzero differential only in `test_moves`' closures.
        """
        parts, seen = set(), set()
        for name in corpus.corpus_names():
            if name == "t8_2":
                continue
            D = diagrams(name)
            cx = complexes(name)
            for j in cx.quantum_range():
                sl = cx.slice(j)
                if not sl.basis:
                    continue
                fc = sl.to_free_complex()
                for d, iso in isotypic_parts(sl, D.n, fc.diffs):
                    iso.check_composes()
                    if iso.dims:
                        parts.add(d)
                    if iso.diffs:
                        seen.add(d)
        assert parts == {1, 2, 3, 4} and seen == {1, 2, 3}

    def test_isotypic_complex_holds_one_degree_of_coordinates(self):
        """The Phi_2 part of the whole `t6_2` slice j = 14 (3,476 generators)
        peaks at no more than 2.0 MB, with the diagram's tables warm: degree
        i's coordinates are dropped once d_{i-1} is projected, and no
        differential is alive while a basis is built.  Building every
        degree's coordinates first peaked at 2.34 MB."""
        sl = build_complex(corpus.build("t6_2")).slice(14)
        isotypic_complex(sl.dims, sl.psi, sl.diff, 2)  # the edge and labelling tables
        tracemalloc.start()
        try:
            gens, fc = isotypic_complex(sl.dims, sl.psi, sl.diff, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sl.dims.values()) == 3476 and fc.dims
        assert peak <= 2_000_000

    def test_rational_equivariant_matches_full_row_ranks(self, diagrams, complexes):
        """Per reduced slice, the isotypic ranks of the full-row projection."""
        for name in corpus.corpus_names():
            if name == "t8_2":
                continue
            D = diagrams(name)
            cx = complexes(name)
            for d in range(1, D.n + 1):
                if D.n % d:
                    continue
                want = {}
                for j in cx.quantum_range():
                    sl = cx.slice(j)
                    if sl.basis:
                        red = equivariant_reduce(sl, D.n)
                        want.update(((i, j), h) for i, h in slice_isotypic(red, d).items() if h)
                assert rational_equivariant(D, d)["dim_q"] == want, (name, d)
