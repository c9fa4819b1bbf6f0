import pytest

from pkh import corpus, spectral
from pkh.action import verify_module_structure
from pkh.complexes import build_complex, khovanov_homology, khovanov_polynomial
from pkh.errors import ValidationError
from pkh.homalg import SparseIntMatrix
from pkh.spectral import (crossing_orbit, e1_oracle, einf_abutment_ok, filtered_slice,
                          resolve_diagram, run_pages)
from helpers import bipoly_mul, rational, resolutions_tile


class TestResolvedDiagrams:
    def test_hopf_single_crossing_cone(self, diagrams):
        d = diagrams("hopf")
        zero, c0 = resolve_diagram(d, {0: 0})
        one, c1 = resolve_diagram(d, {0: 1})
        assert zero.ncross == 1 and one.ncross == 1
        # the one-smoothing of a positive crossing leaves a negative kink
        assert c0 == 0 and c1 == 1
        # both resolutions of the Hopf link are unknot diagrams
        expected = rational(khovanov_homology(diagrams("unknot0")))
        assert rational(khovanov_homology(zero)) == expected
        assert rational(khovanov_homology(one)) == expected

    def test_torus_block_resolutions(self, diagrams):
        # zero-resolving the marked orbit splits off an unknot
        d = diagrams("t4_2")
        X = crossing_orbit(d, d.ncross_t - 1)
        res, c = resolve_diagram(d, {x: 0 for x in X})
        assert c == 0
        got = khovanov_polynomial(res)
        want = bipoly_mul(khovanov_polynomial(diagrams("t3_2_flat")),
                          khovanov_polynomial(diagrams("unknot0")))
        assert got == want
        # one-resolving both gives the next torus link down
        res11, c11 = resolve_diagram(d, {x: 1 for x in X})
        assert c11 == 0
        assert khovanov_polynomial(res11) == khovanov_polynomial(diagrams("t2_2_flat"))

    def test_negative_crossing_bookkeeping(self, diagrams):
        d = diagrams("borromean_n3")
        # resolving nothing reproduces the diagram's own counts
        res, c = resolve_diagram(d, {})
        assert c == 0 and res.n_minus == d.n_minus

    def test_reorientation_minimizes_negatives(self, diagrams):
        # a kink's self-crossing sign is orientation independent, so the
        # canonical orientation cannot remove it
        d = diagrams("hopf")
        res, c = resolve_diagram(d, {1: 1})
        assert res.n_minus == 1 and c == 1
        # whereas crossings between distinct components can all be fixed:
        # the zero-resolution of the torus-block orbit is orientable positive
        d = diagrams("t5_2")
        X = crossing_orbit(d, d.ncross_t - 1)
        res, c = resolve_diagram(d, {x: 0 for x in X})
        assert res.n_minus == 0 and c == 0


class TestFiltration:
    def test_requires_crossings_of_diagram(self, diagrams):
        hopf = diagrams("hopf")
        with pytest.raises(ValidationError, match="crossings of the diagram"):
            run_pages(hopf, (5,))
        with pytest.raises(ValidationError, match="repeated crossings"):
            run_pages(hopf, (0, 0))

    def test_rotation_preserves_levels(self, diagrams):
        d = diagrams("t4_2")
        mask = sum(1 << c for c in crossing_orbit(d, 2))
        assert d.rotate_state(mask) == mask
        for bits in range(1 << d.ncross):
            assert (bits & mask).bit_count() == (d.rotate_state(bits) & mask).bit_count()

    def test_total_complex_bookkeeping(self, diagrams):
        for name in ("hopf", "t3_2", "unknot2_n2"):
            d = diagrams(name)
            assert resolutions_tile(d, crossing_orbit(d, 0))
        d = diagrams("t4_2")
        assert resolutions_tile(d, crossing_orbit(d, 1))


class TestPages:
    def test_empty_x_collapses_immediately(self, diagrams):
        d = diagrams("trefoil")
        pages = run_pages(d, ())
        kh = {k: f for k, (f, _) in khovanov_homology(d).items() if f}
        assert pages[0].total_dims() == kh
        assert pages[-1].total_dims() == kh

    def test_single_crossing_cone(self, diagrams):
        d = diagrams("trefoil")
        pages = run_pages(d, (0,))
        assert pages[0].entries == e1_oracle(d, (0,))
        assert einf_abutment_ok(d, pages)

    def test_hopf_full_orbit(self, diagrams):
        d = diagrams("hopf")
        X = crossing_orbit(d, 0)
        pages = run_pages(d, X)
        page = pages[0]
        assert page.entries == e1_oracle(d, X)
        cols = {}
        for (p, q, j), dim in page.entries.items():
            cols.setdefault(p, {})[j] = dim
        assert cols[0] == {0: 1, 2: 2, 4: 1}
        assert cols[1] == {2: 2, 4: 2}
        assert cols[2] == {2: 1, 4: 2, 6: 1}
        assert pages[1].total_dims() == pages[-1].total_dims()
        assert einf_abutment_ok(d, pages)

    def test_abutment_on_corpus(self, diagrams):
        for name in ("t3_2", "t4_2", "unknot2_n2", "borromean_n3"):
            d = diagrams(name)
            assert einf_abutment_ok(d, run_pages(d, crossing_orbit(d, 0)))

    def test_verify_hand_over_builds_the_pages_of_ss(self):
        """The slices `verify` hands over give the pages `ss` builds itself."""
        compared = 0
        for name in corpus.corpus_names():
            D = corpus.build(name)
            if not 0 < D.ncross <= 10:
                continue
            X = crossing_orbit(D, 0)
            slices = {}

            def to_pages(sl, fc):
                fs = filtered_slice(X, sl, fc)
                if fs is not None:
                    slices[sl.j] = fs

            verify_module_structure(D, to_pages)
            handed = run_pages(D, X, slices=slices)
            built = run_pages(D, X)
            assert [(pg.r, pg.entries, pg.d_ranks) for pg in handed] == \
                [(pg.r, pg.entries, pg.d_ranks) for pg in built], name
            compared += 1
        assert compared >= 8

    def test_page_dimension_consistency(self, diagrams):
        # H(E_r, d_r) has the dimensions of E_{r+1}
        d = diagrams("t3_2")
        X = crossing_orbit(d, 0)
        pages = run_pages(d, X)
        for cur, nxt in zip(pages, pages[1:]):
            r = cur.r
            keys = set(cur.entries) | set(nxt.entries)
            for p, q, j in keys:
                got = (cur.entries.get((p, q, j), 0)
                       - cur.d_ranks.get((p, q, j), 0)
                       - cur.d_ranks.get((p - r, q + r - 1, j), 0))
                if nxt.r != cur.r:
                    assert nxt.entries.get((p, q, j), 0) == got

    def test_e1_dims_from_quotient_complex_representatives(self, diagrams):
        # independent route to E_1: homology of each level's quotient complex
        from fractions import Fraction
        d = diagrams("hopf")
        X = crossing_orbit(d, 0)
        mask = sum(1 << c for c in X)
        page = run_pages(d, X)[0]
        cx = build_complex(d)
        got = {}
        for j in cx.quantum_range():
            sl = cx.slice(j)
            if not sl.basis:
                continue
            for p in range(len(X) + 1):
                picks = {i: [k for k, (b, _) in enumerate(basis)
                             if (b & mask).bit_count() == p]
                         for i, basis in sl.basis.items()}
                for m in sorted(sl.basis):
                    rows = picks.get(m + 1, [])
                    cols = picks.get(m, [])
                    if not cols:
                        continue
                    mat = sl.diff(m)
                    sub = [[Fraction(mat.get(r, c)) for c in cols] for r in rows]
                    out_rank = _frac_rank(sub)
                    prev = picks.get(m - 1, [])
                    matp = sl.diff(m - 1) if prev else None
                    subp = [[Fraction(matp.get(r, c)) for c in prev] for r in cols] if prev else []
                    in_rank = _frac_rank(subp)
                    dim = len(cols) - out_rank - in_rank
                    if dim:
                        got[(p, m - p, j)] = dim
        assert got == page.entries


def _frac_rank(rows):
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                for k in range(ncols):
                    rows[i][k] -= f * rows[rank][k]
        rank += 1
    return rank


class TestEquivariantPages:
    def test_sector_sum_matches_full_page(self, diagrams):
        d = diagrams("t4_2")
        X = crossing_orbit(d, d.ncross_t - 1)
        full = run_pages(d, X)[0].entries
        total = {}
        for sector in (1, 2):
            for k, v in run_pages(d, X, sector=sector)[0].entries.items():
                total[k] = total.get(k, 0) + v
        assert total == full

    def test_sector2_e2_single_entry(self, diagrams):
        for n in (4, 6):
            d = diagrams(f"t{n}_2")
            X = crossing_orbit(d, d.ncross_t - 1)
            page2 = run_pages(d, X, sector=2)[1]
            k = n // 2
            assert page2.entries == {(1, 2 * k - 1, 6 * k): 1}

    def test_hopf_sectors_match_homology(self, diagrams):
        from pkh.equivariant import rational_equivariant
        d = diagrams("hopf")
        X = crossing_orbit(d, 0)
        einf = run_pages(d, X, sector=2)[-1].total_dims()
        assert einf == dict(rational_equivariant(d, 2)["dim_q"])

    def test_sector_requires_order_two(self, diagrams):
        d = diagrams("borromean_n3")
        with pytest.raises(ValidationError):
            run_pages(d, crossing_orbit(d, 0), sector=2)

    def test_sector_must_divide_the_order(self, diagrams):
        d = diagrams("hopf")
        for sector in (3, 0, -2):
            with pytest.raises(ValidationError, match="does not divide"):
                run_pages(d, crossing_orbit(d, 0), sector=sector)

    def test_sector_requires_orbit(self, diagrams):
        with pytest.raises(ValidationError, match="invariant X"):
            run_pages(diagrams("t4_2"), (0, 1), sector=2)


def reference_filtered_reduce(dims, levels, mats):
    """Equal-level unit cancellation, first found first, on copies of mats."""
    alive = {m: set(range(n)) for m, n in dims.items()}
    work = {m: mat.copy() for m, mat in mats.items()}
    progress = True
    while progress:
        progress = False
        for m in list(work):
            mat = work[m]
            lv_s, lv_t = levels.get(m, []), levels.get(m + 1, [])
            for t in list(mat.rows):
                row = mat.rows.get(t)
                if not row:
                    continue
                for s, v in list(row.items()):
                    if v not in (1, -1) or lv_t[t] != lv_s[s] or mat.get(t, s) != v:
                        continue
                    _reference_cancel(work, m, t, s)
                    alive[m].discard(s)
                    alive[m + 1].discard(t)
                    progress = True
                    break
    remap = {m: {e: k for k, e in enumerate(sorted(s))} for m, s in alive.items()}
    new_dims = {m: len(s) for m, s in alive.items() if s}
    new_levels = {m: [levels[m][e] for e in sorted(s)] for m, s in alive.items() if s}
    new_mats = {}
    for m, mat in work.items():
        out = SparseIntMatrix(new_dims.get(m + 1, 0), new_dims.get(m, 0))
        for r, c, v in mat.entries():
            out.set(remap[m + 1][r], remap[m][c], v)
        if not out.is_zero():
            new_mats[m] = out
    return new_dims, new_levels, new_mats


def _reference_cancel(work, m, t, s):
    mat = work[m]
    rows, cols = mat.rows, mat.cols
    lam = rows[t][s]
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
        mat._drop(t, c)
    for r in list(cols.get(s, ())):
        mat._drop(r, s)
    if m - 1 in work:
        for c in list(work[m - 1].rows.get(s, {})):
            work[m - 1]._drop(s, c)
    if m + 1 in work:
        for r in list(work[m + 1].cols.get(t, ())):
            work[m + 1]._drop(r, t)


class TestFilteredReduction:
    def test_matches_reference_on_small_corpus(self, monkeypatch):
        """Same dims, levels and matrices, entry for entry, as the old reducer."""
        real = spectral._filtered_reduce
        seen = []

        def checked(dims, levels, mats):
            want = reference_filtered_reduce(dims, levels, mats)
            got = real(dims, levels, mats)
            assert list(got[0].items()) == list(want[0].items())
            assert list(got[1].items()) == list(want[1].items())
            assert list(got[2]) == list(want[2])
            for m, mat in want[2].items():
                assert (got[2][m].nrows, got[2][m].ncols) == (mat.nrows, mat.ncols)
                assert [(r, list(row.items())) for r, row in got[2][m].rows.items()] == \
                    [(r, list(row.items())) for r, row in mat.rows.items()]
            seen.append(sum(want[0].values()) < sum(dims.values()))
            return got

        monkeypatch.setattr(spectral, "_filtered_reduce", checked)
        for name in corpus.corpus_names():
            D = corpus.build(name)
            if not 0 < D.ncross <= 8:
                continue
            for X in {crossing_orbit(D, 0), crossing_orbit(D, D.ncross - 1)}:
                run_pages(D, X)
                if D.n == 2:
                    run_pages(D, X, sector=1)
                    run_pages(D, X, sector=2)
        assert any(seen)
