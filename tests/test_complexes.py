import random
import weakref
from collections import Counter
from itertools import combinations

import pytest

from pkh import corpus
from pkh.cli import main
from pkh.complexes import (GradedAbGroup, SliceComplex, build_complex,
                           graded_euler_characteristic, khovanov_homology,
                           khovanov_polynomial)
from pkh.diagram import diagram_from_dict
from pkh.homalg import (CancellingComplex, FreeComplex, OrbitCancellingComplex, SparseIntMatrix,
                        reduce_unit_pivots)
from pkh.polynomials import BiPolynomial, LaurentPoly
from helpers import chain_dims, fraction_rank, mirror, rational
from test_moves import MAX_CROSSINGS, closures


class TestFrobeniusStructure:
    # the label conventions baked into the differential, written out:
    # merge is the algebra product, split is the coproduct
    M = {(0, 0): {(0,): 1}, (0, 1): {(1,): 1}, (1, 0): {(1,): 1}, (1, 1): {}}
    D = {(0,): {(0, 1): 1, (1, 0): 1}, (1,): {(1, 1): 1}}

    def test_unit_and_degree(self):
        # product and coproduct both drop the label degree (#1s - #Xs) by one
        for (a, b), out in self.M.items():
            for (c,), _ in out.items():
                assert (1 - 2 * c) == (1 - 2 * a) + (1 - 2 * b) - 1
        for (a,), out in self.D.items():
            for (b, c), _ in out.items():
                assert (1 - 2 * b) + (1 - 2 * c) == (1 - 2 * a) - 1

    def test_frobenius_identity(self):
        # (m x id) o (id x comul) equals comul o m on pairs of labels
        for a in (0, 1):
            for b in (0, 1):
                lhs = {}
                for (b1, b2), c1 in self.D[(b,)].items():
                    for (m,), c2 in self.M[(a, b1)].items():
                        lhs[(m, b2)] = lhs.get((m, b2), 0) + c1 * c2
                rhs = {}
                for (m,), c1 in self.M[(a, b)].items():
                    for pair, c2 in self.D[(m,)].items():
                        rhs[pair] = rhs.get(pair, 0) + c1 * c2
                assert {k: v for k, v in lhs.items() if v} == \
                    {k: v for k, v in rhs.items() if v}

    def test_differential_realizes_the_algebra(self, diagrams, complexes):
        # merging two circles labelled X kills the term: on the Hopf link the
        # X.X state at degree 0 is a cocycle for that reason
        d = diagrams("hopf")
        sl = complexes("hopf").slice(0)
        basis = sl.basis[0]
        assert len(basis) == 1  # the all-X labelling of the 0-state
        assert sl.diff(0).is_zero()


def edge_entries(cx):
    """(source smoothing, target smoothing, entry) of every entry of every d_i."""
    for j in cx.quantum_range():
        sl = cx.slice(j)
        basis = sl.basis
        for i in basis:
            if i + 1 in basis:
                for r, c, v in sl.diff(i).entries():
                    yield basis[i][c][0], basis[i + 1][r][0], v


class TestEdgeSign:
    """Every entry of the differential lies on an edge of the cube, flipping
    one 0-smoothed crossing c, and is the sign (-1)^(1-smoothed crossings
    after c): the algebra's structure constants are all 1."""

    def test_hopf_cases(self, complexes):
        signs = set(edge_entries(complexes("hopf")))
        assert signs == {(0b00, 0b01, 1), (0b10, 0b11, -1), (0b00, 0b10, 1), (0b01, 0b11, 1)}

    def test_flip_last_crossing(self, diagrams, complexes):
        last = 1 << (diagrams("t4_2").ncross - 1)
        flips = [v for src, tgt, v in edge_entries(complexes("t4_2")) if tgt ^ src == last]
        assert flips and all(v == 1 for v in flips)

    def test_already_smoothed(self, complexes):
        for src, tgt, v in edge_entries(complexes("borromean_n3")):
            flip = tgt ^ src
            assert src & flip == 0 and flip.bit_count() == 1, (src, tgt)
            assert v == (-1) ** (src >> flip.bit_length()).bit_count()


class TestComplexStructure:
    def test_unknot_concentrated_in_degree_zero(self, complexes):
        cx = complexes("unknot0")
        assert chain_dims(cx) == {(0, 1): 1, (0, -1): 1}

    def test_hopf_column_dimensions(self, complexes):
        cx = complexes("hopf")
        dims = chain_dims(cx)
        # (q+1/q)^2 q^2, twice (q+1/q) q^3 and (q+1/q)^2 q^4
        assert {j: n for (i, j), n in dims.items() if i == 0} == {0: 1, 2: 2, 4: 1}
        assert {j: n for (i, j), n in dims.items() if i == 1} == {2: 2, 4: 2}
        assert {j: n for (i, j), n in dims.items() if i == 2} == {2: 1, 4: 2, 6: 1}

    def test_d_squared_zero_on_corpus(self, complexes):
        for name in ("hopf", "unknot2_n2", "t4_2", "borromean_n3", "trivial_p2_k2_f1"):
            cx = complexes(name)
            for j in cx.quantum_range():
                cx.slice(j).to_free_complex().check_composes()

    def test_d_squared_zero_random_braids(self):
        rng = random.Random(42)
        for _ in range(6):
            strands = rng.randint(2, 4)
            word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                         for _ in range(6))
            d = diagram_from_dict(corpus.braid_tangle(word, strands, 1))
            cx = build_complex(d)
            for j in cx.quantum_range():
                cx.slice(j).to_free_complex().check_composes()

    def test_euler_characteristic_matches_chain_level(self, diagrams, complexes):
        for name in ("hopf", "trefoil", "unknot2_n2", "borromean_n3"):
            cx = complexes(name)
            chain = LaurentPoly.zero()
            for (i, j), n in chain_dims(cx).items():
                term = LaurentPoly({j: n})
                chain = chain + (term if i % 2 == 0 else -term)
            assert chain == graded_euler_characteristic(diagrams(name))


def reference_basis(cx, j):
    """The j-slice basis from a scan of all 2^N smoothings, one at a time."""
    D = cx.D
    basis = {}
    for bits in range(1 << D.ncross):
        sd = D.state_data(bits)
        r = bits.bit_count()
        twice = sd.n_circ + r + cx.shift_j - j
        if twice % 2 or not 0 <= twice // 2 <= sd.n_circ:
            continue
        lvl = basis.setdefault(r + cx.shift_i, [])
        for combo in combinations(range(sd.n_circ), twice // 2):
            lvl.append((bits, sum(1 << k for k in combo)))
    return basis


def reference_diff(D, src, tgt_index, leads=None):
    """The differential worked out afresh for every enhanced state.

    Each circle away from the crossing is carried to the target circle of
    its least arc (`rep_arcs`), with no use of the canonical order.  With
    `leads`, only those columns are filled.
    """
    m = SparseIntMatrix(len(tgt_index), len(src))
    for col, (bits, xmask) in enumerate(src):
        if leads is not None and col not in leads:
            continue
        sd = D.state_data(bits)
        for c in range(D.ncross):
            if (bits >> c) & 1:
                continue
            tbits = bits | (1 << c)
            td = D.state_data(tbits)
            sign = (-1) ** (bits >> (c + 1)).bit_count()  # 1-smoothed crossings after c
            arcs = [D.slot_to_arc[e] for e in D.crossing_slots(c)]
            s_at = {sd.circ_of_arc[a] for a in arcs}
            t_at = {td.circ_of_arc[a] for a in arcs}
            base = 0
            for k in range(sd.n_circ):
                if k not in s_at and (xmask >> k) & 1:
                    base |= 1 << td.circ_of_arc[sd.rep_arcs[k]]
            if len(s_at) == 2:
                k1, k2 = sorted(s_at)
                xa, xb = (xmask >> k1) & 1, (xmask >> k2) & 1
                if xa and xb:
                    continue
                tmask = base | ((xa | xb) << next(iter(t_at)))
                m.add(tgt_index[(tbits, tmask)], col, sign)
            else:
                k = next(iter(s_at))
                t1, t2 = sorted(t_at)
                if (xmask >> k) & 1:
                    m.add(tgt_index[(tbits, base | (1 << t1) | (1 << t2))], col, sign)
                else:
                    m.add(tgt_index[(tbits, base | (1 << t1))], col, sign)
                    m.add(tgt_index[(tbits, base | (1 << t2))], col, sign)
    return m


def assert_same_matrix(got, want, where):
    """Equal shape and entries, with rows and columns inserted in the same order."""
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols), where
    assert got.nnz == want.nnz, where
    assert [(r, list(row.items())) for r, row in got.rows.items()] == \
        [(r, list(row.items())) for r, row in want.rows.items()], where
    assert [(c, list(col)) for c, col in got.cols.items()] == \
        [(c, list(col)) for c, col in want.cols.items()], where


class TestEdgeTables:
    """The per-edge, bucketed builder against a per-enhanced-state rescan."""

    def test_matches_reference_builder(self, complexes):
        names = [n for n in corpus.corpus_names() if corpus.build(n).ncross <= 10]
        assert "t6_2" in names
        for name in names:
            cx = complexes(name)
            D = cx.D
            scan = [(bits.bit_count(), D.state_data(bits).n_circ)
                    for bits in range(1 << D.ncross)]
            lo = min(r - c for r, c in scan) + cx.shift_j
            hi = max(r + c for r, c in scan) + cx.shift_j
            assert cx.quantum_range() == range(lo, hi + 1, 2), name
            for j in cx.quantum_range():
                sl = cx.slice(j)
                ref = reference_basis(cx, j)
                assert list(sl.basis.items()) == list(ref.items()), (name, j)
                for i, src in ref.items():
                    if i + 1 not in ref:
                        continue
                    tgt_index = {be: k for k, be in enumerate(ref[i + 1])}
                    assert_same_matrix(sl.diff(i), reference_diff(D, src, tgt_index),
                                       (name, j, i))

    @pytest.mark.parametrize("n", [3, 4])
    def test_shift_rule_on_generated_closures(self, n):
        """Full builds and builds on a seeded random column subset, on every
        n = 3 and n = 4 closure of the move tests; every full build composes."""
        for word, strands in closures(n):
            D = diagram_from_dict(corpus.braid_tangle(word, strands, n))
            cx = build_complex(D)
            rng = random.Random(f"{n}-{strands}-{word}")
            for j in cx.quantum_range():
                sl = cx.slice(j)
                ref = reference_basis(cx, j)
                assert list(sl.basis.items()) == list(ref.items()), (word, j)
                diffs = {}
                for i, src in ref.items():
                    if i + 1 not in ref:
                        continue
                    where = (n, strands, word, j, i)
                    tgt_index = {be: k for k, be in enumerate(ref[i + 1])}
                    diffs[i] = sl.build_diff(i)
                    assert_same_matrix(diffs[i], reference_diff(D, src, tgt_index), where)
                    keep = bytearray(rng.random() < 0.3 for _ in src)
                    assert_same_matrix(sl.build_diff(i, keep),
                                       reference_diff(D, src, tgt_index, kept(keep)), where)
                FreeComplex(sl.dims, diffs).check_composes()

    def test_diff_builds_a_fresh_matrix(self):
        """Two `diff(i)` calls give two matrices; changing one spares the next."""
        cx = build_complex(corpus.build("t3_2"))
        fresh = build_complex(corpus.build("t3_2"))
        for j in cx.quantum_range():
            sl = cx.slice(j)
            for i in sl.basis:
                if i + 1 not in sl.basis:
                    continue
                first, second = sl.diff(i), sl.diff(i)
                assert first is not second
                for r, c, _ in list(first.entries()):
                    first.add(r, c, 3)
                first.set(0, 0, 7)
                want = fresh.slice(j).diff(i)
                for again in (second, sl.diff(i)):
                    assert [(r, list(row.items())) for r, row in again.rows.items()] == \
                        [(r, list(row.items())) for r, row in want.rows.items()], (j, i)
                    assert again.cols == want.cols, (j, i)

    def test_homology_leaves_rebuildable_differentials(self):
        # the sweep reduces the matrices it builds in place; later builds are intact
        cx = build_complex(corpus.build("t4_2"))
        fresh = build_complex(corpus.build("t4_2"))
        khovanov_homology(cx.D)
        for j in cx.quantum_range():
            sl = cx.slice(j)
            for i in sl.basis:
                if i + 1 not in sl.basis:
                    continue
                got, want = sl.diff(i), fresh.slice(j).diff(i)
                assert (got.nrows, got.ncols) == (want.nrows, want.ncols), (j, i)
                assert [(r, list(row.items())) for r, row in got.rows.items()] == \
                    [(r, list(row.items())) for r, row in want.rows.items()], (j, i)
                assert got.cols == want.cols, (j, i)

    def test_one_unit_reduction_per_slice(self, monkeypatch):
        calls = []

        def counted(cx):
            calls.append(sum(cx.dims.values()))
            return reduce_unit_pivots(cx)

        monkeypatch.setattr("pkh.complexes.reduce_unit_pivots", counted)
        cx = build_complex(corpus.build("t4_2"))
        slices = [cx.slice(j) for j in cx.quantum_range()]
        want = [sum(len(b) for b in sl.basis.values()) for sl in slices if sl.basis]
        calls.clear()
        khovanov_homology(cx.D)
        assert calls == want
        khovanov_homology(cx.D)
        assert calls == want

    def test_one_complex_per_diagram(self, diagrams):
        d = diagrams("hopf")
        assert build_complex(d) is build_complex(d)
        assert khovanov_homology(d) is khovanov_homology(d)


def kept(keep):
    """The columns a flag mask keeps, as a set."""
    return {c for c, flag in enumerate(keep) if flag}


def orbit_leads(psi):
    """The least id of each cycle of a signed permutation, by walking it."""
    leads = set()
    for e in range(len(psi)):
        orbit, cur = [e], psi[e][0]
        while cur != e:
            orbit.append(cur)
            cur = psi[cur][0]
        leads.add(min(orbit))
    return leads


def assert_restricted(got, full, keep, where):
    """`got` is `full` on the columns c with keep[c] set, entry for entry."""
    assert (got.nrows, got.ncols) == (full.nrows, full.ncols), where
    want = {r: [(c, v) for c, v in row.items() if keep[c]] for r, row in full.rows.items()}
    assert {r: list(row.items()) for r, row in got.rows.items()} == \
        {r: row for r, row in want.items() if row}, where
    assert [(c, list(col)) for c, col in got.cols.items()] == \
        [(c, list(col)) for c, col in full.cols.items() if keep[c]], where


class TestLeadColumns:
    def test_lead_columns_match_full_build(self):
        """d_i on the orbit-lead columns is d_i restricted to them, entry for entry.

        Rows list their entries in the same order; a row may be created at
        another point, since the columns before its first lead are skipped.
        """
        for name in corpus.corpus_names():
            D = corpus.build(name)
            if D.ncross > 8:
                continue
            cx = build_complex(D)
            for j in cx.quantum_range():
                sl = cx.slice(j)
                for i in sl.basis:
                    if i + 1 not in sl.basis:
                        continue
                    leads = orbit_leads(sl.psi(i))
                    keep = bytearray(c in leads for c in range(sl.dim(i)))
                    assert_restricted(sl.build_diff(i, keep), sl.diff(i), keep, (name, j, i))


class TestColumnMasks:
    """A column mask is indexed, on degrees of more than 256 generators.

    `c in keep` on a bytearray asks whether the byte value c occurs: it
    raises from c = 256 on and answers the wrong question below that.
    """

    @staticmethod
    def wide_degrees():
        """(diagram, slice, degree) for every degree of t6_2 with over 256
        generators and a differential out of it."""
        D = corpus.build("t6_2")
        cx = build_complex(D)
        out = [(D, cx.slice(j), i) for j in cx.quantum_range()
               for i, dim in cx.slice(j).dims.items() if dim > 256 and i + 1 in cx.slice(j).dims]
        assert out
        return out

    def test_random_mask_restricts_the_full_build(self):
        rng = random.Random(43)
        for _, sl, i in self.wide_degrees():
            keep = bytearray(rng.random() < 0.5 for _ in range(sl.dim(i)))
            assert_restricted(sl.build_diff(i, keep), sl.diff(i), keep, (sl.j, i))

    def test_orbit_kernel_builds_on_its_lead_mask(self):
        """`OrbitCancellingComplex` flags exactly the least id of each orbit,
        and builds d_i on those columns."""
        for D, sl, i in self.wide_degrees():
            psi = {k: sl.psi(k) for k in sl.dims}
            masks = {}

            def build(k, keep):
                masks[k] = bytes(keep)
                return sl.build_diff(k, keep)

            red = OrbitCancellingComplex(sl.dims, psi, D.n, build)
            assert kept(masks[i]) == orbit_leads(psi[i]), (sl.j, i)
            assert_restricted(red.mats[i], sl.diff(i), masks[i], (sl.j, i))


def reference_khovanov_homology(D) -> GradedAbGroup:
    """Khovanov homology over Z with every d_i of a slice built in full.

    The reduction before the degree sweep: one `FreeComplex` per slice,
    reduced by global rounds.  Nothing is cached on the slices.
    """
    cx = build_complex(D)
    groups = {}
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if not sl.basis:
            continue
        dims = sl.dims
        red = reduce_unit_pivots(FreeComplex(dims, {i: sl.build_diff(i) for i in dims
                                                     if i + 1 in dims}))
        for i, grp in red.homology().items():
            groups[(i, j)] = grp
    return GradedAbGroup.from_dict(groups)


def recorded_builds(monkeypatch):
    """Every `SliceComplex.build_diff` from now on, as (j, i, kept columns or
    None, nnz); a mask has one flag per degree-i generator."""
    builds = []
    build = SliceComplex.build_diff

    def recorded(sl, i, keep=None):
        m = build(sl, i, keep)
        if keep is not None:
            assert len(keep) == sl.dim(i), (sl.j, i)
        builds.append((sl.j, i, None if keep is None else kept(keep), m.nnz))
        return m

    monkeypatch.setattr(SliceComplex, "build_diff", recorded)
    return builds


class TestDegreeSweep:
    """`reduce_unit_pivots` sweeps a slice degree by degree."""

    @staticmethod
    def assert_matches_reference(D, where, monkeypatch):
        exported = []

        def checked(cx):
            out = reduce_unit_pivots(cx)
            out.check_composes()
            exported.append(out)
            return out

        monkeypatch.setattr("pkh.complexes.reduce_unit_pivots", checked)
        assert khovanov_homology(D) == reference_khovanov_homology(D), where
        cx = build_complex(D)
        assert len(exported) == sum(1 for j in cx.quantum_range() if cx.slice(j).basis)

    def test_matches_full_build_on_corpus(self, monkeypatch):
        for name in corpus.corpus_names():
            if name != "t8_2":
                # a fresh diagram, so no homology cached by another test is reused
                self.assert_matches_reference(corpus.build(name), name, monkeypatch)

    def test_matches_full_build_on_generated_closures(self, monkeypatch):
        for n in sorted(MAX_CROSSINGS):
            for word, strands in closures(n):
                D = diagram_from_dict(corpus.braid_tangle(word, strands, n))
                self.assert_matches_reference(D, (n, strands, word), monkeypatch)

    def test_builds_each_differential_on_the_survivors(self, monkeypatch):
        """d_i is built once, on the degree-i ids not cancelled as rows of d_{i-1}."""
        events = recorded_builds(monkeypatch)
        cancel = CancellingComplex.cancel

        def recorded_cancel(red, i, t, s):
            events.append(("cancel", i, t))
            cancel(red, i, t, s)

        monkeypatch.setattr(CancellingComplex, "cancel", recorded_cancel)
        for name in ("t4_2", "t5_2"):
            cx = build_complex(corpus.build(name))
            events.clear()
            khovanov_homology(cx.D)
            built, cancelled = {}, {}
            for event in events:
                if event[0] == "cancel":
                    _, i, t = event
                    cancelled.setdefault(i + 1, set()).add(t)
                    continue
                j, i, cols, nnz = event
                if j not in built:
                    built[j], cancelled = {}, {}
                assert i not in built[j] and all(k < i for k in built[j]), (name, j, i)
                want = set(range(cx.slice(j).dim(i))) - cancelled.get(i, set())
                assert cols == want, (name, j, i)
                built[j][i] = nnz
            full = 0
            for j in cx.quantum_range():
                dims = cx.slice(j).dims
                steps = [i for i in dims if i + 1 in dims]
                assert sorted(built.get(j, {})) == sorted(steps), (name, j)
                full += sum(cx.slice(j).build_diff(i).nnz for i in steps)
            total = sum(nnz for per_slice in built.values() for nnz in per_slice.values())
            assert total < full, name

    @staticmethod
    def assert_builds_once_in_full(command, monkeypatch, tmp_path):
        """`command` builds each d_i once in full and once on the survivors."""
        builds = recorded_builds(monkeypatch)
        for name in ("t4_2", "t5_2"):
            D = corpus.build(name)
            path = tmp_path / f"{name}.json"
            path.write_text(D.to_json())
            builds.clear()
            assert main([command, str(path)]) == 0, name
            cx = build_complex(D)
            steps = {(j, i) for j in cx.quantum_range() for i in cx.slice(j).dims
                     if i + 1 in cx.slice(j).dims}
            full, swept = Counter(), Counter()
            for j, i, cols, nnz in builds:
                if cols is None:
                    full[(j, i)] += 1
                else:
                    swept[(j, i)] += 1
                    assert cols <= set(range(cx.slice(j).dim(i))), (name, j, i)
            assert full == dict.fromkeys(steps, 1), name
            assert swept == dict.fromkeys(steps, 1), name
            assert sum(nnz for _, _, cols, nnz in builds if cols is not None) < \
                sum(nnz for _, _, cols, nnz in builds if cols is None), name

    def test_verify_builds_each_differential_once_in_full(self, monkeypatch, tmp_path):
        """`verify`'s checks and pages share one full build of each d_i; the
        sweep behind its homology builds d_i again on the survivors only."""
        self.assert_builds_once_in_full("verify", monkeypatch, tmp_path)

    def test_verify_builds_each_psi_once(self, monkeypatch, tmp_path):
        """`verify` builds psi once per degree of each slice: the table of
        degree i + 1 that its check of d_i reads is carried to degree i + 1."""
        built = Counter()
        psi = SliceComplex.psi

        def counted(sl, i):
            built[(sl.j, i)] += 1
            return psi(sl, i)

        monkeypatch.setattr(SliceComplex, "psi", counted)
        for name in ("t4_2", "t5_2"):
            D = corpus.build(name)
            path = tmp_path / f"{name}.json"
            path.write_text(D.to_json())
            built.clear()
            assert main(["verify", str(path)]) == 0, name
            cx = build_complex(D)
            degrees = {(j, i) for j in cx.quantum_range() for i in cx.slice(j).dims}
            assert built == dict.fromkeys(degrees, 1), name

    def test_ss_builds_each_differential_once_in_full(self, monkeypatch, tmp_path):
        """`ss` builds each d_i in full for its pages and on the survivors for
        the homology its abutment check compares with."""
        self.assert_builds_once_in_full("ss", monkeypatch, tmp_path)

    def test_verify_drops_each_slice_before_the_next(self, monkeypatch, tmp_path):
        """No full d_i of slice j is alive when the first of the next slice is built."""
        build = SliceComplex.build_diff
        refs, slices = [], []

        class Tracked(SparseIntMatrix):
            __slots__ = ("__weakref__",)

        def tracked(sl, i, leads=None):
            m = build(sl, i, leads)
            if leads is not None:
                return m
            if not slices or slices[-1] != sl.j:
                assert all(ref() is None for ref in refs), (slices, sl.j, i)
                slices.append(sl.j)
            out = Tracked(m.nrows, m.ncols)
            out.rows, out.cols = m.rows, m.cols
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(SliceComplex, "build_diff", tracked)
        path = tmp_path / "t4_2.json"
        path.write_text(corpus.build("t4_2").to_json())
        assert main(["verify", str(path)]) == 0
        assert len(slices) > 1
        assert all(ref() is None for ref in refs)


class TestHomology:
    def test_hopf_rational(self, diagrams):
        kh = rational(khovanov_homology(diagrams("hopf")))
        assert kh.as_dict() == {(0, 0): (1, ()), (0, 2): (1, ()),
                                (2, 4): (1, ()), (2, 6): (1, ())}

    def test_trefoil_rational_and_torsion(self, diagrams):
        kh = khovanov_homology(diagrams("trefoil"))
        assert kh.as_dict() == {(0, 1): (1, ()), (0, 3): (1, ()), (2, 5): (1, ()),
                                (3, 7): (0, (2,)), (3, 9): (1, ())}

    def test_unknot_diagrams_agree(self, diagrams):
        expected = GradedAbGroup.from_dict({(0, 1): (1, ()), (0, -1): (1, ())})
        for name in ("unknot0", "unknot0_n2", "unknot2_n2"):
            assert khovanov_homology(diagrams(name)) == expected
        kinked = diagram_from_dict(corpus.braid_tangle((1,), 2, 1))
        assert khovanov_homology(kinked) == expected

    def test_reidemeister_invariance_trefoil(self, diagrams):
        flat = khovanov_homology(diagrams("trefoil"))
        periodic = khovanov_homology(diagrams("t3_2"))
        assert flat == periodic

    def test_reidemeister_invariance_torus(self, diagrams):
        for n in (4, 5):
            assert khovanov_homology(diagrams(f"t{n}_2")) == \
                khovanov_homology(diagrams(f"t{n}_2_flat"))

    def test_rational_ranks_match_dense_fraction_elimination(self):
        # rank-nullity over Q on every full d_i, with no elimination of the package
        for name in ("hopf", "t3_2", "t4_2", "borromean_n3"):
            cx = build_complex(corpus.build(name))
            want = {}
            for j in cx.quantum_range():
                fc = cx.slice(j).to_free_complex()
                for i, n in fc.dims.items():
                    free = n - fraction_rank(fc.diff(i)) - fraction_rank(fc.diff(i - 1))
                    want[(i, j)] = (free, ())
            assert rational(khovanov_homology(cx.D)) == GradedAbGroup.from_dict(want), name

    def test_mirror_symmetry_of_amphichiral_link(self, diagrams):
        kh = rational(khovanov_homology(diagrams("borromean_n3")))
        assert kh == mirror(kh)


class TestPolynomials:
    def test_unknot(self, diagrams):
        assert khovanov_polynomial(diagrams("unknot0")) == BiPolynomial(
            {(0, 1): 1, (0, -1): 1})

    def test_euler_specialization(self, diagrams):
        for name in ("hopf", "trefoil", "borromean_n3", "unknot2_n2"):
            d = diagrams(name)
            khp = khovanov_polynomial(d)
            assert khp.at_t_minus_one() == graded_euler_characteristic(d)

    def test_hopf_euler_value(self, diagrams):
        chi = graded_euler_characteristic(diagrams("hopf"))
        assert chi == LaurentPoly({0: 1, 2: 1, 4: 1, 6: 1})
