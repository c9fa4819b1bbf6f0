import random
from itertools import combinations

import pytest

from pkh import corpus
from pkh.complexes import (GradedAbGroup, build_complex, edge_sign,
                           graded_euler_characteristic, khovanov_homology,
                           khovanov_polynomial)
from pkh.diagram import diagram_from_dict
from pkh.errors import ValidationError
from pkh.homalg import SparseIntMatrix, reduce_unit_pivots
from pkh.polynomials import BiPolynomial, LaurentPoly


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


class TestEdgeSign:
    def test_hopf_cases(self, diagrams):
        d = diagrams("hopf")
        assert edge_sign(d, (0, 0), 0) == 1
        assert edge_sign(d, (0, 1), 0) == -1
        assert edge_sign(d, (0, 0), 1) == 1
        assert edge_sign(d, (1, 0), 1) == 1  # last crossing is always +1

    def test_flip_last_crossing(self, diagrams):
        d = diagrams("t4_2")
        last = d.ncross - 1
        for bits in range(0, 1 << last, 7):
            assert edge_sign(d, bits, last) == 1

    def test_already_smoothed(self, diagrams):
        with pytest.raises(ValidationError):
            edge_sign(diagrams("hopf"), (1, 0), 0)


class TestComplexStructure:
    def test_unknot_concentrated_in_degree_zero(self, complexes):
        cx = complexes("unknot0")
        assert cx.dims() == {(0, 1): 1, (0, -1): 1}

    def test_hopf_column_dimensions(self, complexes):
        cx = complexes("hopf")
        dims = cx.dims()
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
            for (i, j), n in cx.dims().items():
                term = LaurentPoly.monomial(j, n)
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


def reference_diff(D, src, tgt_index):
    """The differential worked out afresh for every enhanced state."""
    m = SparseIntMatrix(len(tgt_index), len(src))
    for col, (bits, xmask) in enumerate(src):
        sd = D.state_data(bits)
        for c in range(D.ncross):
            if (bits >> c) & 1:
                continue
            tbits = bits | (1 << c)
            td = D.state_data(tbits)
            sign = edge_sign(D, bits, c)
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
                    want = reference_diff(D, src, tgt_index)
                    got = sl.diff(i)
                    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
                    assert got.nnz == want.nnz, (name, j, i)
                    # same entries, inserted in the same order
                    assert [(r, list(row.items())) for r, row in got.rows.items()] == \
                        [(r, list(row.items())) for r, row in want.rows.items()], (name, j, i)
                    assert [(c, list(col)) for c, col in got.cols.items()] == \
                        [(c, list(col)) for c, col in want.cols.items()], (name, j, i)

    def test_take_diff_hands_over_the_matrix(self):
        cx = build_complex(corpus.build("t3_2"))
        fresh = build_complex(corpus.build("t3_2"))
        for j in cx.quantum_range():
            sl = cx.slice(j)
            for i in sl.basis:
                if i + 1 not in sl.basis:
                    continue
                taken = sl.take_diff(i)
                for r, c, _ in list(taken.entries()):
                    taken.add(r, c, 3)
                taken.set(0, 0, 7)
                want = fresh.slice(j).diff(i)
                again = sl.diff(i)
                assert again is not taken
                assert [(r, list(row.items())) for r, row in again.rows.items()] == \
                    [(r, list(row.items())) for r, row in want.rows.items()], (j, i)

    def test_homology_leaves_rebuildable_differentials(self):
        # khovanov_homology reduces the slices' own matrices in place
        cx = build_complex(corpus.build("t4_2"))
        fresh = build_complex(corpus.build("t4_2"))
        khovanov_homology(cx.D, "Z")
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
        for ring in ("Z", "Q"):
            calls.clear()
            khovanov_homology(cx.D, ring)
            assert calls == want, ring

    def test_one_complex_per_diagram(self, diagrams):
        d = diagrams("hopf")
        assert build_complex(d) is build_complex(d)
        assert khovanov_homology(d, "Q") is khovanov_homology(d, "Q")


class TestHomology:
    def test_hopf_rational(self, diagrams):
        kh = khovanov_homology(diagrams("hopf"), "Q")
        assert kh.as_dict() == {(0, 0): (1, ()), (0, 2): (1, ()),
                                (2, 4): (1, ()), (2, 6): (1, ())}

    def test_trefoil_rational_and_torsion(self, diagrams):
        kh = khovanov_homology(diagrams("trefoil"), "Z")
        assert kh.as_dict() == {(0, 1): (1, ()), (0, 3): (1, ()), (2, 5): (1, ()),
                                (3, 7): (0, (2,)), (3, 9): (1, ())}

    def test_unknot_diagrams_agree(self, diagrams):
        expected = GradedAbGroup.from_dict({(0, 1): (1, ()), (0, -1): (1, ())})
        for name in ("unknot0", "unknot0_n2", "unknot2_n2"):
            assert khovanov_homology(diagrams(name), "Z") == expected
        kinked = diagram_from_dict(corpus.braid_tangle((1,), 2, 1))
        assert khovanov_homology(kinked, "Z") == expected

    def test_reidemeister_invariance_trefoil(self, diagrams):
        flat = khovanov_homology(diagrams("trefoil"), "Z")
        periodic = khovanov_homology(diagrams("t3_2"), "Z")
        assert flat == periodic

    def test_reidemeister_invariance_torus(self, diagrams):
        for n in (4, 5):
            assert khovanov_homology(diagrams(f"t{n}_2"), "Z") == \
                khovanov_homology(diagrams(f"t{n}_2_flat"), "Z")

    def test_rational_ranks_match_integral_free_ranks(self, diagrams):
        for name in ("hopf", "borromean_n3", "t4_2"):
            z = khovanov_homology(diagrams(name), "Z")
            q = khovanov_homology(diagrams(name), "Q")
            assert q.poincare() == z.poincare()

    def test_mirror_symmetry_of_amphichiral_link(self, diagrams):
        kh = khovanov_homology(diagrams("borromean_n3"), "Q")
        assert kh == kh.mirror()


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
