import random

import pytest

from pkh import corpus
from pkh.complexes import GradedAbGroup, khovanov_homology, khovanov_polynomial
from pkh.diagram import diagram_from_dict
from pkh.equivariant import (PeriodicResolution, _free_rows, equivariant_polynomials,
                             equivariant_reduce, ext_groups, hom_cohomology,
                             rational_equivariant, tail_checks, total_comparison)
from pkh.errors import ValidationError
from pkh.homalg import FreeComplex, eval_group_ring, reduce_unit_pivots
from pkh.oracles import euler_phi
from pkh.polynomials import BiPolynomial
from helpers import same_groups, slice_eigen, to_dense


class TestResolutions:
    def test_n2_maps(self):
        # the maps out of odd columns multiply by Phi_d, out of even ones by the cofactor
        res = PeriodicResolution(2, 2, 4)
        assert res.phi == [1, 1]       # t + 1
        assert res.cof == [-1, 1]      # t - 1
        res = PeriodicResolution(2, 1, 4)
        assert res.phi == [-1, 1]
        assert res.cof == [1, 1]

    def test_rejects_non_divisor(self):
        with pytest.raises(ValidationError):
            PeriodicResolution(6, 4, 3)

    def test_free_row_homotopy(self):
        """On a free orbit: g_{p-1} h + h g_p = 1, pi iota = 1, iota pi = 1 - h g_0.

        Checked on the regular representation and on a relabelled copy of
        it with signs (the same module in another basis), for n <= 12 and
        every d | n.
        """
        rng = random.Random(53)

        def matrix(table, nrows, ncols):
            out = [[0] * ncols for _ in range(nrows)]
            for c, entries in table.items():
                for r, v in entries:
                    out[r][c] += v
            return out

        def mul(a, b):
            return [[sum(x * b[k][c] for k, x in enumerate(row)) for c in range(len(b[0]))]
                    for row in a]

        def add(a, b):
            return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

        def one(k):
            return [[int(r == c) for c in range(k)] for r in range(k)]

        for n in range(1, 13):
            ids = list(range(n))
            rng.shuffle(ids)
            signs = [rng.choice((1, -1)) for _ in range(n - 1)]
            signs.append(1 if signs.count(-1) % 2 == 0 else -1)  # psi^n = 1
            relabelled = [None] * n
            for k, e in enumerate(ids):
                relabelled[e] = (ids[(k + 1) % n], signs[k])
            for d in range(1, n + 1):
                if n % d:
                    continue
                res = PeriodicResolution(n, d, 3)
                for psi in ([((e + 1) % n, 1) for e in range(n)], relabelled):
                    where = (n, d, psi)
                    nonfree, h, proj, incl = _free_rows(psi, res)
                    k = euler_phi(d)
                    assert nonfree == [] and len(incl) == k, where
                    g_phi, g_cof = (to_dense(eval_group_ring(g, psi, n)) for g in (res.phi, res.cof))
                    h_phi, h_cof = (matrix(table, n, n) for table in h)
                    # column p odd: g_{p-1} = Phi_d and g_p = cof; p even: the other way
                    assert add(mul(g_phi, h_phi), mul(h_cof, g_cof)) == one(n), where
                    assert add(mul(g_cof, h_cof), mul(h_phi, g_phi)) == one(n), where
                    pi = matrix(proj, k, n)
                    iota = matrix(dict(enumerate(list(v.items()) for v in incl)), n, k)
                    assert mul(pi, iota) == one(k), where
                    h_g0 = mul(h_phi, g_phi)
                    assert mul(iota, pi) == [[a - b for a, b in zip(ra, rb)]
                                             for ra, rb in zip(one(n), h_g0)], where

    def test_short_orbits_are_not_free(self):
        # n = 4: a free orbit, an orbit of length 2 and a fixed id
        psi = [(1, 1), (2, 1), (3, 1), (0, 1), (5, -1), (4, 1), (6, -1)]
        nonfree, h, proj, incl = _free_rows(psi, PeriodicResolution(4, 2, 3))
        assert nonfree == [4, 5, 6] and len(incl) == 1
        assert set(proj) == set(h[0]) == set(h[1]) == {0, 1, 2, 3}


def assert_action_commutes(red, n, where):
    """psi stays a signed permutation of order n that commutes with d."""
    for i, psi in red.psi.items():
        for k in range(len(psi)):
            cur, sign = k, 1
            for _ in range(n):
                cur, s = psi[cur][0], sign * psi[cur][1]
                sign = s
            assert (cur, sign) == (k, 1), where
    for i, mat in red.diffs.items():
        psi_s, psi_t = red.psi[i], red.psi[i + 1]
        for c in range(red.dims[i]):
            img, sg = psi_s[c]
            lhs = {}
            for r in mat.cols.get(img, ()):
                lhs[r] = lhs.get(r, 0) + sg * mat.rows[r][img]
            rhs = {}
            for r in mat.cols.get(c, ()):
                tr, ts = psi_t[r]
                rhs[tr] = rhs.get(tr, 0) + ts * mat.rows[r][c]
            assert lhs == rhs, (where, i, c)


class TestEquivariantReduction:
    def test_reduction_keeps_action_and_homology(self, diagrams, complexes):
        for name in ("hopf", "unknot2_n2", "borromean_n3"):
            d = diagrams(name)
            cx = complexes(name)
            for j in cx.quantum_range():
                sl = cx.slice(j)
                if not sl.basis:
                    continue
                red = equivariant_reduce(sl, d.n)
                assert_action_commutes(red, d.n, (name, j))
                # homology of the underlying complex is unchanged
                before = reduce_unit_pivots(sl.to_free_complex()).homology()
                after = FreeComplex(dict(red.dims), dict(red.diffs)).homology()
                assert before == after


    def test_action_commutes_on_small_corpus(self, diagrams, complexes):
        names = [name for name in corpus.corpus_names() if diagrams(name).ncross <= 8]
        assert "t5_2" in names and "borromean_n3" in names
        for name in names:
            cx = complexes(name)
            for j in cx.quantum_range():
                sl = cx.slice(j)
                if sl.basis:
                    assert_action_commutes(equivariant_reduce(sl, cx.D.n), cx.D.n, (name, j))


class TestExtGroups:
    def test_unknot_invariant_sector(self, diagrams):
        ext = ext_groups(diagrams("unknot0_n2"), 1, window=8)
        for j in (-1, 1):
            assert ext.group(0, j) == (1, ())
            for i in (2, 4, 6, 8):
                assert ext.group(i, j) == (0, (2,))
            for i in (1, 3, 5, 7):
                assert ext.group(i, j) == (0, ())

    def test_unknot_sign_sector(self, diagrams):
        ext = ext_groups(diagrams("unknot0_n2"), 2, window=8)
        for j in (-1, 1):
            assert ext.group(0, j) == (0, ())
            for i in (1, 3, 5, 7):
                assert ext.group(i, j) == (0, (2,))
            for i in (2, 4, 6, 8):
                assert ext.group(i, j) == (0, ())

    def test_invariance_under_equivariant_moves(self, diagrams):
        a = diagrams("unknot0_n2")
        b = diagrams("unknot2_n2")
        for d in (1, 2):
            ea = ext_groups(a, d, window=8)
            eb = ext_groups(b, d, window=8)
            assert same_groups(ea, eb, 8)

    def test_window_stability(self, diagrams):
        d = diagrams("hopf")
        small = ext_groups(d, 2, window=5)
        large = ext_groups(d, 2, window=9)
        assert same_groups(small, large, 5)

    def test_rejects_bad_divisor(self, diagrams):
        with pytest.raises(ValidationError):
            ext_groups(diagrams("hopf"), 3, window=4)

    def test_free_ranks_match_rational(self, diagrams):
        for name in ("hopf", "unknot2_n2", "t4_2", "borromean_n3"):
            D = diagrams(name)
            for d in range(1, D.n + 1):
                if D.n % d:
                    continue
                ext = ext_groups(D, d, window=D.n_plus + 2)
                rat = rational_equivariant(D, d)["dim_q"]
                free = {k: v[0] for k, v in ext.groups.items() if v[0]}
                want = {k: v for k, v in rat.items() if k[0] <= ext.window}
                assert free == want

    def test_ext0_matches_invariant_cocycles(self, diagrams):
        # at d = 1 and degree 0 the derived answer is plain Hom cohomology
        for name in ("hopf", "unknot0_n2", "unknot2_n2", "t3_2"):
            D = diagrams(name)
            if D.n_minus:
                continue
            ext = ext_groups(D, 1, window=2)
            hom = hom_cohomology(D, "trivial").as_dict()
            for j in {jj for (_, jj) in set(ext.groups) | set(hom)}:
                assert ext.group(0, j) == hom.get((0, j), (0, ()))


class TestHomCohomology:
    def test_unknot_diagrams_differ(self, diagrams):
        got = hom_cohomology(diagrams("unknot2_n2"), "sign").as_dict()
        assert got == {(2, 3): (0, (2,)), (2, 5): (0, (2,))}
        assert hom_cohomology(diagrams("unknot0_n2"), "sign").as_dict() == {}

    def test_trivial_module_at_n1_is_khovanov(self, diagrams):
        d = diagrams("trefoil")
        assert hom_cohomology(d, "trivial") == khovanov_homology(d)

    def test_matches_the_whole_slice_eigenlattice(self, diagrams, complexes):
        """The groups of the reduced slices are those of the whole slices."""
        for name in corpus.corpus_names():
            if name == "t8_2":
                continue
            D = diagrams(name)
            cx = complexes(name)
            for module, eps in (("trivial", 1), ("sign", -1)):
                if eps < 0 and D.n % 2:
                    continue
                want = {}
                for j in cx.quantum_range():
                    sl = cx.slice(j)
                    if sl.basis:
                        hom = reduce_unit_pivots(slice_eigen(sl, eps)).homology()
                        want.update(((i, j), grp) for i, grp in hom.items())
                assert hom_cohomology(D, module) == GradedAbGroup.from_dict(want), (name, module)

    def test_sign_needs_even_order(self, diagrams):
        with pytest.raises(ValidationError):
            hom_cohomology(diagrams("borromean_n3"), "sign")


class TestRational:
    def test_hopf_sectors(self, diagrams):
        r1 = rational_equivariant(diagrams("hopf"), 1)["dim_cyc"]
        r2 = rational_equivariant(diagrams("hopf"), 2)["dim_cyc"]
        assert r1 == {(0, 0): 1, (0, 2): 1, (2, 4): 1}
        assert r2 == {(2, 6): 1}

    def test_sectors_sum_to_classical(self, diagrams):
        for name in ("hopf", "t5_2", "borromean_n3"):
            D = diagrams(name)
            total = BiPolynomial.zero()
            for d in range(1, D.n + 1):
                if D.n % d:
                    continue
                data = rational_equivariant(D, d)
                total = total + BiPolynomial(data["dim_q"])
            assert total == khovanov_polynomial(D)

    def test_vanishing_below_totient(self):
        # trefoil with the full rotation of its three crossings: every
        # classical group has rank at most one, and phi(3) = 2 kills d = 3
        D = diagram_from_dict(corpus.braid_tangle((1,), 2, 3))
        assert khovanov_homology(D) == khovanov_homology(corpus.build("trefoil"))
        assert rational_equivariant(D, 3)["dim_q"] == {}

    def test_divisibility_by_totient(self, diagrams):
        data = rational_equivariant(diagrams("borromean_n3"), 3)
        assert all(v % 2 == 0 for v in data["dim_q"].values())


class TestPolynomialsAndStructure:
    def test_hopf_polynomials(self, diagrams):
        khp1, j1 = equivariant_polynomials(diagrams("hopf"), 1)
        khp2, j2 = equivariant_polynomials(diagrams("hopf"), 2)
        assert khp1 == BiPolynomial({(0, 0): 1, (0, 2): 1, (2, 4): 1})
        assert khp2 == BiPolynomial({(2, 6): 1})
        assert str(j1) == "1 + q^2 + q^4"
        assert str(j2) == "q^6"

    def test_total_comparison_small_corpus(self, diagrams):
        for name in ("hopf", "unknot2_n2", "t3_2", "borromean_n3",
                     "trivial_p3_k1_f1", "trivial_p2_k1_f2"):
            rep = total_comparison(diagrams(name))
            assert rep["ok"], rep["failures"]

    def test_total_comparison_is_exact_without_symmetry(self, diagrams):
        # rotation order 1: no primes to invert, equality on the nose
        rep = total_comparison(diagrams("trefoil"))
        assert rep["ok"] and rep["failures"] == []

    def test_trivial_link_has_order_torsion_before_inverting(self, diagrams):
        D = diagrams("trivial_p3_k1_f0")
        ext1 = ext_groups(D, 1, window=4)
        assert any(3 in tors or 9 in tors for _, tors in ext1.groups.values())

    def test_tails_on_unknots(self, diagrams):
        rep = tail_checks(diagrams("unknot0_n2"), 1, window=8)
        assert rep["ok"] and rep["annihilator"] == 2
        rep = tail_checks(diagrams("unknot0_n2"), 2, window=8)
        assert rep["ok"]

    def test_tail_needs_prime_power(self, diagrams):
        D = diagram_from_dict(corpus.braid_tangle((1,), 2, 6))
        with pytest.raises(ValidationError):
            tail_checks(D, 1)

    def test_tail_window_guard(self, diagrams):
        with pytest.raises(ValidationError):
            tail_checks(diagrams("hopf"), 1, window=3)
