import pytest

from pkh.errors import ValidationError
from pkh.oracles import (brute_orbit_qdims, group_cohomology_cyclotomic, poly_P, qdim_M,
                         torus_ekh2, torus_khp, trivial_link_ekh)
from pkh.polynomials import BiPolynomial, LaurentPoly


class TestPolyP:
    def test_base_cases(self):
        assert poly_P(2, 0) == LaurentPoly.q_plus_qinv()
        assert poly_P(2, 1) == LaurentPoly.one()
        assert poly_P(3, 1) == LaurentPoly.q_plus_qinv()

    def test_nonnegative_integer_coefficients(self):
        for p, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)):
            assert all(c > 0 for _, c in poly_P(p, n).items())

    def test_rejects_composite(self):
        with pytest.raises(ValidationError):
            poly_P(4, 1)


def orbit_cases(limit=16):
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** n <= limit:
            for k in range(1, limit // p ** n + 1):
                yield p, n, k
            n += 1


class TestOrbitIdentity:
    @pytest.mark.parametrize("p,n,k", list(orbit_cases()))
    def test_formula_matches_enumeration(self, p, n, k):
        brute = brute_orbit_qdims(p, n, k)
        for s in range(n + 1):
            assert qdim_M(p, n, s, k) == brute.get(s, LaurentPoly.zero())

    @pytest.mark.parametrize("p,n,k", list(orbit_cases()))
    def test_blocks_sum_to_full_label_space(self, p, n, k):
        total = LaurentPoly.zero()
        for s in range(n + 1):
            total = total + (p ** s) * qdim_M(p, n, s, k)
        assert total == LaurentPoly.q_plus_qinv() ** (k * p ** n)

    def test_isotropy_one_block_is_p(self):
        for p, n in ((2, 1), (3, 1), (2, 2)):
            assert qdim_M(p, n, s=n, k=1).substitute_power(1) == \
                poly_P(p, n).substitute_power(1)

    def test_fixed_circle_factor(self):
        got = qdim_M(3, 1, 1, 1, f=1)
        assert got == LaurentPoly.q_plus_qinv() * qdim_M(3, 1, 1, 1)


class TestCyclicCohomology:
    def test_trivial_coefficients(self):
        # Z, 0, Z/p^e, 0, Z/p^e, ...
        assert group_cohomology_cyclotomic(2, 1, 0, 0) == (1, ())
        assert group_cohomology_cyclotomic(2, 1, 0, 2) == (0, (2,))
        assert group_cohomology_cyclotomic(2, 1, 0, 3) == (0, ())
        assert group_cohomology_cyclotomic(3, 2, 0, 4) == (0, (9,))

    def test_coefficient_cohomology(self):
        assert group_cohomology_cyclotomic(2, 1, 0, 0) == (1, ())
        assert group_cohomology_cyclotomic(2, 1, 1, 1) == (0, (2,))
        assert group_cohomology_cyclotomic(2, 2, 1, 3) == (0, (2,))
        assert group_cohomology_cyclotomic(3, 1, 1, 2) == (0, ())


class TestTrivialLinkOracle:
    def test_unknot_sector_one(self):
        groups = trivial_link_ekh(2, 1, 0, 1, u=1, window=8)
        for j in (-1, 1):
            assert groups[(0, j)] == (1, ())
            for i in (2, 4, 6, 8):
                assert groups[(i, j)] == (0, (2,))
            assert (1, j) not in groups

    def test_unknot_sector_two(self):
        groups = trivial_link_ekh(2, 1, 0, 1, u=0, window=8)
        for j in (-1, 1):
            for i in (1, 3, 5, 7):
                assert groups[(i, j)] == (0, (2,))
            assert (0, j) not in groups and (2, j) not in groups

    def test_binomial_multiplicities_with_fixed_circles(self):
        groups = trivial_link_ekh(2, 1, 0, 2, u=1, window=2)
        assert groups[(0, 0)] == (2, ())
        assert groups[(0, 2)] == (1, ())
        assert groups[(2, 0)] == (0, (2, 2))


class TestTorusPolynomials:
    def test_hopf_and_trefoil(self):
        assert torus_khp(2) == BiPolynomial({(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1})
        assert torus_khp(3) == BiPolynomial({(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1})

    def test_t42_value(self):
        assert torus_khp(4) == BiPolynomial({(0, 2): 1, (0, 4): 1, (2, 6): 1,
                                             (3, 10): 1, (4, 10): 1, (4, 12): 1})

    def test_jones_skein_recursion(self):
        # q^-2 J(n) - q^2 J(n-2) = (1/q - q) J(n-1), anchored at the two-component
        # unlink, (q + 1/q)^2, and the unknot, q + 1/q
        unknot = LaurentPoly.q_plus_qinv()
        js = {0: unknot ** 2, 1: unknot}
        for n in range(2, 9):
            js[n] = torus_khp(n).at_t_minus_one()
        skein = LaurentPoly({-1: 1, 1: -1})
        for n in range(2, 9):
            lhs = js[n].shift(-2) - js[n - 2].shift(2)
            assert lhs == skein * js[n - 1]

    def test_equivariant_split(self):
        for n in range(2, 9):
            s1, s2 = torus_ekh2(n)
            assert s1 + s2 == torus_khp(n)
            if n % 2:
                assert s2 == BiPolynomial.zero()
            else:
                k = n // 2
                assert s2 == BiPolynomial.monomial(2 * k, 6 * k)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            torus_khp(1)
