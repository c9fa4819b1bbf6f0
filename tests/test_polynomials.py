from pkh.polynomials import BiPolynomial, LaurentPoly


class TestLaurent:
    def test_arithmetic(self):
        q = LaurentPoly.q_plus_qinv()
        assert q * q == LaurentPoly({2: 1, 0: 2, -2: 1})
        assert (q - q) == LaurentPoly.zero()
        assert q ** 3 == q * q * q
        assert 2 * q == q + q

    def test_shift_and_substitution(self):
        q = LaurentPoly.q_plus_qinv()
        assert q.shift(3) == LaurentPoly({4: 1, 2: 1})
        assert q.substitute_power(2) == LaurentPoly({2: 1, -2: 1})

    def test_strings(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.q_plus_qinv()) == "q^-1 + q"
        assert str(LaurentPoly({0: -2, 3: 1})) == "-2 + q^3"

    def test_exact_division(self):
        assert LaurentPoly({1: 4, -1: 6}).divide_int(2) == LaurentPoly({1: 2, -1: 3})


class TestBiPolynomial:
    def test_arithmetic_and_evaluation(self):
        p = BiPolynomial({(0, 0): 1, (2, 4): 1})
        q = BiPolynomial({(1, 2): 3})
        assert (p + q) - q == p
        assert p.at_t_minus_one() == LaurentPoly({0: 1, 4: 1})
        assert BiPolynomial({(1, 2): 1}).at_t_minus_one() == LaurentPoly({2: -1})

    def test_strings(self):
        assert str(BiPolynomial.monomial(4, 12)) == "t^4*q^12"
        assert str(BiPolynomial({(0, 0): 1, (0, 2): 1, (2, 4): 1})) == "1 + q^2 + t^2*q^4"
        assert str(BiPolynomial({(0, -1): 1, (0, 1): 1})) == "q^-1 + q"
        assert str(BiPolynomial.zero()) == "0"


def test_the_two_polynomial_types_are_never_equal():
    assert LaurentPoly.zero() != BiPolynomial.zero()
    assert LaurentPoly({0: 1}) != BiPolynomial({(0, 0): 1})
    assert BiPolynomial({(0, 0): 1}) != LaurentPoly({0: 1})
