"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line with its
runtime and enforces the stated budget.  Run with `pytest -s` to see the
lines as they complete.
"""

import time

from pkh import corpus
from pkh.action import verify_module_structure
from pkh.complexes import (graded_euler_characteristic, khovanov_polynomial)
from pkh.diagram import diagram_from_dict
from pkh.equivariant import (equivariant_polynomials, ext_groups,
                             hom_cohomology, tail_checks, total_comparison)
from pkh.homalg import rational_idempotents, smith_normal_form
from pkh.oracles import brute_orbit_qdims, qdim_M, torus_ekh2, torus_khp, trivial_link_ekh
from pkh.polynomials import BiPolynomial, LaurentPoly
from pkh.spectral import crossing_orbit, einf_abutment_ok, run_pages
from helpers import determinantal_factors, from_dense, same_groups

SMALL_CORPUS = [n for n in corpus.corpus_names() if n not in ("t7_2", "t8_2")]


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.name}: {status} in {elapsed:.1f}s "
              f"(budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded runtime budget"


def test_criterion_01_hopf_equivariant_polynomials(diagrams):
    with Budget("1 hopf equivariant polynomials", 1):
        d = diagrams("hopf")
        khp1, _ = equivariant_polynomials(d, 1)
        khp2, _ = equivariant_polynomials(d, 2)
        assert khp1 == BiPolynomial({(0, 0): 1, (0, 2): 1, (2, 4): 1})
        assert khp2 == BiPolynomial({(2, 6): 1})


def test_criterion_02_plain_hom_discrepancy(diagrams):
    with Budget("2 plain-Hom discrepancy", 1):
        got = hom_cohomology(diagrams("unknot2_n2"), "sign").as_dict()
        assert got == {(2, 5): (0, (2,)), (2, 3): (0, (2,))}
        assert hom_cohomology(diagrams("unknot0_n2"), "sign").as_dict() == {}


def test_criterion_03_equivariant_reidemeister_invariance(diagrams):
    with Budget("3 equivariant Reidemeister invariance", 5):
        a, b = diagrams("unknot0_n2"), diagrams("unknot2_n2")
        for d in (1, 2):
            assert same_groups(ext_groups(a, d, window=8), ext_groups(b, d, window=8), 8)


def test_criterion_04_trivial_links_match_oracle(diagrams):
    with Budget("4 trivial links vs closed form", 120):
        cases = 0
        for pn, p, n in ((2, 2, 1), (3, 3, 1), (4, 2, 2)):
            for k in range(0, 6 // pn + 1):
                for f in range(0, 7 - k * pn):
                    if k + f == 0 or k * pn + f > 6:
                        continue
                    D = diagrams(f"trivial_p{pn}_k{k}_f{f}")
                    for u in range(n + 1):
                        got = ext_groups(D, p ** (n - u), window=6).groups
                        want = {key: v
                                for key, v in trivial_link_ekh(p, n, k, f, u, 6).items()
                                if v[0] or v[1]}
                        assert got == want, (pn, k, f, u)
                        cases += 1
        assert cases == 79


def test_criterion_04_at_sixteen_circles():
    """Criterion 4 at 16 circles, where the whole double complex took 5 s and 168 MB."""
    with Budget("4 trivial links vs closed form, 16 circles", 10):
        for pn, p, n in ((2, 2, 1), (4, 2, 2)):
            k = 16 // pn
            D = diagram_from_dict(corpus.trivial_link(pn, k, 0))
            for u in range(n + 1):
                got = ext_groups(D, p ** (n - u), window=6).groups
                want = {key: v for key, v in trivial_link_ekh(p, n, k, 0, u, 6).items()
                        if v[0] or v[1]}
                assert got == want, (pn, u)


def test_criterion_05_torus_classical_polynomials(diagrams):
    with Budget("5 torus classical polynomials", 60):
        for n in range(2, 9):
            got = khovanov_polynomial(diagrams(f"t{n}_2_flat"))
            assert got == torus_khp(n), n


def test_criterion_06_torus_equivariant_polynomials(diagrams):
    with Budget("6 torus equivariant polynomials", 300):
        for n in range(2, 9):
            D = diagrams(f"t{n}_2")
            khp1, _ = equivariant_polynomials(D, 1)
            khp2, _ = equivariant_polynomials(D, 2)
            want1, want2 = torus_ekh2(n)
            assert khp2 == want2, n
            assert khp1 == want1, n
            assert khp1 == torus_khp(n) - khp2, n


def test_criterion_07_sector_two_e2_page(diagrams):
    with Budget("7 sector-2 second page", 120):
        for n in (4, 6):
            D = diagrams(f"t{n}_2")
            X = crossing_orbit(D, D.ncross_t - 1)
            page2 = run_pages(D, X, sector=2)[1]
            k = n // 2
            assert page2.entries == {(1, 2 * k - 1, 6 * k): 1}, n


def test_criterion_08_localization(diagrams):
    with Budget("8 localization over the corpus", 300):
        for name in corpus.corpus_names():
            D = diagrams(name)
            if D.n not in (2, 3):
                continue
            rep = total_comparison(D)
            assert rep["ok"], (name, rep["failures"])


def test_criterion_09_periodic_torsion_tails(diagrams):
    with Budget("9 periodicity and torsion of tails", 300):
        for name in corpus.corpus_names():
            D = diagrams(name)
            if D.n not in (2, 3):
                continue
            for d in range(1, D.n + 1):
                if D.n % d:
                    continue
                rep = tail_checks(D, d)
                assert rep["ok"], (name, d, rep["failures"])


def test_criterion_10_orbit_identity(diagrams):
    with Budget("10 orbit identity", 30):
        for p in (2, 3, 5, 7, 11, 13):
            n = 1
            while p ** n <= 16:
                for k in range(1, 16 // p ** n + 1):
                    brute = brute_orbit_qdims(p, n, k)
                    total = LaurentPoly.zero()
                    for s in range(n + 1):
                        formula = qdim_M(p, n, s, k)
                        assert formula == brute.get(s, LaurentPoly.zero())
                        total = total + (p ** s) * formula
                    assert total == LaurentPoly.q_plus_qinv() ** (k * p ** n)
                n += 1


def test_criterion_11_core_invariant_suite(diagrams, complexes):
    with Budget("11 core invariants on the corpus", 600):
        import random
        for name in corpus.corpus_names():
            D = diagrams(name)
            cx = complexes(name)
            for j in cx.quantum_range():
                cx.slice(j).to_free_complex().check_composes()
            assert verify_module_structure(D)["ok"], name
            chi = khovanov_polynomial(D).at_t_minus_one()
            assert chi == graded_euler_characteristic(D), name
        for name in SMALL_CORPUS:
            D = diagrams(name)
            if D.ncross:
                assert einf_abutment_ok(D, run_pages(D, crossing_orbit(D, 0))), name
        for name in ("t7_2", "t8_2"):
            D = diagrams(name)
            assert einf_abutment_ok(D, run_pages(D, crossing_orbit(D, 0))), name
        for n in range(1, 13):
            from fractions import Fraction
            es = rational_idempotents(n)
            total = [Fraction(0)] * n
            for e in es.values():
                for k in range(n):
                    total[k] += e[k]
            assert total[0] == 1 and all(v == 0 for v in total[1:]), n
        rng = random.Random(2024)
        for _ in range(10):
            rows = [[rng.randint(-5, 5) if rng.random() < 0.4 else 0
                     for _ in range(8)] for _ in range(8)]
            a = from_dense(rows)
            assert smith_normal_form(a).factors == determinantal_factors(rows)
