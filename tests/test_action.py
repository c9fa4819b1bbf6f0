from collections import Counter

from pkh import corpus
from pkh.action import _action_failure, fixed_state_sign, s_exponent, verify_module_structure
from pkh.complexes import SliceComplex, build_complex
from pkh.diagram import isotropy
from pkh.oracles import qdim_M
from pkh.polynomials import LaurentPoly
from helpers import chain_dims, reference_action_failure, rotation_orbits


def with_psi(sl, i, table):
    """Make `sl.psi(i)` return `table`, and psi of every other degree what it would."""
    sl.psi = lambda deg: table if deg == i else SliceComplex.psi(sl, deg)


class TestGeneratorAction:
    def test_identity_for_n1(self, diagrams):
        cx = build_complex(diagrams("trefoil"))
        for j in cx.quantum_range():
            sl = cx.slice(j)
            for i in sl.basis:
                assert all(sl.psi(i)[k] == (k, 1) for k in range(sl.dim(i)))

    def test_two_crossing_unknot_swap_is_positive(self, complexes):
        cx = complexes("unknot2_n2")
        # the two one-smoothed states form an orbit swapped with sign +1
        for j in cx.quantum_range():
            sl = cx.slice(j)
            for i, basis in sl.basis.items():
                psi = sl.psi(i)
                for k, (bits, _) in enumerate(basis):
                    if bits in (0b01, 0b10):
                        assert psi[k][1] == 1
                        assert basis[psi[k][0]][0] != bits

    def test_module_structure_on_corpus(self, diagrams):
        for name in ("hopf", "unknot2_n2", "t3_2", "borromean_n3",
                     "trivial_p4_k1_f2"):
            assert verify_module_structure(diagrams(name))["ok"]

    def test_psi_is_built_afresh_for_each_caller(self, complexes):
        cx = complexes("borromean_n3")
        for j in cx.quantum_range():
            sl = cx.slice(j)
            for i in sl.dims:
                first, second = sl.psi(i), sl.psi(i)
                assert first == second and first is not second

    def test_corrupted_sign_is_detected(self):
        # a diagram of its own: the corruption must not reach the shared complex
        d = corpus.build("hopf")
        cx = build_complex(d)
        sl = cx.slice(4)
        i = min(sl.dims)
        table = sl.psi(i)
        k, sign = table[0]
        table[0] = (k, -sign)
        with_psi(sl, i, table)
        report = verify_module_structure(d)
        assert not report["ok"]
        assert report["witness"] is not None

    def test_wrong_order_is_reported_as_such(self):
        # -psi on a whole slice still commutes with d, but has order 6 when n = 3
        d = corpus.build("borromean_n3")
        sl = build_complex(d).slice(-3)
        sl.psi = lambda deg: [(k, -s) for k, s in SliceComplex.psi(sl, deg)]
        assert verify_module_structure(d) == {
            "ok": False, "composes": True, "acts": False,
            "check": "psi_order", "witness": (min(sl.dims), -3, 0)}

    def test_entrywise_check_matches_the_vector_reference(self):
        """Same check and witness as comparing d(psi x) with psi(d x) as
        vectors, with psi's sign flipped at one generator, or at one and its
        image, which keeps psi^n = 1 on a longer cycle; or with one entry of
        d raised by 1, which adds, removes or changes an entry."""
        seen = Counter()
        for name in ("hopf", "t3_2", "t4_2", "borromean_n3", "unknot2_n2"):
            # a diagram of its own: psi is rewritten on its slices
            cx = build_complex(corpus.build(name))
            n = cx.D.n
            for j in cx.quantum_range():
                sl = cx.slice(j)
                diffs = sl.to_free_complex().diffs
                for i in sl.dims:
                    psi = sl.psi(i)
                    for k in range(0, len(psi), max(1, len(psi) // 4)):
                        for flip in ({k}, {k, psi[k][0]}):
                            with_psi(sl, i, [(e, -s if x in flip else s)
                                             for x, (e, s) in enumerate(psi)])
                            got = _action_failure(sl, diffs, n)
                            assert got == reference_action_failure(sl, diffs, n), \
                                (name, j, i, flip)
                            seen[got and got[0]] += 1
                    del sl.psi  # the class's psi again
                for i, d in diffs.items():
                    for k in range(0, d.ncols, max(1, d.ncols // 3)):
                        for r in (0, d.nrows - 1):
                            d.add(r, k, 1)
                            got = _action_failure(sl, diffs, n)
                            assert got == reference_action_failure(sl, diffs, n), \
                                (name, j, i, r, k)
                            seen[got and got[0]] += 1
                            d.add(r, k, -1)
                assert _action_failure(sl, diffs, n) is None, (name, j)
        assert seen["psi_order"] and seen["psi_commutes"]


class TestFixedStateSign:
    def test_formula_instances(self, diagrams):
        assert s_exponent(2, 2, 2, 0) == 1
        assert s_exponent(2, 0, 2, 2) == 1
        d = diagrams("hopf")
        assert fixed_state_sign(d, 0b11) == -1
        assert fixed_state_sign(d, 0b00) == 1

    def test_odd_order_always_positive_for_d1(self, diagrams):
        d = diagrams("borromean_n3")
        for bits in range(1 << d.ncross):
            if isotropy(d, bits) == 1:
                assert fixed_state_sign(d, bits) == 1

    def test_sign_matches_iterated_action(self, diagrams):
        # composing the generator n/d times must reproduce the formula sign
        for name in ("hopf", "unknot2_n2", "borromean_n3", "t4_2"):
            d = diagrams(name)
            cx = build_complex(d)
            for j in cx.quantum_range():
                sl = cx.slice(j)
                for i, basis in sl.basis.items():
                    psi = sl.psi(i)
                    for k, (bits, xmask) in enumerate(basis):
                        dd = isotropy(d, bits)
                        cur, sign = k, 1
                        for _ in range(d.n // dd):
                            cur, s = psi[cur][0], sign * psi[cur][1]
                            sign = s
                        if basis[cur][0] == bits:
                            # landed on the same smoothing: compare scalar part
                            assert sign == fixed_state_sign(d, bits)


def label_qdim(d, bits):
    """Graded rank of the labellings of a smoothing: (q + 1/q)^circles, shifted
    to the quantum grading r + n_plus - 2 n_minus of its weight r."""
    shift = bits.bit_count() + d.n_plus - 2 * d.n_minus
    return (LaurentPoly.q_plus_qinv() ** d.state_data(bits).n_circ).shift(shift)


class TestChainDecomposition:
    """The weight-r chain group as a cyclic module, read off the smoothings:
    a block per rotation orbit, of isotropy h and size n/h, with the twist
    parity of `s_exponent` and the labellings of its least smoothing."""

    def test_hopf_weight_one(self, diagrams):
        d = diagrams("hopf")
        [(rep, h, size)] = rotation_orbits(d, 1)
        assert (h, size, s_exponent(d.n, 1, h, d.n_minus) & 1) == (1, 2, 0)
        assert label_qdim(d, rep) == LaurentPoly({2: 1, 4: 1})

    def test_hopf_weight_two_twist(self, diagrams):
        d = diagrams("hopf")
        [(rep, h, size)] = rotation_orbits(d, 2)
        assert h == 2 and s_exponent(d.n, 2, h, d.n_minus) & 1 == 1

    def test_total_rank_matches_chain_group(self, diagrams, complexes):
        for name in ("hopf", "unknot2_n2", "borromean_n3", "t4_2"):
            d = diagrams(name)
            dims = chain_dims(complexes(name))
            for r in range(d.ncross + 1):
                i = r - d.n_minus
                total = LaurentPoly.zero()
                for rep, _, size in rotation_orbits(d, r):
                    total = total + size * label_qdim(d, rep)
                want = LaurentPoly({j: n for (ii, j), n in dims.items() if ii == i})
                assert total == want, (name, r)

    def test_odd_order_has_no_twist(self, diagrams):
        d = diagrams("borromean_n3")
        for r in range(d.ncross + 1):
            for _, h, _ in rotation_orbits(d, r):
                assert s_exponent(d.n, r, h, d.n_minus) & 1 == 0

    def test_trivial_link_label_orbit_refinement(self, diagrams):
        # the fixed-state label space of the 3-periodic trivial link splits
        # into one isotropy-3 block and one free block of label orbits
        d = diagrams("trivial_p3_k1_f0")
        [(rep, h, size)] = rotation_orbits(d, 0)
        assert (h, size) == (3, 1)
        want = qdim_M(3, 1, 0, 1) + 3 * qdim_M(3, 1, 1, 1)
        assert label_qdim(d, rep) == want == LaurentPoly.q_plus_qinv() ** 3
