from pkh import corpus
from pkh.action import (chain_module_decomposition, fixed_state_sign, s_exponent,
                        verify_module_structure)
from pkh.complexes import build_complex
from pkh.oracles import qdim_M
from pkh.polynomials import LaurentPoly


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

    def test_corrupted_sign_is_detected(self):
        # a diagram of its own: the corruption must not reach the shared complex
        d = corpus.build("hopf")
        cx = build_complex(d)
        sl = cx.slice(4)
        i = min(sl.basis)
        table = list(sl.psi(i))
        k, sign = table[0]
        table[0] = (k, -sign)
        sl._psi[i] = table
        report = verify_module_structure(d)
        assert not report["ok"]
        assert report["witness"] is not None


class TestFixedStateSign:
    def test_formula_instances(self, diagrams):
        assert s_exponent(2, 2, 2, 0) == 1
        assert s_exponent(2, 0, 2, 2) == 1
        d = diagrams("hopf")
        assert fixed_state_sign(d, (1, 1)) == -1
        assert fixed_state_sign(d, (0, 0)) == 1

    def test_odd_order_always_positive_for_d1(self, diagrams):
        d = diagrams("borromean_n3")
        for bits in range(1 << d.ncross):
            from pkh.diagram import isotropy
            if isotropy(d, bits) == 1:
                assert fixed_state_sign(d, bits) == 1

    def test_sign_matches_iterated_action(self, diagrams):
        # composing the generator n/d times must reproduce the formula sign
        for name in ("hopf", "unknot2_n2", "borromean_n3", "t4_2"):
            d = diagrams(name)
            cx = build_complex(d)
            from pkh.diagram import isotropy
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


class TestChainDecomposition:
    def test_hopf_weight_one(self, diagrams):
        d = diagrams("hopf")
        entries = chain_module_decomposition(d, 1)
        assert len(entries) == 1
        e = entries[0]
        assert (e["d"], e["size"], e["twist"]) == (1, 2, 0)
        assert e["qdim"] == LaurentPoly({2: 1, 4: 1})

    def test_hopf_weight_two_twist(self, diagrams):
        entries = chain_module_decomposition(diagrams("hopf"), 2)
        assert len(entries) == 1
        assert entries[0]["d"] == 2 and entries[0]["twist"] == 1

    def test_total_rank_matches_chain_group(self, diagrams, complexes):
        for name in ("hopf", "unknot2_n2", "borromean_n3", "t4_2"):
            d = diagrams(name)
            cx = complexes(name)
            dims = cx.dims()
            for r in range(d.ncross + 1):
                i = r - d.n_minus
                total = LaurentPoly.zero()
                for e in chain_module_decomposition(d, r):
                    total = total + e["size"] * e["qdim"]
                want = LaurentPoly({j: n for (ii, j), n in dims.items() if ii == i})
                assert total == want

    def test_odd_order_has_no_twist(self, diagrams):
        d = diagrams("borromean_n3")
        for r in range(d.ncross + 1):
            for e in chain_module_decomposition(d, r):
                assert e["twist"] == 0

    def test_trivial_link_label_orbit_refinement(self, diagrams):
        # the fixed-state label space of the 3-periodic trivial link splits
        # into one isotropy-3 block and one free block of label orbits
        d = diagrams("trivial_p3_k1_f0")
        entries = chain_module_decomposition(d, 0)
        assert len(entries) == 1
        e = entries[0]
        assert e["d"] == 3
        want = qdim_M(3, 1, 0, 1) + 3 * qdim_M(3, 1, 1, 1)
        assert e["qdim"] == want
        assert e["qdim"] == LaurentPoly.q_plus_qinv() ** 3
