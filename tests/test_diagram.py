import json
from collections import Counter
from math import comb

import pytest

from pkh import corpus
from pkh.diagram import Crossing, QuotientTangle, isotropy, parse_diagram
from pkh.errors import ParseError
from helpers import rotation_orbits
from test_moves import closure, closures


def as_text(spec):
    return json.dumps(spec)


class TestParsing:
    def test_hopf_from_one_crossing_tangle(self, diagrams):
        d = diagrams("hopf")
        assert d.n == 2
        assert d.ncross == 2
        assert d.n_plus == 2 and d.n_minus == 0

    def test_flat_closure_is_not_symmetric(self, diagrams):
        d = diagrams("trefoil")
        assert d.n == 1
        assert d.ncross == 3

    def test_crossing_counts_scale_with_n(self):
        for n in (1, 2, 3, 5):
            d = parse_diagram(as_text(corpus.braid_tangle((1, 2), 3, n)))
            assert d.ncross == 2 * n
            assert d.n_plus == 2 * n

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_diagram("{not json")

    def test_slot_used_twice(self):
        spec = corpus.unknot_two_crossing()
        spec["tangle"]["arcs"][1] = ["c0.0", "in0"]
        spec["tangle"]["orient"][1] = ["c0.0", "in0"]
        with pytest.raises(ParseError):
            parse_diagram(as_text(spec))

    def test_dangling_slot(self):
        spec = corpus.unknot_two_crossing()
        spec["tangle"]["arcs"] = spec["tangle"]["arcs"][:-1]
        spec["tangle"]["orient"] = spec["tangle"]["orient"][:-1]
        with pytest.raises(ParseError):
            parse_diagram(as_text(spec))

    def test_bad_rotation_order(self):
        spec = corpus.unknot_crossingless()
        spec["n"] = 0
        with pytest.raises(ParseError):
            parse_diagram(as_text(spec))

    def test_seam_mismatch(self):
        spec = corpus.trivial_link(2, 0, 1)
        spec["tangle"]["seam_out"].append("out9")
        with pytest.raises(ParseError):
            parse_diagram(as_text(spec))

    def test_inconsistent_orientation(self):
        spec = corpus.unknot_two_crossing()
        # reverse the closure arc: over-strand now both enters and leaves
        spec["tangle"]["orient"][2] = ["c0.3", "c0.2"]
        with pytest.raises(ParseError):
            parse_diagram(as_text(spec))

    def test_signs_are_derived_so_validation_always_runs(self):
        # an endpoint label used twice; given signs used to skip every check
        bad = ([Crossing(0, ("a", "a", "b", "c"))], [], [], [])
        with pytest.raises(TypeError):
            QuotientTangle(*bad, [1])
        with pytest.raises(ParseError, match="used twice"):
            QuotientTangle(*bad)

    def test_roundtrip(self, diagrams):
        for name in ("hopf", "unknot2_n2", "borromean_n3", "trivial_p4_k1_f1"):
            d = diagrams(name)
            again = parse_diagram(d.to_json())
            assert again.to_dict() == d.to_dict()


def glued(source, diagrams):
    """The corpus diagrams, or the move tests' braid closures of rotation order `source`."""
    if source == "corpus":
        return [(name, diagrams(name)) for name in corpus.corpus_names()]
    return [((source, strands, word), closure(word, strands, source))
            for word, strands in closures(source)]


@pytest.mark.parametrize("source", ["corpus", 2, 3, 4])
class TestGluing:
    """The arcs of the glued diagram, checked against the tangle they come from."""

    def test_each_slot_ends_one_arc(self, source, diagrams):
        for where, d in glued(source, diagrams):
            slots = [d.crossing_slots(g) for g in range(d.ncross)]
            assert Counter(e for ends in d.arcs for e in ends) == \
                Counter(e for s in slots for e in s), where
            arc_at = {e: k for k, ends in enumerate(d.arcs) for e in ends}
            assert d.slot_to_arc == arc_at, where
            assert d.crossing_arcs == tuple(tuple(arc_at[e] for e in s) for s in slots), where

    def test_an_arc_runs_from_a_tail_to_a_head(self, source, diagrams):
        for where, d in glued(source, diagrams):
            tails = {t for t, _ in d.tangle.arcs}
            heads = {h for _, h in d.tangle.arcs}
            for ends in d.arcs:
                assert ends == () or (len(ends) == 2 and ends[0][1] in tails
                                      and ends[1][1] in heads), (where, ends)

    def test_rotation_is_a_permutation_of_order_dividing_n(self, source, diagrams):
        for where, d in glued(source, diagrams):
            arcs = list(range(len(d.arcs)))
            assert sorted(d.inv_rot_arc) == arcs, where
            image = arcs
            for _ in range(d.n):
                image = [d.inv_rot_arc[k] for k in image]
            assert image == arcs, where

    def test_rotation_moves_crossing_arcs_back_one_copy(self, source, diagrams):
        for where, d in glued(source, diagrams):
            for g, arcs in enumerate(d.crossing_arcs):
                before = d.crossing_arcs[(g - d.ncross_t) % d.ncross]
                assert [d.inv_rot_arc[a] for a in arcs] == list(before), (where, g)


def n_circ(d, bits):
    return d.state_data(bits).n_circ


class TestSmoothing:
    # a smoothing is a bit mask: bit g is the smoothing at crossing g
    def test_hopf_circle_counts(self, diagrams):
        d = diagrams("hopf")
        assert [n_circ(d, bits) for bits in range(4)] == [2, 1, 1, 2]

    def test_crossingless_unknot(self, diagrams):
        assert n_circ(diagrams("unknot0"), 0) == 1
        assert n_circ(diagrams("unknot0_n2"), 0) == 1

    def test_two_crossing_unknot_counts(self, diagrams):
        d = diagrams("unknot2_n2")
        assert sorted(n_circ(d, bits) for bits in range(4)) == [1, 2, 2, 3]
        assert n_circ(d, 0) == 3

    def test_canonical_order(self, diagrams):
        # circles ascend by least arc id, and rep_arcs holds each one's least arc
        for name in ("hopf", "unknot2_n2", "borromean_n3"):
            d = diagrams(name)
            for bits in range(1 << d.ncross):
                sd = d.state_data(bits)
                least = [min(a for a, k in enumerate(sd.circ_of_arc) if k == c)
                         for c in range(sd.n_circ)]
                assert list(sd.rep_arcs) == least == sorted(least), (name, bits)

    def test_rotation_preserves_circle_count(self, diagrams):
        d = diagrams("t5_2")
        for bits in range(0, 1 << d.ncross, 37):
            assert d.state_data(bits).n_circ == d.state_data(d.rotate_state(bits)).n_circ

    def test_independent_of_arc_enumeration(self, diagrams):
        # listing the tangle arcs in another order must not change anything
        # observable: circle structure per state, signs, homology
        from pkh.complexes import khovanov_homology
        spec = corpus.unknot_two_crossing()
        perm = [2, 0, 1]
        spec["tangle"]["arcs"] = [spec["tangle"]["arcs"][k] for k in perm]
        spec["tangle"]["orient"] = [spec["tangle"]["orient"][k] for k in perm]
        shuffled = parse_diagram(as_text(spec))
        original = diagrams("unknot2_n2")
        assert shuffled.tangle.signs == original.tangle.signs
        for bits in range(4):
            assert n_circ(shuffled, bits) == n_circ(original, bits)
        assert khovanov_homology(shuffled) == khovanov_homology(original)


class TestIsotropy:
    def test_symmetric_and_asymmetric_states(self, diagrams):
        d = diagrams("unknot2_n2")
        assert [isotropy(d, bits) for bits in range(4)] == [2, 1, 1, 2]

    def test_n1_always_trivial(self, diagrams):
        d = diagrams("trefoil")
        for bits in range(8):
            assert isotropy(d, bits) == 1

    def test_divides_gcd_of_n_and_weight(self, diagrams):
        from math import gcd
        d = diagrams("borromean_n3")
        for bits in range(1 << d.ncross):
            assert gcd(d.n, bits.bit_count()) % isotropy(d, bits) == 0


class TestOrbits:
    def test_sizes_sum_to_binomial(self, diagrams):
        for name in ("hopf", "unknot2_n2", "borromean_n3", "t4_2"):
            d = diagrams(name)
            for r in range(d.ncross + 1):
                orbits = rotation_orbits(d, r)
                assert sum(size for _, _, size in orbits) == comb(d.ncross, r)
                # an orbit of n/h smoothings has a stabilizer of order h
                assert all(iso * size == d.n for _, iso, size in orbits), (name, r)

    def test_trivial_link_r0(self, diagrams):
        assert rotation_orbits(diagrams("trivial_p3_k1_f0"), 0) == [(0, 3, 1)]

    def test_hopf_orbits(self, diagrams):
        d = diagrams("hopf")
        assert rotation_orbits(d, 1) == [(0b01, 1, 2)]
        assert rotation_orbits(d, 2) == [(0b11, 2, 1)]
