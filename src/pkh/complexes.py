"""The Khovanov cochain complex of a (possibly periodic) diagram.

Enhanced states are pairs (smoothing, circle labels) over the rank-two
Frobenius algebra A = Z[X]/(X^2) with deg 1 = +1, deg X = -1.  A basis
element with weight r, p circles labelled 1 and q labelled X sits in
cohomological degree i = r - n_minus and quantum degree
j = (p - q) + r + n_plus - 2 n_minus.  Differential signs follow the
right-counting convention: flipping crossing c contributes
(-1)^(number of 1-smoothed crossings after c in copy-major order).

The differential is assembled from one record per edge of the cube of
smoothings (target smoothing, sign, merge or split, circle transport),
so per labelling only the X bits are carried across.  Each diagram has
one complex, kept on the diagram by `build_complex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .diagram import PeriodicDiagram, _as_state
from .errors import InvariantError, ValidationError
from .homalg import FreeComplex, SparseIntMatrix, reduce_unit_pivots
from .polynomials import BiPolynomial, LaurentPoly


def edge_sign(diagram: PeriodicDiagram, state, crossing: int) -> int:
    """Sign attached to flipping `crossing` from 0 to 1 in `state`."""
    st = _as_state(diagram, state)
    if (st.bits >> crossing) & 1:
        raise ValidationError("crossing is already 1-smoothed")
    return _edge_sign(st.bits, crossing)


def _edge_sign(bits: int, crossing: int) -> int:
    later = bits >> (crossing + 1)
    return -1 if later.bit_count() & 1 else 1


class EdgeRecord(NamedTuple):
    """The edge of the cube of smoothings that flips one crossing 0 -> 1.

    Circle bits are `1 << k` for circle k in the canonical order of
    `PeriodicDiagram.state_data`.  The differential needs nothing else about
    an edge, so this is worked out once per edge, not once per labelling of
    the source state.
    """

    tbits: int      # target smoothing
    sign: int       # edge_sign of the source state at the crossing
    merge: bool     # two circles merge into one; otherwise one splits in two
    src: int        # bits of the source circle(s) at the crossing
    t1: int         # bit of the (lower) target circle at the crossing
    t2: int         # bit of the upper target circle of a split; 0 for a merge
    transport: tuple[int, ...]  # per source circle: its target bit, 0 at the crossing


class Labellings(NamedTuple):
    """The labellings of `nc` circles with exactly `x` of them X, in basis order."""

    masks: tuple[int, ...]                # X-labelled circles as a bit mask
    circles: tuple[tuple[int, ...], ...]  # the same circles as indices
    rank: dict[int, int]                  # mask -> its position in `masks`


@dataclass(frozen=True)
class GradedAbGroup:
    """Finitely generated graded abelian group, one summand per (i, j)."""

    groups: tuple[tuple[tuple[int, int], tuple[int, tuple[int, ...]]], ...]

    @classmethod
    def from_dict(cls, d: dict) -> "GradedAbGroup":
        items = []
        for key, (free, tors) in d.items():
            tors = tuple(t for t in tors if t > 1)
            if free or tors:
                items.append((tuple(key), (free, tors)))
        return cls(tuple(sorted(items)))

    def as_dict(self) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
        return dict(self.groups)

    def free_rank(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), (0, ()))[0]

    def poincare(self) -> BiPolynomial:
        return BiPolynomial({key: val[0] for key, val in self.groups if val[0]})

    def mirror(self) -> "GradedAbGroup":
        return GradedAbGroup(tuple(sorted(
            ((-i, -j), val) for (i, j), val in self.groups)))

    def __str__(self) -> str:
        bits = []
        for (i, j), (free, tors) in self.groups:
            parts = ([f"Z^{free}"] if free > 1 else ["Z"] if free else [])
            parts += [f"Z/{t}" for t in tors]
            bits.append(f"({i},{j}): " + " + ".join(parts))
        return "; ".join(bits) or "0"


class DiagramComplex:
    """Lazy j-sliced Khovanov complex of one diagram.

    Shared by its slices: the smoothings sorted once into (weight, circle
    count) buckets, and the outgoing edges of each smoothing.
    """

    def __init__(self, diagram: PeriodicDiagram):
        self.D = diagram
        self.shift_i = -diagram.n_minus
        self.shift_j = diagram.n_plus - 2 * diagram.n_minus
        self._slices: dict[int, "SliceComplex"] = {}
        self._homology: dict[str, GradedAbGroup] = {}  # ring -> khovanov_homology
        self._buckets: dict[tuple[int, int], list[int]] | None = None
        self._edges: dict[int, tuple[EdgeRecord, ...]] = {}
        # interned: a diagram has few distinct transports, and many edges
        self._transports: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._labellings: dict[tuple[int, int], Labellings] = {}

    def buckets(self) -> dict[tuple[int, int], list[int]]:
        """Smoothings keyed by (weight, circle count), each list ascending."""
        if self._buckets is None:
            D = self.D
            out: dict[tuple[int, int], list[int]] = {}
            for bits in range(1 << D.ncross):
                out.setdefault((bits.bit_count(), D.state_data(bits).n_circ), []).append(bits)
            self._buckets = out
        return self._buckets

    def quantum_range(self) -> range:
        keys = self.buckets()
        lo = min(r - c for r, c in keys) + self.shift_j
        hi = max(r + c for r, c in keys) + self.shift_j
        return range(lo, hi + 1, 2)

    def labellings(self, nc: int, x: int) -> Labellings:
        lab = self._labellings.get((nc, x))
        if lab is None:
            circles = tuple(combinations(range(nc), x))
            masks = tuple(sum(1 << k for k in combo) for combo in circles)
            lab = Labellings(masks, circles, {m: k for k, m in enumerate(masks)})
            self._labellings[(nc, x)] = lab
        return lab

    def edges(self, bits: int) -> tuple[EdgeRecord, ...]:
        """Records of the edges out of a smoothing, by ascending crossing."""
        recs = self._edges.get(bits)
        if recs is None:
            recs = self._edges[bits] = self._edge_records(bits)
        return recs

    def _edge_records(self, bits: int) -> tuple[EdgeRecord, ...]:
        D = self.D
        sd = D.state_data(bits)
        out = []
        for c, arcs in enumerate(D.crossing_arcs):
            if (bits >> c) & 1:
                continue
            tbits = bits | (1 << c)
            td = D.state_data(tbits)
            s_at = sorted({sd.circ_of_arc[a] for a in arcs})
            t_at = sorted({td.circ_of_arc[a] for a in arcs})
            if len(s_at) + len(t_at) != 3:
                raise InvariantError("smoothing change must merge or split circles")
            transport = tuple(0 if k in s_at else 1 << td.circ_of_arc[sd.rep_arcs[k]]
                              for k in range(sd.n_circ))
            transport = self._transports.setdefault(transport, transport)
            t2 = 1 << t_at[1] if len(t_at) == 2 else 0
            out.append(EdgeRecord(tbits, _edge_sign(bits, c), len(s_at) == 2,
                                  sum(1 << k for k in s_at), 1 << t_at[0], t2, transport))
        return tuple(out)

    def slice(self, j: int) -> "SliceComplex":
        sl = self._slices.get(j)
        if sl is None:
            sl = SliceComplex(self, j)
            self._slices[j] = sl
        return sl

    def dims(self) -> dict[tuple[int, int], int]:
        out = {}
        for j in self.quantum_range():
            for i, basis in self.slice(j).basis.items():
                if basis:
                    out[(i, j)] = len(basis)
        return out


class SliceComplex:
    """All degrees of the complex in one quantum degree j.

    Within a degree the basis runs over smoothings by ascending bits, and
    within a smoothing over its labellings in `Labellings` order; `blocks`
    records, per degree, each smoothing with its circle and X counts.
    """

    def __init__(self, parent: DiagramComplex, j: int):
        self.parent = parent
        self.j = j
        by_weight: dict[int, list[tuple[int, int, int]]] = {}
        for (r, nc), states in parent.buckets().items():
            # number of X labels forced by the quantum degree
            twice = nc + r + parent.shift_j - j
            if twice % 2 or not 0 <= twice // 2 <= nc:
                continue
            by_weight.setdefault(r, []).extend((bits, nc, twice // 2) for bits in states)
        basis: dict[int, list[tuple[int, int]]] = {}
        blocks: dict[int, list[tuple[int, int, int]]] = {}
        offsets: dict[int, dict[int, int]] = {}
        # degrees in the order a scan of ascending bits meets them
        for r, blk in sorted(by_weight.items(), key=lambda item: min(item[1])):
            blk.sort()
            i = r + parent.shift_i
            lvl = basis[i] = []
            offsets[i] = off = {}
            for bits, nc, x in blk:
                off[bits] = len(lvl)
                lvl.extend([(bits, m) for m in parent.labellings(nc, x).masks])
            blocks[i] = blk
        self.basis = basis
        self.blocks = blocks
        self._offsets = offsets
        self._diffs: dict[int, SparseIntMatrix] = {}
        self._psi: dict[int, list[tuple[int, int]]] = {}

    def dim(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    def diff(self, i: int) -> SparseIntMatrix:
        m = self._diffs.get(i)
        if m is None:
            m = self._build_diff(i)
            self._diffs[i] = m
        return m

    def _build_diff(self, i: int) -> SparseIntMatrix:
        cx = self.parent
        tgt_off = self._offsets.get(i + 1, {})
        m = SparseIntMatrix(self.dim(i + 1), self.dim(i))
        rows, cols = m.rows, m.cols
        # target smoothing -> labelling mask -> row; one int object per row
        row_of: dict[int, dict[int, int]] = {}
        col = 0
        for bits, nc, x in self.blocks.get(i, ()):
            out = []
            for tbits, sign, merge, src, t1, t2, tr in cx.edges(bits):
                if merge and x == nc:
                    continue  # every labelling multiplies X.X = 0
                row_t = row_of.get(tbits)
                if row_t is None:
                    lab = cx.labellings(nc - 1, x) if merge else cx.labellings(nc + 1, x + 1)
                    off = tgt_off[tbits]
                    row_t = row_of[tbits] = {mask: off + k for mask, k in lab.rank.items()}
                out.append((row_t, sign, merge, src, t1, t2, tr))
            lab = cx.labellings(nc, x)
            for xmask, xcircles in zip(lab.masks, lab.circles):
                # the entries of one column never collide, so write them directly
                hit = set()
                for row_t, sign, merge, src, t1, t2, tr in out:
                    base = 0
                    for k in xcircles:
                        base |= tr[k]
                    xs = xmask & src
                    if merge:
                        if xs == src:
                            continue  # X.X = 0
                        targets = (base | t1,) if xs else (base,)
                    elif xs:
                        targets = (base | t1 | t2,)
                    else:
                        targets = (base | t1, base | t2)
                    for tmask in targets:
                        r = row_t[tmask]
                        row = rows.get(r)
                        if row is None:
                            rows[r] = {col: sign}
                        else:
                            row[col] = sign
                        hit.add(r)
                if hit:
                    cols[col] = hit
                col += 1
        return m

    def take_diff(self, i: int) -> SparseIntMatrix:
        """d_i handed over to the caller, who may then change it in place.

        The slice forgets the matrix, so a later `diff(i)` builds a new one.
        """
        m = self.diff(i)
        self._diffs.pop(i, None)
        return m

    def psi(self, i: int) -> list[tuple[int, int]]:
        """Generator action as a signed permutation: index -> (index, sign)."""
        p = self._psi.get(i)
        if p is None:
            p = self._build_psi(i)
            self._psi[i] = p
        return p

    def _build_psi(self, i: int) -> list[tuple[int, int]]:
        cx = self.parent
        D = cx.D
        offsets = self._offsets.get(i, {})
        base_sign = -1 if ((D.n - 1) * D.tangle.n_minus) & 1 else 1
        out = []
        for bits, nc, x in self.blocks.get(i, ()):
            sd = D.state_data(bits)
            tbits = D.rotate_state(bits)
            td = D.state_data(tbits)
            r = bits.bit_count()
            r0 = (bits & ((1 << D.ncross_t) - 1)).bit_count()
            sign = base_sign * (-1 if (r0 * (r - r0)) & 1 else 1)
            moved = [1 << td.circ_of_arc[D.inv_rot_arc[sd.rep_arcs[k]]] for k in range(nc)]
            off = offsets[tbits]
            lab = cx.labellings(nc, x)
            for xcircles in lab.circles:
                tmask = 0
                for k in xcircles:
                    tmask |= moved[k]
                out.append((off + lab.rank[tmask], sign))
        return out

    def to_free_complex(self) -> FreeComplex:
        dims = {i: len(b) for i, b in self.basis.items() if b}
        diffs = {}
        for i in dims:
            if i + 1 in dims:
                d = self.diff(i)
                if not d.is_zero():
                    diffs[i] = d
        return FreeComplex(dims, diffs)


def build_complex(diagram: PeriodicDiagram) -> DiagramComplex:
    """Khovanov complex of a diagram, with integral differentials.

    Built once per diagram and kept on it, so every caller in the process
    shares its slices, differentials and actions.
    """
    if diagram.complex is None:
        diagram.complex = DiagramComplex(diagram)
    return diagram.complex


def khovanov_homology(diagram: PeriodicDiagram, ring: str = "Z") -> GradedAbGroup:
    """Khovanov homology per (i, j); ring 'Z' for groups, 'Q' for ranks."""
    if ring not in ("Z", "Q"):
        raise ValidationError("ring must be 'Z' or 'Q'")
    cx = build_complex(diagram)
    groups = cx._homology.get(ring)
    if groups is None:
        out: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        for j in cx.quantum_range():
            sl = cx.slice(j)
            if not sl.basis:
                continue
            dims = {i: len(b) for i, b in sl.basis.items() if b}
            diffs = {i: sl.take_diff(i) for i in dims if i + 1 in dims}
            hom = reduce_unit_pivots(FreeComplex(dims, diffs)).homology(ring=ring, prereduce=False)
            for i, grp in hom.items():
                out[(i, j)] = grp
        groups = cx._homology[ring] = GradedAbGroup.from_dict(out)
    return groups


def khovanov_polynomial(diagram: PeriodicDiagram) -> BiPolynomial:
    """Sum of t^i q^j rank_Q Kh^{i,j}."""
    return khovanov_homology(diagram, ring="Q").poincare()


def graded_euler_characteristic(diagram: PeriodicDiagram) -> LaurentPoly:
    """Chain-level graded Euler characteristic (the unnormalized Jones side).

    Independent of the differential: a plain state sum over smoothings.
    """
    D = diagram
    out = LaurentPoly.zero()
    qq = LaurentPoly.q_plus_qinv()
    for bits in range(1 << D.ncross):
        r = bits.bit_count()
        c = D.state_data(bits).n_circ
        term = (qq ** c).shift(r + D.n_plus - 2 * D.n_minus)
        if (r - D.n_minus) % 2:
            term = -term
        out = out + term
    return out
