"""The Khovanov cochain complex of a (possibly periodic) diagram.

Enhanced states are pairs (smoothing, circle labels) over the rank-two
Frobenius algebra A = Z[X]/(X^2) with deg 1 = +1, deg X = -1.  A basis
element with weight r, p circles labelled 1 and q labelled X sits in
cohomological degree i = r - n_minus and quantum degree
j = (p - q) + r + n_plus - 2 n_minus.  Differential signs follow the
right-counting convention: flipping crossing c contributes
(-1)^(number of 1-smoothed crossings after c in copy-major order).

The differential is assembled from a few bytes per edge of the cube of
smoothings: the crossing, merge or split, and the circles at the crossing.
Circles are in canonical order (ascending least arc id), and the circles
away from the crossing keep their arcs, so their indices only shift: a
merge of circles a < b lands at a and every circle above b moves down one;
a split of a gives a and p, and every circle from p up moves up one.  A
labelling is carried across an edge by two mask operations.  Each diagram
has one complex, kept on the diagram by `build_complex`.  Its slices keep
only their smoothings per degree, with circle counts and ranks: every d_i
and every table of the rotation is built afresh for the caller that asks,
who owns it.  A slice's isotypic parts are `homalg.isotypic_complex` of its
`psi` and `diff`.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .diagram import MAX_RANK, PeriodicDiagram
from .errors import InvariantError, ValidationError
from .homalg import FreeComplex, SparseIntMatrix, reduce_unit_pivots
from .polynomials import BiPolynomial, LaurentPoly


class Labellings(NamedTuple):
    """The labellings of `nc` circles with exactly `x` of them X, in basis order."""

    masks: tuple[int, ...]  # X-labelled circles as a bit mask
    rank: dict[int, int]    # mask -> its position in `masks`


class DiagramComplex:
    """Lazy j-sliced Khovanov complex of one diagram.

    Shared by its slices: the smoothings sorted once into (weight, circle
    count) buckets, and the outgoing edges of each smoothing as bytes.
    """

    def __init__(self, diagram: PeriodicDiagram):
        self.D = diagram
        self.shift_i = -diagram.n_minus
        self.shift_j = diagram.n_plus - 2 * diagram.n_minus
        self._slices: dict[int, "SliceComplex"] = {}
        self._homology: dict | None = None  # khovanov_homology's groups
        self._buckets: dict[tuple[int, int], list[int]] | None = None
        self._edges: dict[int, bytes] = {}
        self._labellings: dict[tuple[int, int], Labellings] = {}

    def buckets(self) -> dict[tuple[int, int], list[int]]:
        """Smoothings keyed by (weight, circle count), each list ascending.

        Refuses a diagram whose chain rank is over `MAX_RANK`; every slice is
        built from these buckets, so nothing of its size is built before.
        """
        if self._buckets is None:
            D = self.D
            out: dict[tuple[int, int], list[int]] = {}
            for bits in range(1 << D.ncross):
                out.setdefault((bits.bit_count(), D.state_data(bits).n_circ), []).append(bits)
            rank = sum(len(states) << nc for (_, nc), states in out.items())
            if rank > MAX_RANK:
                raise ValidationError(f"chain rank {rank}: diagrams over {MAX_RANK} "
                                      f"generators are not supported")
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
            masks = tuple(sum(1 << k for k in combo) for combo in combinations(range(nc), x))
            lab = Labellings(masks, {m: k for k, m in enumerate(masks)})
            self._labellings[(nc, x)] = lab
        return lab

    def edges(self, bits: int) -> bytes:
        """The edges out of a smoothing, by ascending crossing, 4 bytes each.

        An edge is (crossing c, merge flag, a, b): a merge of circles a < b,
        or a split of circle a into a and b, b the index of the new circle
        in the target.  The crossing byte needs `MAX_CROSSINGS` <= 256.
        """
        table = self._edges.get(bits)
        if table is None:
            table = self._edges[bits] = self._edge_table(bits)
        return table

    def _edge_table(self, bits: int) -> bytes:
        D = self.D
        circ = D.state_data(bits).circ_of_arc
        out = bytearray()
        for c, arcs in enumerate(D.crossing_arcs):
            if (bits >> c) & 1:
                continue
            tcirc = D.state_data(bits | (1 << c)).circ_of_arc
            s_at = sorted({circ[a] for a in arcs})
            t_at = sorted({tcirc[a] for a in arcs})
            if len(s_at) + len(t_at) != 3 or s_at[0] != t_at[0]:
                raise InvariantError("smoothing change must merge or split circles, "
                                     "keeping the lower circle's index")
            out.extend((c, 1, *s_at) if len(s_at) == 2 else (c, 0, *t_at))
        return bytes(out)

    def slice(self, j: int) -> "SliceComplex":
        sl = self._slices.get(j)
        if sl is None:
            sl = SliceComplex(self, j)
            self._slices[j] = sl
        return sl


class SliceComplex:
    """All degrees of the complex in one quantum degree j.

    Within a degree the basis runs over smoothings by ascending bits, and
    within a smoothing over its labellings in `Labellings` order.  A slice
    keeps, per degree, only the bits of its smoothings, their circle counts
    and its rank; a smoothing's X count follows from its circle count, its
    weight and j.  The generators, d_i and psi are built afresh for the
    caller that asks, who owns them.
    """

    def __init__(self, parent: DiagramComplex, j: int):
        self.parent = parent
        self.j = j
        self.reduced = None  # `equivariant_reduce`'s result, which it keeps here
        by_weight: dict[int, list[tuple[list[int], int]]] = {}
        for (r, nc), states in parent.buckets().items():
            # number of X labels forced by the quantum degree
            twice = nc + r + parent.shift_j - j
            if twice % 2 or not 0 <= twice // 2 <= nc:
                continue
            by_weight.setdefault(r, []).append((states, comb(nc, twice // 2)))
        state_data = parent.D.state_data
        self._states: dict[int, tuple[list[int], bytes]] = {}
        self._ranks: dict[int, int] = {}
        # degrees in the order a scan of ascending bits meets them
        for r, parts in sorted(by_weight.items(), key=lambda item: min(s[0] for s, _ in item[1])):
            i = r + parent.shift_i
            # a lone bucket is shared as it is: ascending, and never changed
            states = parts[0][0] if len(parts) == 1 else sorted(b for s, _ in parts for b in s)
            self._states[i] = (states, bytes(state_data(bits).n_circ for bits in states))
            self._ranks[i] = sum(len(s) * size for s, size in parts)

    def _smoothings(self, i: int):
        """(bits, circle count, X count) per smoothing of degree i, in basis order."""
        cx = self.parent
        states, ncs = self._states.get(i, ((), b""))
        twice = i - cx.shift_i + cx.shift_j - self.j
        for bits, nc in zip(states, ncs):
            yield bits, nc, (nc + twice) >> 1

    def _starts(self, i: int) -> dict[int, int]:
        """The index of each degree-i smoothing's first generator, built afresh."""
        out, k = {}, 0
        for bits, nc, x in self._smoothings(i):
            out[bits] = k
            k += comb(nc, x)
        return out

    @property
    def basis(self) -> dict[int, list[tuple[int, int]]]:
        """Per degree, the generators as (smoothing bits, X-label mask), in order."""
        lab = self.parent.labellings
        return {i: [(bits, m) for bits, nc, x in self._smoothings(i) for m in lab(nc, x).masks]
                for i in self._ranks}

    def smoothings(self, i: int) -> list[tuple[int, int]]:
        """(smoothing bits, its generator count) per smoothing of degree i, in basis order."""
        return [(bits, comb(nc, x)) for bits, nc, x in self._smoothings(i)]

    def dim(self, i: int) -> int:
        return self._ranks.get(i, 0)

    @property
    def dims(self) -> dict[int, int]:
        """The nonzero ranks, by degree."""
        return dict(self._ranks)

    def diff(self, i: int) -> SparseIntMatrix:
        """d_i on every column, built afresh: the caller owns the matrix."""
        return self.build_diff(i)

    def build_diff(self, i: int, keep=None) -> SparseIntMatrix:
        """d_i built afresh; the slice keeps no differential.

        With `keep`, a sequence of flags indexed by column (a bytearray in
        the package), only the columns c with keep[c] set are filled, and
        smoothings that hold none of them are skipped: the orbit leads of
        `equivariant_reduce`, or the generators that survived d_{i-1} in the
        sweep of `reduce_unit_pivots`.  The mask is indexed, never searched:
        `c in keep` on a bytearray asks whether the byte value c occurs.
        """
        cx = self.parent
        tgt_off = self._starts(i + 1)
        m = SparseIntMatrix(self.dim(i + 1), self.dim(i))
        rows, cols = m.rows, m.cols
        # target smoothing -> labelling mask -> row; one int object per row
        row_of: dict[int, dict[int, int]] = {}
        col = 0
        for bits, nc, x in self._smoothings(i):
            masks = cx.labellings(nc, x).masks
            if keep is not None and not any(keep[col:col + len(masks)]):
                col += len(masks)
                continue
            out = []
            edges = iter(cx.edges(bits))
            for c, merge, a, b in zip(edges, edges, edges, edges):
                if merge and x == nc:
                    continue  # every labelling multiplies X.X = 0
                tbits = bits | (1 << c)
                row_t = row_of.get(tbits)
                if row_t is None:
                    tlab = cx.labellings(nc - 1, x) if merge else cx.labellings(nc + 1, x + 1)
                    off = tgt_off[tbits]
                    row_t = row_of[tbits] = {mask: off + k for mask, k in tlab.rank.items()}
                # (-1)^(1-smoothed crossings after c): the right-counting sign
                sign = -1 if (bits >> (c + 1)).bit_count() & 1 else 1
                # the source circles, and the circles from b up, whose index shifts
                src = (1 << a) | (1 << b) if merge else 1 << a
                out.append((row_t, sign, merge, src, -1 << b, 1 << a, 1 << b))
            for xmask in masks:
                if keep is not None and not keep[col]:
                    col += 1
                    continue
                # the entries of one column never collide, so write them directly
                hit = []
                for row_t, sign, merge, src, high, ta, tb in out:
                    xs = xmask & src
                    rest = xmask ^ xs  # the X circles away from the crossing
                    if merge:
                        if xs == src:
                            continue  # X.X = 0
                        base = rest - ((rest & high) >> 1)  # those above b move down one
                        targets = (base | ta,) if xs else (base,)
                    else:
                        base = rest + (rest & high)  # those from b up move up one
                        targets = (base | ta | tb,) if xs else (base | ta, base | tb)
                    for tmask in targets:
                        r = row_t[tmask]
                        row = rows.get(r)
                        if row is None:
                            rows[r] = {col: sign}
                        else:
                            row[col] = sign
                        hit.append(r)
                if hit:
                    cols[col] = hit
                col += 1
        return m

    def psi(self, i: int) -> list[tuple[int, int]]:
        """Generator action on degree i as a signed permutation, index -> (index,
        sign), built afresh: the caller owns the table."""
        cx = self.parent
        D = cx.D
        offsets = self._starts(i)
        base_sign = -1 if ((D.n - 1) * D.tangle.n_minus) & 1 else 1
        out = []
        for bits, nc, x in self._smoothings(i):
            tbits = D.rotate_state(bits)
            circ = D.state_data(tbits).circ_of_arc
            r = bits.bit_count()
            r0 = (bits & ((1 << D.ncross_t) - 1)).bit_count()
            sign = base_sign * (-1 if (r0 * (r - r0)) & 1 else 1)
            # circle k's bit -> its image's bit
            moved = {1 << k: 1 << circ[D.inv_rot_arc[a]]
                     for k, a in enumerate(D.state_data(bits).rep_arcs)}
            off = offsets[tbits]
            lab = cx.labellings(nc, x)
            for xmask in lab.masks:
                tmask = 0
                while xmask:
                    low = xmask & -xmask
                    tmask |= moved[low]
                    xmask ^= low
                out.append((off + lab.rank[tmask], sign))
        return out

    def to_free_complex(self) -> FreeComplex:
        """The slice with every nonzero d_i built afresh, owned by the caller."""
        dims = self.dims
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
    shares its slices and actions.
    """
    if diagram.complex is None:
        diagram.complex = DiagramComplex(diagram)
    return diagram.complex


def khovanov_homology(diagram: PeriodicDiagram) -> dict:
    """Integral Khovanov homology, {(i, j): (free rank, torsion factors)}
    for each nonzero group, keys ascending; the rational groups are the
    free parts.

    Each slice is handed to `reduce_unit_pivots` itself, which sweeps its
    degrees upwards and builds each d_i only on the generators that
    survived d_{i-1}.  That sweep runs once per diagram: the groups are
    kept on the complex, and each caller gets its own copy.
    """
    cx = build_complex(diagram)
    if cx._homology is None:
        out: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        for j in cx.quantum_range():
            sl = cx.slice(j)
            if not sl.dims:
                continue
            for i, grp in reduce_unit_pivots(sl).homology().items():
                out[(i, j)] = grp
        cx._homology = dict(sorted(out.items()))
    return dict(cx._homology)


def khovanov_polynomial(diagram: PeriodicDiagram) -> BiPolynomial:
    """Sum of t^i q^j rank_Q Kh^{i,j}."""
    return BiPolynomial({key: free for key, (free, _) in khovanov_homology(diagram).items()
                         if free})


def graded_euler_characteristic(diagram: PeriodicDiagram) -> LaurentPoly:
    """Chain-level graded Euler characteristic (the unnormalized Jones side).

    Independent of the differential: a state sum over smoothings, taken
    once per (weight, circle count) bucket.
    """
    D = diagram
    out = LaurentPoly.zero()
    qq = LaurentPoly.q_plus_qinv()
    for (r, c), states in build_complex(D).buckets().items():
        term = (qq ** c).shift(r + D.n_plus - 2 * D.n_minus) * len(states)
        if (r - D.n_minus) % 2:
            term = -term
        out = out + term
    return out
