"""Spectral sequence of the orbit-resolution filtration.

Resolving a chosen set X of crossings in all 2^|X| ways assembles the
Khovanov complex into a bicomplex whose column filtration (by the number
of 1-resolutions used on X) yields a spectral sequence converging to
Khovanov homology.  A generator's filtration level is read off its
smoothing: the number of 1-smoothings on X, (bits & mask(X)).bit_count().
When X is a rotation orbit the filtration is by subcomplexes of modules
over the group ring, and projecting a 2-periodic diagram onto an
isotypic sector gives the equivariant pages.

Pages are computed over Q from the persistence pairs of the filtration.
One column reduction of each differential pairs a generator of level x with
one of level y >= x, a bar of length y - x; E_r holds the unpaired
generators and both ends of every bar of length at least r, and the rank
of d_r is the number of bars of length r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .complexes import build_complex, khovanov_homology
from .diagram import Crossing, PeriodicDiagram, QuotientTangle, components
from .errors import InvariantError, ValidationError
from .homalg import CancellingComplex, isotypic_complex

# ---------------------------------------------------------------------------
# resolved diagrams


def crossing_orbit(diagram: PeriodicDiagram, crossing: int) -> tuple[int, ...]:
    """The rotation orbit of a global crossing index."""
    t = diagram.ncross_t
    if not diagram.ncross:
        raise ValidationError("the diagram has no crossing to resolve")
    if not 0 <= crossing < diagram.ncross:
        raise ValidationError("crossing index out of range")
    base = crossing % t
    return tuple(base + copy * t for copy in range(diagram.n))


def resolve_diagram(diagram: PeriodicDiagram, alpha: dict[int, int]):
    """Smooth the crossings in alpha and reassemble a flat diagram.

    Returns (resolved diagram of rotation order 1, c) where c is the change
    in negative-crossing count against the input diagram, for the canonical
    reorientation minimizing the number of negative crossings (ties broken
    toward positive orientation of the earliest components).
    """
    D = diagram
    for c, v in alpha.items():
        if not 0 <= c < D.ncross or v not in (0, 1):
            raise ValidationError("bad resolution assignment")
    kept = [g for g in range(D.ncross) if g not in alpha]

    # ends of the original arcs, terminal at kept crossings
    joins: dict[tuple[int, str], tuple[int, str]] = {}
    for g, v in alpha.items():
        s = D.crossing_slots(g)
        pairs = ((s[0], s[3]), (s[1], s[2])) if v else ((s[0], s[1]), (s[2], s[3]))
        for a, b in pairs:
            joins[a] = b
            joins[b] = a

    used: set[int] = set()
    paths = []   # (ordered list of (arc id, flipped?), end slots)
    loops = []
    for aid, ends in enumerate(D.arcs):
        if aid in used:
            continue
        if not ends:
            used.add(aid)
            loops.append([aid])
            continue
        if all(e in joins for e in ends):
            # might be an interior arc of a path or part of a cycle; walk later
            continue
        start = next(e for e in ends if e not in joins)
        chain, path_ends = _walk(D, joins, aid, start)
        used.update(x for x, _ in chain)
        paths.append((chain, path_ends))
    for aid, ends in enumerate(D.arcs):
        if aid in used or not ends:
            continue
        chain, _ = _walk(D, joins, aid, ends[0], cycle=True)
        used.update(x for x, _ in chain)
        loops.append([x for x, _ in chain])

    # slot names in the resolved diagram
    slot_name = {}
    for g in kept:
        for pos, e in enumerate(D.crossing_slots(g)):
            slot_name[e] = f"g{g}.{pos}"

    merged = []  # (tail end, head end) in canonical direction
    for chain, (e1, e2) in paths:
        merged.append((e1, e2))
    narc = len(merged)

    end_arc = {}
    for k, (e1, e2) in enumerate(merged):
        end_arc[e1] = k
        end_arc[e2] = k
    # link components: merged arcs joined by the strands through kept crossings
    strands = [(end_arc[s[a]], end_arc[s[b]])
               for s in map(D.crossing_slots, kept) for a, b in ((0, 2), (1, 3))]
    comp_of, ncomp, _ = components(narc, strands)

    # relative direction of each merged arc inside its component
    rel = _propagate_directions(D, kept, merged, end_arc)

    # crossing sign as a function of component orientation flips
    base_sign = []
    under_comp, over_comp = [], []
    for g in kept:
        s = D.crossing_slots(g)
        a0, a1, a3 = end_arc[s[0]], end_arc[s[1]], end_arc[s[3]]
        into0 = merged[a0][1] == s[0]  # canonical head lands on slot 0
        under_in = into0 == (rel[a0] == 1)
        into3 = merged[a3][1] == s[3]
        over_in3 = into3 == (rel[a3] == 1)
        base_sign.append(1 if under_in == over_in3 else -1)
        under_comp.append(comp_of[a0])
        over_comp.append(comp_of[a3])

    best = None
    for mask in range(1 << ncomp):
        flips = [1 if not (mask >> k) & 1 else -1 for k in range(ncomp)]
        nneg = sum(1 for t, sg in enumerate(base_sign)
                   if sg * flips[under_comp[t]] * flips[over_comp[t]] < 0)
        key = (nneg, mask)
        if best is None or key < best[0]:
            best = (key, flips)
    flips = best[1]

    # emit the resolved tangle
    out_crossings = []
    arcs_out = []
    for t, g in enumerate(kept):
        s = D.crossing_slots(g)
        a0 = end_arc[s[0]]
        into0 = merged[a0][1] == s[0]
        under_in = (into0 == (rel[a0] == 1)) == (flips[under_comp[t]] == 1)
        slots = [slot_name[e] for e in s]
        if not under_in:
            slots = slots[2:] + slots[:2]  # re-root at the other under slot
        out_crossings.append(Crossing(t, tuple(slots)))
    for k, (e1, e2) in enumerate(merged):
        forward = (rel[k] == 1) == (flips[comp_of[k]] == 1)
        tail, head = (e1, e2) if forward else (e2, e1)
        arcs_out.append((slot_name[tail], slot_name[head]))
    for m in range(len(loops)):
        arcs_out.append((f"loop{m}", f"loop{m}"))

    tangle = QuotientTangle(out_crossings, arcs_out, [], [])
    resolved = PeriodicDiagram(tangle, 1)
    c = resolved.n_minus - D.n_minus
    return resolved, c


def _walk(D, joins, aid, start_end, cycle=False):
    """Follow an arc chain through smoothing joins from one terminal end."""
    chain = []
    cur_arc, enter = aid, start_end
    first = start_end
    while True:
        ends = D.arcs[cur_arc]
        other = ends[1] if ends[0] == enter else ends[0]
        chain.append((cur_arc, enter != ends[0]))
        if other not in joins:
            return chain, (first, other)
        nxt_end = joins[other]
        cur_arc, enter = D.slot_to_arc[nxt_end], nxt_end
        if cycle and cur_arc == aid and enter == first:
            return chain, None


def _propagate_directions(D, kept, merged, end_arc):
    """Coherent relative directions of merged arcs within each component."""
    narc = len(merged)
    rel = [0] * narc
    adj: dict[int, list[tuple[int, int]]] = {k: [] for k in range(narc)}
    for g in kept:
        s = D.crossing_slots(g)
        for a, b in ((0, 2), (1, 3)):
            x, y = end_arc[s[a]], end_arc[s[b]]
            # strand runs through the crossing: entering x at slot a means
            # leaving y from slot b, so "x flows into slot a" must equal
            # "y flows out of slot b"
            into_x = 1 if merged[x][1] == s[a] else -1
            outof_y = 1 if merged[y][0] == s[b] else -1
            adj[x].append((y, into_x * outof_y))
            adj[y].append((x, into_x * outof_y))
    for start in range(narc):
        if rel[start]:
            continue
        rel[start] = 1
        stack = [start]
        while stack:
            x = stack.pop()
            for y, parity in adj[x]:
                want = rel[x] * parity
                if rel[y] == 0:
                    rel[y] = want
                    stack.append(y)
                elif rel[y] != want:
                    raise InvariantError("component is not orientable")
    return rel


# ---------------------------------------------------------------------------
# the filtration and its pages


@dataclass
class SSPage:
    """One page: entry dimensions and outgoing differential ranks.

    Entries are keyed by (filtration column p, complementary degree q,
    quantum degree); the total degree is p + q.
    """

    r: int
    entries: dict[tuple[int, int, int], int]
    d_ranks: dict[tuple[int, int, int], int]

    def total_dims(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (p, q, j), dim in self.entries.items():
            key = (p + q, j)
            out[key] = out.get(key, 0) + dim
        return out


def _filtered_reduce(dims, levels, mats):
    """Cancel unit pivots joining basis elements of equal filtration level.

    Such a cancellation happens inside one associated-graded piece, so it is
    a strictly filtered homotopy equivalence: every page from E_1 onward is
    unchanged while the complex shrinks to roughly E_1 size.  Takes
    ownership of `mats` and returns the kernel, on the original ids.
    """
    red = CancellingComplex(dims, mats)
    progress = True
    while progress:
        progress = False
        for m in list(red.mats):
            mat = red.mats.get(m)
            if mat is None:
                continue
            lv_s, lv_t = levels.get(m, []), levels.get(m + 1, [])
            for t in list(mat.rows):
                row = mat.rows.get(t)
                if not row:
                    continue
                for s, v in list(row.items()):
                    if v not in (1, -1) or lv_t[t] != lv_s[s]:
                        continue
                    red.cancel(m, t, s)
                    progress = True
                    break
    return red


def _bars(dims, levels, mats):
    """The bars of one filtered slice over Q; takes ownership of `mats`.

    After `_filtered_reduce`, each d_m is column-reduced once over Z, with
    generators ordered by (level, id): columns greatest first, a column's
    pivot its least row, and col = b*col - a*other while an earlier column
    holds that pivot.  A column c left nonzero with pivot t is the bar
    (m, level of c, level of t); a generator in no bar is (m, level, None).
    """
    red = _filtered_reduce(dims, levels, mats)
    bars, paired = [], set()  # paired: (degree, id) of each generator in a bar
    for m in sorted(red.alive):
        lv_s, lv_t, mat = levels[m], levels.get(m + 1), red.mats.get(m)
        pivots = {}  # row -> the reduced column holding it as pivot
        for c in sorted(mat.cols, key=lambda c: (lv_s[c], c), reverse=True) if mat else ():
            col = {r: mat.rows[r][c] for r in mat.cols[c]}
            while col:
                t = min(col, key=lambda r: (lv_t[r], r))
                other = pivots.get(t)
                if other is None:
                    break
                g = gcd(col[t], other[t])
                a, b = col[t] // g, other[t] // g
                col = {r: b * col.get(r, 0) - a * other.get(r, 0) for r in col.keys() | other}
                col = {r: v for r, v in col.items() if v}
            if not col:
                continue
            if (m, c) in paired:
                raise InvariantError(f"a generator ends two bars: d_{m} o d_{m - 1} != 0")
            if lv_t[t] < lv_s[c]:
                raise InvariantError(f"d_{m} lowers the filtration level")
            pivots[t] = col
            paired |= {(m, c), (m + 1, t)}
            bars.append((m, lv_s[c], lv_t[t]))
        bars += [(m, lv_s[e], None) for e, a in enumerate(red.alive[m])
                 if a and (m, e) not in paired]
    return bars


def filtered_slice(X: tuple[int, ...], sl, fc, gens=None) -> list[tuple]:
    """The bars of j-slice `sl` filtered by 1-smoothings on X.

    `fc` is the slice's complex, as `to_free_complex` builds it or, with
    `gens`, as `isotypic_complex` builds it on the vectors `gens`; its
    matrices are taken over uncopied: `verify` hands over the ones its
    checks ran on, so each is built once.  A generator's level is its
    smoothing's count of 1-smoothings on X; an isotypic vector takes the
    level of its least id, which is every id's level when X is invariant.
    """
    mask = sum(1 << c for c in X)
    levels = {}
    for i in fc.dims:
        full = []
        for bits, size in sl.smoothings(i):
            full += [(bits & mask).bit_count()] * size
        levels[i] = full if gens is None else [full[min(v)] for v in gens[i]]
    return _bars(fc.dims, levels, fc.diffs)


def run_pages(diagram: PeriodicDiagram, X, sector: int | None = None,
              slices: dict[int, list[tuple]] | None = None) -> list[SSPage]:
    """Pages E_1 .. E_infinity of the orbit-resolution filtration over Q.

    With a sector d | n (n = 2 only, and X an orbit), the filtration is first
    projected onto its Phi_d-isotypic part: the invariant or anti-invariant part.
    `slices`, j -> `filtered_slice` of X, are used as given, and otherwise
    built here: `verify` builds them in its check pass.
    """
    X = tuple(X)
    if not all(0 <= c < diagram.ncross for c in X):
        raise ValidationError("X must consist of crossings of the diagram")
    if len(set(X)) != len(X):
        raise ValidationError("X has repeated crossings")
    if sector is not None:
        if sector < 1 or diagram.n % sector:
            raise ValidationError(f"sector {sector} does not divide the rotation order {diagram.n}")
        if diagram.n != 2:
            raise ValidationError("sectors are defined for rotation order 2")
        mask = sum(1 << c for c in X)
        if diagram.rotate_state(mask) != mask:
            raise ValidationError("sector projection needs an invariant X")
    if slices is None:
        slices = {}
        cx = build_complex(diagram)
        for j in cx.quantum_range():
            sl = cx.slice(j)
            if not sl.dims:
                continue
            if sector is None:
                slices[j] = filtered_slice(X, sl, sl.to_free_complex())
            else:
                gens, fc = isotypic_complex(sl.dims, sl.psi, sl.diff, sector)
                slices[j] = filtered_slice(X, sl, fc, gens)
    pages = []
    for r in range(1, len(X) + 3):
        entries: dict[tuple[int, int, int], int] = {}
        d_ranks: dict[tuple[int, int, int], int] = {}
        for j, bars in slices.items():
            for m, x, y in bars:
                if y is not None and y - x < r:
                    continue
                for deg, p in ((m, x),) if y is None else ((m, x), (m + 1, y)):
                    entries[(p, deg - p, j)] = entries.get((p, deg - p, j), 0) + 1
                if y is not None and y - x == r:
                    d_ranks[(x, m - x, j)] = d_ranks.get((x, m - x, j), 0) + 1
        pages.append(SSPage(r, entries, d_ranks))
    return pages


def e1_oracle(diagram: PeriodicDiagram, X) -> dict[tuple[int, int, int], int]:
    """Expected E_1 entries from the homology of the resolved diagrams."""
    L = len(X)
    out: dict[tuple[int, int, int], int] = {}
    for p in range(L + 1):
        for ones in combinations(X, p):
            alpha = {x: int(x in ones) for x in X}
            Dres, c = resolve_diagram(diagram, alpha)
            for (i, j), (free, _) in khovanov_homology(Dres).items():
                if free:
                    key = (p, i + c, j + p + 3 * c + L)
                    out[key] = out.get(key, 0) + free
    return out


def einf_abutment_ok(diagram: PeriodicDiagram, pages: list[SSPage]) -> bool:
    """E_infinity totals must match rational Khovanov homology."""
    want = {key: free for key, (free, _) in khovanov_homology(diagram).items() if free}
    return pages[-1].total_dims() == want
