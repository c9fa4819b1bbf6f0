"""The cyclic group action on the Khovanov complex of a periodic diagram.

The generator acts on enhanced states by rotating the smoothing and the
circle labels, times the sign
    (-1)^((n-1) n_minus(T) + r_0 (r - r_0)),
where r_0 is the weight of copy 0.  This makes every chain group a module
over Z[t]/(t^n - 1) and commutes with the differential.

The diagram-level count n_minus(D) = n n_minus(T) makes the two ways of
writing the fixed-state sign agree: applying the generator n/d times to a
state of isotropy d multiplies the exponent (n-1) n_minus(T) by n/d, which
equals (n-1) n_minus(D) / d.
"""

from __future__ import annotations

from math import gcd

from .complexes import build_complex
from .diagram import PeriodicDiagram, _as_state, isotropy, orbit_decomposition
from .errors import ValidationError
from .polynomials import LaurentPoly


def s_exponent(n: int, r: int, d: int, n_minus_diagram: int) -> int:
    """The twist exponent ((n-1) n_minus(D) + r (d-1)) / d."""
    num = (n - 1) * n_minus_diagram + r * (d - 1)
    if num % d:
        raise ValidationError("exponent is not an integer for these arguments")
    return num // d


def fixed_state_sign(diagram: PeriodicDiagram, state) -> int:
    """Scalar by which the (n/d)-th power of the generator acts on the span
    of a state with exact isotropy of order d, before permuting labels."""
    st = _as_state(diagram, state)
    d = isotropy(diagram, st)
    n, r = diagram.n, st.r
    if gcd(n, r) % d:
        raise ValidationError("isotropy must divide gcd(n, r)")
    return -1 if s_exponent(n, r, d, diagram.n_minus) & 1 else 1


def verify_module_structure(diagram: PeriodicDiagram) -> dict:
    """Check psi^n = 1, psi d = d psi and quantum preservation blockwise.

    Returns a report dict; on failure `witness` names the first offending
    (i, j, basis index).
    """
    cx = build_complex(diagram)
    n = diagram.n
    for j in cx.quantum_range():
        sl = cx.slice(j)
        for i, basis in sl.basis.items():
            if not basis:
                continue
            psi = sl.psi(i)
            for k in range(len(basis)):
                cur, sign = k, 1
                for _ in range(n):
                    cur, s = psi[cur][0], sign * psi[cur][1]
                    sign = s
                if cur != k or sign != 1:
                    return {"ok": False, "check": "psi_order", "witness": (i, j, k)}
            if sl.dim(i + 1):
                d = sl.diff(i)
                psi_t = sl.psi(i + 1)
                for k in range(len(basis)):
                    img, sg = psi[k]
                    lhs = {}  # d(psi x)
                    for r in d.cols.get(img, ()):
                        lhs[r] = lhs.get(r, 0) + sg * d.rows[r][img]
                    rhs = {}  # psi(d x)
                    for r in d.cols.get(k, ()):
                        tr, ts = psi_t[r]
                        rhs[tr] = rhs.get(tr, 0) + ts * d.rows[r][k]
                    if {a: b for a, b in lhs.items() if b} != {a: b for a, b in rhs.items() if b}:
                        return {"ok": False, "check": "psi_commutes", "witness": (i, j, k)}
    return {"ok": True, "check": "all", "witness": None}


def chain_module_decomposition(diagram: PeriodicDiagram, r: int):
    """Orbit decomposition of the weight-r chain group as a cyclic module.

    One entry per rotation orbit of weight-r states: the isotropy order d,
    the orbit size n/d, the twist parity of the fixed-state sign, and the
    graded rank of the label space of the representative (already carrying
    the quantum normalization shift r + n_plus - 2 n_minus).
    """
    D = diagram
    entries = []
    shift = r + D.n_plus - 2 * D.n_minus
    for rep, d, size in orbit_decomposition(D, r):
        eps = s_exponent(D.n, r, d, D.n_minus) & 1
        if D.n % 2 and eps:
            raise ValidationError("twist must vanish for odd rotation order")
        qdim = (LaurentPoly.q_plus_qinv() ** len(rep.circles)).shift(shift)
        entries.append({"rep": rep, "d": d, "size": size, "twist": eps, "qdim": qdim})
    return entries
