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

A state is its smoothing as a bit mask, bit g for crossing g in
copy-major order.  `verify_module_structure` checks the action against
the differential slice by slice; `fixed_state_sign` is the closed form of
the fixed-state sign, which tests compare with the iterated action.
"""

from __future__ import annotations

from math import gcd

from .complexes import build_complex
from .diagram import PeriodicDiagram, isotropy
from .errors import InvariantError, ValidationError


def s_exponent(n: int, r: int, d: int, n_minus_diagram: int) -> int:
    """The twist exponent ((n-1) n_minus(D) + r (d-1)) / d."""
    num = (n - 1) * n_minus_diagram + r * (d - 1)
    if num % d:
        raise ValidationError("exponent is not an integer for these arguments")
    return num // d


def fixed_state_sign(diagram: PeriodicDiagram, bits: int) -> int:
    """Scalar by which the (n/d)-th power of the generator acts on the span
    of the smoothing `bits`, of exact isotropy of order d, before permuting
    labels."""
    d = isotropy(diagram, bits)
    n, r = diagram.n, bits.bit_count()
    if gcd(n, r) % d:
        raise ValidationError("isotropy must divide gcd(n, r)")
    return -1 if s_exponent(n, r, d, diagram.n_minus) & 1 else 1


def verify_module_structure(diagram: PeriodicDiagram, hand_over=None) -> dict:
    """Check d o d = 0, psi^n = 1 and psi d = d psi, one j-slice at a time.

    Each slice's differentials are built once, by `to_free_complex`, and
    checked by `check_composes` and against psi.  Then they are passed,
    uncopied, to `hand_over(slice, complex)` if given, which owns them from
    then on (`verify` builds its spectral pages from them), and dropped:
    no matrix of a slice is alive when the next slice's are built.  The two
    checks are independent: d o d = 0 is checked on every slice whatever
    psi does.  Returns a report dict: `composes` for d o d = 0, `acts` for
    the action, `ok` for both; on an action failure `check` names it and
    `witness` the first offending (i, j, basis index).
    """
    cx = build_complex(diagram)
    n = diagram.n
    composes, failure = True, None
    for j in cx.quantum_range():
        sl = cx.slice(j)
        fc = sl.to_free_complex()
        try:
            fc.check_composes()
        except InvariantError:
            composes = False
        if failure is None:
            failure = _action_failure(sl, fc.diffs, n)
        if hand_over is not None:
            hand_over(sl, fc)
        del fc  # before the next slice's matrices are built
    acts = failure is None
    check, witness = ("all", None) if acts else failure
    return {"ok": composes and acts, "composes": composes, "acts": acts,
            "check": check, "witness": witness}


def _action_failure(sl, diffs, n: int) -> tuple[str, tuple[int, int, int]] | None:
    """The first failure of psi^n = 1 or psi d = d psi on one slice, or None.

    psi d = d psi is read off entry by entry: column k of d and column
    psi(k) have equally many entries, and d[psi(r)][psi(k)] equals
    sg * ts * d[r][k] for every entry d[r][k], where psi(k) carries sign sg
    and psi(r) sign ts.  That is exact while psi is a bijection on degree
    i + 1; where it is not, psi^n = 1 fails there, so `acts` is false
    either way.  Each degree's psi is built once: the table of degree i + 1
    is carried from degree i to the next.
    """
    ahead: dict[int, list[tuple[int, int]]] = {}  # psi of degree i + 1, from degree i
    for i, rank in sl.dims.items():
        psi = ahead.pop(i, None) or sl.psi(i)
        for k in range(rank):
            cur, sign = k, 1
            for _ in range(n):
                cur, s = psi[cur]
                sign *= s
            if cur != k or sign != 1:
                return "psi_order", (i, sl.j, k)
        d = diffs.get(i)
        if d is not None:
            psi_t = ahead[i + 1] = sl.psi(i + 1)
            rows, cols = d.rows, d.cols
            for k in range(rank):
                img, sg = psi[k]
                col = cols.get(k, ())
                if len(col) != len(cols.get(img, ())):
                    return "psi_commutes", (i, sl.j, k)
                for r in col:
                    tr, ts = psi_t[r]
                    row = rows.get(tr)
                    if row is None or row.get(img) != sg * ts * rows[r][k]:
                        return "psi_commutes", (i, sl.j, k)
    return None
