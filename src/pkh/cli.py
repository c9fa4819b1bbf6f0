"""Command-line interface.

    pkh <kh|ekh|ss|poly|oracle|verify> [FILE] [options]

Every command emits JSON (or an aligned table with --format table) and is
deterministic: identical input produces byte-identical output.  Exit codes:
0 success, 1 usage error, 2 invariant failure, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .action import verify_module_structure
from .complexes import graded_euler_characteristic, khovanov_homology, khovanov_polynomial
from .diagram import parse_diagram
from .equivariant import (equivariant_polynomials, ext_groups, periodic_tail,
                          rational_equivariant)
from .errors import InvariantError, ParseError, PkhError, ValidationError
from .homalg import rational_idempotents
from .oracles import poly_P, torus_ekh2, torus_khp, trivial_link_ekh
from .spectral import crossing_orbit, einf_abutment_ok, filtered_slice, run_pages

USAGE_EXIT, INVARIANT_EXIT, IO_EXIT = 1, 2, 3


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_diagram(text)


def _groups(items) -> list[dict]:
    """The JSON list of groups, one per ((i, j), (free, torsion)) item, in order."""
    return [{"i": i, "j": j, "free": free, "torsion": list(tors)}
            for (i, j), (free, tors) in items]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
        return
    for line in _tables(payload):
        print(line)


def _tables(payload, prefix=""):
    if isinstance(payload, dict):
        if "groups" in payload and isinstance(payload["groups"], list):
            for k, v in payload.items():
                if k != "groups":
                    yield from _tables({k: v}, prefix)
            yield f"{prefix}{'i':>4} {'j':>4} {'free':>5}  torsion"
            for g in payload["groups"]:
                tors = ",".join(str(t) for t in g.get("torsion", [])) or "-"
                yield f"{prefix}{g['i']:>4} {g['j']:>4} {g['free']:>5}  {tors}"
            return
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _tables(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {_scalar(v)}"
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                # an item's first line starts with "- ", so items stay apart
                lines = _tables(v, prefix + "  ")
                first = next(lines, None)
                if first is not None:
                    yield f"{prefix}- {first[len(prefix) + 2:]}"
                    yield from lines
            else:
                yield f"{prefix}- {_scalar(v)}"


def _scalar(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    return v


def cmd_kh(args) -> int:
    D = _load(args.file)
    groups = khovanov_homology(D).items()
    if args.coeffs == "q":  # the rational groups: the free parts
        groups = [(key, (free, ())) for key, (free, _) in groups if free]
    _emit({"groups": _groups(groups)}, args.format)
    return 0


def cmd_ekh(args) -> int:
    if args.coeffs == "q" and args.window is not None:
        raise ValidationError("--window applies to --coeffs z only")
    D = _load(args.file)
    if args.coeffs == "q":
        data = rational_equivariant(D, args.d)
        payload = {
            "d": args.d,
            "n": D.n,
            "groups": _groups((key, (dim, ())) for key, dim in sorted(data["dim_cyc"].items())),
            "coefficients": "cyclotomic-field dimensions",
        }
    else:
        window = 2 * D.ncross + 6 if args.window is None else args.window
        groups = ext_groups(D, args.d, window)
        payload = {
            "d": args.d,
            "n": D.n,
            "window": window,
            "groups": _groups(groups.items()),
            "tail": periodic_tail(groups, window),
        }
    _emit(payload, args.format)
    return 0


def cmd_ss(args) -> int:
    D = _load(args.file)
    X = crossing_orbit(D, args.orbit)
    pages = run_pages(D, X, sector=args.d)
    payload = {
        "orbit": list(X),
        "sector": args.d,
        "pages": [{
            "r": pg.r,
            "entries": [{"p": p, "q": q, "quantum": j, "dim": dim}
                        for (p, q, j), dim in sorted(pg.entries.items())],
        } for pg in pages],
    }
    if args.d is None:
        payload["abuts_to_khovanov"] = einf_abutment_ok(D, pages)
    _emit(payload, args.format)
    return 0


def cmd_poly(args) -> int:
    D = _load(args.file)
    if args.d is None:
        khp = khovanov_polynomial(D)
        payload = {"polynomial": str(khp)}
    else:
        khp, jones = equivariant_polynomials(D, args.d)
        payload = {"d": args.d, "polynomial": str(khp), "jones": str(jones)}
    _emit(payload, args.format)
    return 0


def cmd_oracle(args) -> int:
    if args.which == "torus":
        khp = torus_khp(args.n)
        s1, s2 = torus_ekh2(args.n)
        payload = {"n": args.n, "khp": str(khp),
                   "khp_2_1": str(s1), "khp_2_2": str(s2)}
    elif args.which == "poly-p":
        payload = {"p": args.p, "n": args.n, "poly": str(poly_P(args.p, args.n))}
    else:
        groups = trivial_link_ekh(args.p, args.n, args.k, args.f, args.u, args.window)
        payload = {"p": args.p, "n": args.n, "k": args.k, "f": args.f,
                   "u": args.u, "window": args.window,
                   "groups": _groups(sorted(groups.items()))}
    _emit(payload, args.format)
    return 0


def cmd_verify(args) -> int:
    D = _load(args.file)
    checks = []

    def record(name, ok, detail=None):
        entry = {"name": name, "pass": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)

    # one walk over the slices: the pages take over the matrices the checks ran on
    X = crossing_orbit(D, 0) if D.ncross else None
    slices = {}

    def to_pages(sl, fc):
        slices[sl.j] = filtered_slice(X, sl, fc)

    rep = verify_module_structure(D, None if X is None else to_pages)
    record("differential_squares_to_zero", rep["composes"])
    record("action_is_chain_automorphism", rep["acts"],
           None if rep["acts"] else {"check": rep["check"], "witness": rep["witness"]})
    chi = graded_euler_characteristic(D)
    khp = khovanov_polynomial(D)
    record("euler_characteristic_matches_homology", khp.at_t_minus_one() == chi)
    idem = rational_idempotents(D.n)
    tot = [sum(e[k] for e in idem.values()) for k in range(D.n)]
    record("idempotents_sum_to_one", tot[0] == 1 and all(v == 0 for v in tot[1:]))
    if X is not None:
        pages = run_pages(D, X, slices=slices)
        record("spectral_sequence_abuts", einf_abutment_ok(D, pages))
    ok = all(c["pass"] for c in checks)
    _emit({"ok": ok, "checks": checks}, args.format)
    return 0 if ok else INVARIANT_EXIT


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pkh",
        description="Khovanov homology of periodic link diagrams, exact arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="diagram JSON file")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("kh", help="classical Khovanov homology")
    common(p)
    p.add_argument("--coeffs", choices=("z", "q"), default="z")
    p.set_defaults(func=cmd_kh)

    p = sub.add_parser("ekh", help="equivariant Khovanov homology")
    common(p)
    p.add_argument("--d", type=int, required=True, help="cyclotomic index, d | n")
    p.add_argument("--coeffs", choices=("z", "q"), default="z")
    p.add_argument("--window", type=int, default=None,
                   help="last exact Ext degree (--coeffs z only)")
    p.set_defaults(func=cmd_ekh)

    p = sub.add_parser("ss", help="orbit-resolution spectral sequence pages")
    common(p)
    p.add_argument("--orbit", type=int, default=0,
                   help="crossing index whose rotation orbit is resolved")
    p.add_argument("--d", type=int, default=None, help="sector for 2-periodic input")
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("poly", help="Khovanov polynomial, classical or equivariant")
    common(p)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("oracle", help="closed-form oracle values")
    p.set_defaults(func=cmd_oracle)
    oracles = p.add_subparsers(dest="which", required=True)
    for which, needs in (("torus", "n"), ("poly-p", "p n"), ("trivial", "p n k f u")):
        o = oracles.add_parser(which)
        common(o, needs_file=False)
        for name in needs.split():
            o.add_argument(f"--{name}", type=int, required=True)
        if which == "trivial":
            o.add_argument("--window", type=int, default=6)

    p = sub.add_parser("verify", help="run the invariant suite on a diagram")
    common(p)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader is gone; what is left goes to devnull, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all output was written",
              file=sys.stderr)
        return IO_EXIT
    except PkhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return IO_EXIT
        return INVARIANT_EXIT if isinstance(exc, InvariantError) else USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
