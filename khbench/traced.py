"""Run one `pkh` command with its layers timed from outside the package.

    python3 khbench/traced.py OUT PKH_ARGS...

The public functions and methods listed in LAYERS are wrapped before the
command runs: every module that bound a function by name gets the wrapper,
and methods are wrapped on their class.  Self times (span minus child
spans) and counters stay in memory and are written to OUT as JSON when the
command ends, with the CLOCK_MONOTONIC times at which `import pkh` ended
and the command returned: the parent, which knows when it started and
reaped this process, turns them into the spans `cli.startup` (interpreter
start-up and import) and `cli.exit` (interpreter shutdown).  Standard
output is left to the command.
"""

import json
import sys
import time
import weakref


def _clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# span name -> (module, attribute path); the span of X reports X's self time
LAYERS = {
    "diagram.states": ("pkh.complexes", "DiagramComplex.quantum_range"),
    "complexes.basis": ("pkh.complexes", "DiagramComplex.slice"),
    "complexes.diff": ("pkh.complexes", "SliceComplex.diff"),
    "action.psi": ("pkh.complexes", "SliceComplex.psi"),
    "action.verify": ("pkh.action", "verify_module_structure"),
    "equivariant.reduce": ("pkh.equivariant", "equivariant_reduce"),
    "equivariant.ext_self": ("pkh.equivariant", "ext_groups"),
    "equivariant.eval": ("pkh.homalg", "eval_group_ring"),
    "equivariant.isotypic_self": ("pkh.equivariant", "rational_equivariant"),
    "homalg.unit_cancel": ("pkh.homalg", "reduce_unit_pivots"),
    "homalg.smith": ("pkh.homalg", "smith_normal_form"),
    "homalg.int_rank": ("pkh.homalg", "int_rank"),
    "homalg.check_composes": ("pkh.homalg", "FreeComplex.check_composes"),
    "homalg.homology_self": ("pkh.homalg", "FreeComplex.homology"),
    "spectral.pages_self": ("pkh.spectral", "run_pages"),
}
COUNTERS = (
    "complexes.builds", "complexes.diff_builds", "complexes.diff_hits", "complexes.nnz",
    "complexes.generators", "equivariant.gens_in", "equivariant.gens_out",
    "equivariant.tot_gens", "homalg.cancel_in_gens", "homalg.cancel_out_gens",
    "homalg.int_rank_calls",
)


class Tracer:
    def __init__(self):
        self.self_ns: dict[str, int] = {name: 0 for name in LAYERS}
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._child_ns: list[int] = []  # time spent in child spans, per open span
        self._open: list[str] = []
        self._built_diffs = weakref.WeakKeyDictionary()  # slice -> degrees built
        self._sliced = weakref.WeakSet()  # slices already counted
        self._reduced = weakref.WeakSet()  # slices already reduced

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def wrap(self, name: str, fn):
        before = getattr(self, "before_" + name.replace(".", "_"), None)
        after = getattr(self, "after_" + name.replace(".", "_"), None)

        def span(*args, **kwargs):
            note = before(*args, **kwargs) if before else None
            self._child_ns.append(0)
            self._open.append(name)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = _clock() - start
                self._open.pop()
                self.self_ns[name] += took - self._child_ns.pop()
                if self._child_ns:
                    self._child_ns[-1] += took
            if after:
                after(result, note, *args, **kwargs)
            return result

        return span

    # counters taken at the layer boundaries --------------------------------

    def before_complexes_diff(self, sl, i):
        built = self._built_diffs.setdefault(sl, set())
        if i in built:
            return False
        built.add(i)
        return True

    def after_complexes_diff(self, m, fresh, sl, i):
        if fresh:
            self.count("complexes.diff_builds")
            self.count("complexes.nnz", m.nnz)
        else:
            self.count("complexes.diff_hits")

    def after_complexes_basis(self, sl, _, *args):
        if sl not in self._sliced:
            self._sliced.add(sl)
            self.count("complexes.generators", sum(len(b) for b in sl.basis.values()))

    def before_equivariant_reduce(self, sl, n):
        return sl not in self._reduced

    def after_equivariant_reduce(self, red, fresh, sl, n):
        if fresh:
            self._reduced.add(sl)
            self.count("equivariant.gens_in", sum(len(b) for b in sl.basis.values()))
            self.count("equivariant.gens_out", sum(red.dims.values()))

    def after_homalg_unit_cancel(self, out, _, cx):
        self.count("homalg.cancel_in_gens", sum(cx.dims.values()))
        self.count("homalg.cancel_out_gens", sum(out.dims.values()))

    def before_homalg_homology_self(self, cx, *args, **kwargs):
        if "equivariant.ext_self" in self._open:
            self.count("equivariant.tot_gens", sum(cx.dims.values()))

    def after_homalg_int_rank(self, *_):
        self.count("homalg.int_rank_calls")


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer entry point; return the names that were not found."""
    missing = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pkh"]
    for name, (modname, path) in LAYERS.items():
        owner = sys.modules.get(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, fn)
        if cls_path:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    cls = getattr(sys.modules["pkh.complexes"], "DiagramComplex", None)
    if cls is None:
        missing.append("complexes.builds")
    else:
        init = cls.__init__

        def counted_init(self, *args, **kwargs):
            tracer.count("complexes.builds")
            init(self, *args, **kwargs)

        cls.__init__ = counted_init
    return missing


def main(argv: list[str]) -> int:
    from pkh import cli

    imported = _clock()
    tracer = Tracer()
    missing = install(tracer)
    try:
        rc = cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        report = {
            "self_ns": tracer.self_ns,
            "counts": tracer.counts,
            "missing": missing,
            "imported_ns": imported,
            "returned_ns": _clock(),
        }
        with open(argv[0], "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
