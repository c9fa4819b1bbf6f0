import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pkh
from pkh import corpus
from pkh.cli import _load, main
from pkh.complexes import DiagramComplex, SliceComplex, build_complex
from pkh.diagram import MAX_ARC_PIECES, MAX_CROSSINGS, diagram_from_dict, parse_diagram
from pkh.errors import ParseError, ValidationError


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    corpus.write_corpus(d)
    return d


def child_env():
    """The environment of a child that imports the same pkh as this process,
    however it was found."""
    path = [str(Path(pkh.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestShippedCorpus:
    def test_files_match_generators(self):
        from importlib import resources
        specs = corpus.corpus_specs()
        for name, spec in specs.items():
            path = resources.files("pkh").joinpath(f"corpus_data/{name}.json")
            assert json.loads(path.read_text()) == spec

    def test_every_diagram_parses_and_roundtrips(self):
        for name in corpus.corpus_names():
            d = corpus.load(name)
            assert parse_diagram(d.to_json()).to_dict() == d.to_dict()


class TestCommands:
    def test_kh_hopf(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "kh", str(corpus_dir / "hopf.json"), "--coeffs", "q")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["groups"]) == 4

    def test_kh_unknot(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "kh", str(corpus_dir / "unknot0.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["groups"] == [{"free": 1, "i": 0, "j": -1, "torsion": []},
                                 {"free": 1, "i": 0, "j": 1, "torsion": []}]

    def test_kh_trefoil_torsion(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "kh", str(corpus_dir / "trefoil.json"), "--coeffs", "z")
        doc = json.loads(out)
        assert {"free": 0, "i": 3, "j": 7, "torsion": [2]} in doc["groups"]

    def test_ekh_hopf_rational(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "ekh", str(corpus_dir / "hopf.json"),
                            "--d", "1", "--coeffs", "q")
        assert code == 0
        doc = json.loads(out)
        got = {(g["i"], g["j"]): g["free"] for g in doc["groups"]}
        assert got == {(0, 0): 1, (0, 2): 1, (2, 4): 1}

    def test_ekh_unknot_window(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "ekh", str(corpus_dir / "unknot0_n2.json"),
                            "--d", "2", "--window", "6")
        doc = json.loads(out)
        odd = [g for g in doc["groups"] if g["i"] % 2]
        assert all(g["torsion"] == [2] for g in odd)
        assert len(odd) == 6

    def test_ekh_window_needs_integral_coefficients(self, capsys, corpus_dir):
        # the rational isotypic groups have no window, so a window there is refused
        hopf = str(corpus_dir / "hopf.json")
        for w in ("6", "999", "-5"):
            code = main(["ekh", hopf, "--d", "2", "--coeffs", "q", "--window", w])
            out, err = capsys.readouterr()
            assert (code, out) == (1, "")
            assert err == "error: --window applies to --coeffs z only\n"

    def test_ekh_rejects_bad_divisor(self, capsys, corpus_dir):
        hopf = str(corpus_dir / "hopf.json")
        cases = [(cmd, hopf, "--d", d) for cmd in ("ekh", "poly") for d in ("3", "0", "-1")]
        cases.append(("oracle", "trivial", "--p", "2", "--n", "1", "--k", "1",
                      "--f", "0", "--u", "0", "--window", "-1"))
        cases.append(("oracle", "trivial", "--p", "2", "--n", "1", "--k", "-1",
                      "--f", "1", "--u", "0"))
        # no components: the empty link, whose Kh is Z at (0, 0), not nothing
        cases.append(("oracle", "trivial", "--p", "2", "--n", "1", "--k", "0",
                      "--f", "0", "--u", "0"))
        for argv in cases:
            code = main(list(argv))
            out, err = capsys.readouterr()
            assert code == 1, argv
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert "Traceback" not in err, argv

    def test_poly_equivariant(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "poly", str(corpus_dir / "t4_2.json"), "--d", "2")
        assert code == 0
        assert json.loads(out)["polynomial"] == "t^4*q^12"

    def test_oracle_torus(self, capsys):
        code, out = run_cli(capsys, "oracle", "torus", "--n", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["khp_2_2"] == "0"
        assert doc["khp"] == "q^3 + q^5 + t^2*q^7 + t^3*q^11 + t^4*q^11 + t^5*q^15"

    def test_oracle_takes_only_its_own_options(self, capsys):
        # an option an oracle does not read is refused, as is one it needs and lacks
        for argv in (("torus", "--n", "3", "--p", "7"),
                     ("torus", "--n", "3", "--window", "9"),
                     ("poly-p", "--p", "2", "--n", "2", "--k", "2"),
                     ("torus",),
                     ("poly-p", "--n", "2"),
                     ("trivial", "--p", "2", "--n", "1", "--k", "1", "--f", "1")):
            code = main(["oracle", *argv])
            out, err = capsys.readouterr()
            assert (code, out) == (1, ""), argv
            assert err.startswith("usage: "), argv

    def test_ss_sector(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "ss", str(corpus_dir / "t4_2.json"),
                            "--orbit", "2", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        e2 = next(p for p in doc["pages"] if p["r"] == 2)
        assert e2["entries"] == [{"p": 1, "q": 3, "quantum": 12, "dim": 1}]

    def test_ss_rejects_a_sector_it_has_no_pages_for(self, capsys, corpus_dir):
        # a sector must divide n, and pages exist for n = 2 only
        for name, d in (("hopf", "3"), ("hopf", "0"), ("borromean_n3", "3"),
                        ("borromean_n3", "1")):
            code, err = run_cli_err(capsys, "ss", str(corpus_dir / f"{name}.json"), "--d", d)
            assert code == 1, (name, d)
            assert len(err) == 1 and err[0].startswith("error: "), (name, d, err)

    def test_ss_without_a_crossing_says_so(self, capsys, corpus_dir):
        code, err = run_cli_err(capsys, "ss", str(corpus_dir / "unknot0.json"))
        assert code == 1
        assert err == ["error: the diagram has no crossing to resolve"]

    def test_verify_ok(self, capsys, corpus_dir):
        for name in ("hopf", "unknot2_n2", "trivial_p3_k1_f1", "borromean_n3"):
            code, out = run_cli(capsys, "verify", str(corpus_dir / f"{name}.json"))
            assert code == 0
            assert json.loads(out)["ok"]

    def test_one_complex_per_command(self, capsys, corpus_dir, monkeypatch):
        path = corpus_dir / "t2_2.json"
        want = parse_diagram(path.read_text()).to_dict()
        built = []
        init = DiagramComplex.__init__

        def counted(self, diagram):
            built.append(diagram.to_dict() == want)
            init(self, diagram)

        monkeypatch.setattr(DiagramComplex, "__init__", counted)
        for argv in (["verify", str(path)], ["ss", str(path)]):
            built.clear()
            code, _ = run_cli(capsys, *argv)
            assert code == 0
            assert built.count(True) == 1, argv

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "kh", "/nonexistent/nowhere.json")
        assert code == 3

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _ = run_cli(capsys, "kh", str(bad))
        assert code == 3

    def test_usage_error_exit(self, capsys):
        code, _ = run_cli(capsys, "nonsense")
        assert code == 1

    def test_determinism(self, capsys, corpus_dir):
        _, out1 = run_cli(capsys, "kh", str(corpus_dir / "borromean_n3.json"))
        _, out2 = run_cli(capsys, "kh", str(corpus_dir / "borromean_n3.json"))
        assert out1 == out2

    def test_table_format(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "kh", str(corpus_dir / "unknot0.json"),
                            "--format", "table")
        assert code == 0
        assert "free" in out and "torsion" in out

    def test_table_format_nests_the_keys_beside_the_groups(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "ekh", str(corpus_dir / "hopf.json"), "--d", "2",
                            "--format", "table")
        assert code == 0
        assert out.splitlines()[:6] == ["d: 2", "n: 2", "window: 10", "tail:",
                                        "  periodic_from: 3", "  top_degree: 10"]

    def test_table_format_starts_each_list_item_with_a_dash(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "verify", str(corpus_dir / "hopf.json"),
                            "--format", "table")
        assert code == 0
        names = ["differential_squares_to_zero", "action_is_chain_automorphism",
                 "euler_characteristic_matches_homology", "idempotents_sum_to_one",
                 "spectral_sequence_abuts"]
        want = ["checks:"]
        for name in names:
            want += [f"  - name: {name}", "    pass: yes"]
        assert out.splitlines() == want + ["ok: yes"]

    def test_console_entry_point(self, corpus_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "pkh.cli", "poly", str(corpus_dir / "hopf.json")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["polynomial"] == "1 + q^2 + t^2*q^4 + t^2*q^6"


class TestVerifyReport:
    """`verify` reports d o d = 0 and the action as two independent entries.

    On t3_2 the sign of psi is flipped at one generator of slice j = 5,
    degree 2; optionally d_1 of the later slice j = 7 gains an entry in the
    row of a degree-2 generator that d_2 does not kill, so d_2 d_1 != 0 there.
    """

    PSI_AT = (5, 2, 3)  # (j, i, k)
    # the first failure: psi d = d psi on degree 1, where d lands on the flipped sign
    DETAIL = {"check": "psi_commutes", "witness": [1, 5, 1]}

    @staticmethod
    def corrupt(monkeypatch, diff_at=None):
        psi, build_diff = SliceComplex.psi, SliceComplex.build_diff
        j, i, k = TestVerifyReport.PSI_AT

        def bad_psi(sl, deg):
            table = psi(sl, deg)
            if (sl.j, deg) == (j, i):
                table[k] = (table[k][0], -table[k][1])
            return table

        def bad_diff(sl, deg, leads=None):
            m = build_diff(sl, deg, leads)
            if leads is None and (sl.j, deg) == diff_at[:2]:
                m.add(diff_at[2], 0, 1)
            return m

        monkeypatch.setattr(SliceComplex, "psi", bad_psi)
        if diff_at is not None:
            monkeypatch.setattr(SliceComplex, "build_diff", bad_diff)

    @staticmethod
    def checks(capsys, corpus_dir, name="t3_2"):
        code, out = run_cli(capsys, "verify", str(corpus_dir / f"{name}.json"))
        assert code == 2
        return {c["name"]: c for c in json.loads(out)["checks"]}

    def test_wrong_action_leaves_d_squared_passing(self, capsys, corpus_dir, monkeypatch):
        self.corrupt(monkeypatch)
        checks = self.checks(capsys, corpus_dir)
        assert checks["differential_squares_to_zero"]["pass"]
        assert checks["action_is_chain_automorphism"] == {
            "name": "action_is_chain_automorphism", "pass": False, "detail": self.DETAIL}

    def test_wrong_order_is_named_in_the_detail(self, capsys, corpus_dir, monkeypatch):
        # -psi on the whole slice j = -3 of borromean_n3 commutes with d, but
        # has order 6 where n = 3: the first failure is the slice's first generator
        psi = SliceComplex.psi
        monkeypatch.setattr(SliceComplex, "psi", lambda sl, deg: [
            (k, -s if sl.j == -3 else s) for k, s in psi(sl, deg)])
        low = min(build_complex(corpus.build("borromean_n3")).slice(-3).dims)
        checks = self.checks(capsys, corpus_dir, "borromean_n3")
        assert checks["differential_squares_to_zero"]["pass"]
        assert checks["action_is_chain_automorphism"]["detail"] == {
            "check": "psi_order", "witness": [low, -3, 0]}

    def test_d_squared_is_checked_after_an_action_failure(self, capsys, corpus_dir,
                                                          monkeypatch):
        d2 = build_complex(corpus.build("t3_2")).slice(7).diff(2)
        assert d2.cols
        self.corrupt(monkeypatch, (7, 1, min(d2.cols)))
        checks = self.checks(capsys, corpus_dir)
        assert not checks["differential_squares_to_zero"]["pass"]
        assert checks["action_is_chain_automorphism"]["detail"] == self.DETAIL

    def test_a_psi_that_is_not_injective_fails_the_action(self, capsys, corpus_dir,
                                                          monkeypatch):
        # psi sends generators 2 and 3 of slice j = 5, degree 2, to one place.
        # The entrywise psi d = d psi check on degree 1 reads psi there as a
        # bijection and passes; psi^n = 1 on degree 2 is what fails.
        psi = SliceComplex.psi
        j, i, _ = self.PSI_AT

        def merged(sl, deg):
            table = psi(sl, deg)
            if (sl.j, deg) == (j, i):
                table[2] = table[3]
            return table

        monkeypatch.setattr(SliceComplex, "psi", merged)
        checks = self.checks(capsys, corpus_dir)
        assert checks["differential_squares_to_zero"]["pass"]
        action = checks["action_is_chain_automorphism"]
        assert not action["pass"] and action["detail"]["check"] == "psi_order"


def child_peak_mb(*argv) -> float:
    """ru_maxrss in MB of `pkh ARGV...` run in a child of its own, which must exit 0."""
    child = subprocess.Popen([sys.executable, "-m", "pkh.cli", *argv],
                             stdout=subprocess.DEVNULL, env=child_env())
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, argv
    return usage.ru_maxrss / 1024


@pytest.mark.slow
def test_verify_on_the_largest_diagram_peaks_within_250_mb(corpus_dir):
    """`verify t8_2` (14 crossings, chain rank 366,852): at most 250 MB."""
    assert child_peak_mb("verify", str(corpus_dir / "t8_2.json")) <= 250


@pytest.mark.slow
def test_kh_on_the_largest_diagram_peaks_within_80_mb(corpus_dir):
    """`kh t8_2`: at most 80 MB, with the state-sum tables held as bytes."""
    assert child_peak_mb("kh", str(corpus_dir / "t8_2.json")) <= 80


@pytest.mark.slow
def test_ekh_on_the_largest_diagram_peaks_within_245_mb(corpus_dir):
    """`ekh t8_2 --d 2`: at most 245 MB, with no table of psi kept on a slice."""
    assert child_peak_mb("ekh", str(corpus_dir / "t8_2.json"), "--d", "2") <= 245


def child_traced_memory(*argv) -> tuple[int, int]:
    """tracemalloc's (current, peak) bytes after `pkh ARGV...` returns, traced
    from after the import in a child of its own, which must exit 0."""
    code = ("import sys, tracemalloc\n"
            "from pkh import cli\n"
            "tracemalloc.start()\n"
            "cli.main(sys.argv[1:])\n"
            "print(*tracemalloc.get_traced_memory(), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    current, peak = map(int, proc.stderr.split())
    return current, peak


def test_kh_leaves_at_most_2_5_mb_allocated(corpus_dir):
    """After `kh t7_2` returns, at most 2.5 MB of what it allocated is still
    held: a slice keeps its smoothings, not a table per smoothing or generator.
    At its peak it holds at most 5.5 MB: a matrix column is a list of rows
    and the kernel's live generators are a bytearray of flags, not sets."""
    current, peak = child_traced_memory("kh", str(corpus_dir / "t7_2.json"))
    assert current <= 2_500_000
    assert peak <= 5_500_000


def test_ekh_peaks_at_most_4_5_mb_allocated(corpus_dir):
    """`ekh t6_2 --d 2 --window 40` holds at most 4.5 MB at its peak: on top
    of the bookkeeping of `kh`, the total complex is reduced in place, not
    copied first."""
    assert child_traced_memory("ekh", str(corpus_dir / "t6_2.json"),
                               "--d", "2", "--window", "40")[1] <= 4_500_000


TRACED = Path(__file__).resolve().parent.parent / "khbench" / "traced.py"


@pytest.mark.parametrize("argv", [("kh", "trefoil"), ("ekh", "borromean_n3", "--d", "3"),
                                  ("verify", "borromean_n3")])
def test_the_benchmark_tracer_finds_every_layer(argv, corpus_dir, tmp_path):
    """`khbench/traced.py` wraps its layers by name, and reads a layer it
    cannot find as 0: none may be missing, and tracing leaves stdout as it is."""
    cmd, name, *rest = argv
    args = [cmd, str(corpus_dir / f"{name}.json"), *rest]
    report = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(TRACED), str(report), *args],
                            capture_output=True, text=True, env=child_env())
    plain = subprocess.run([sys.executable, "-m", "pkh.cli", *args],
                           capture_output=True, text=True, env=child_env())
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert json.loads(report.read_text())["missing"] == []
    assert traced.stdout == plain.stdout


def test_closed_stdout_exits_3_with_one_line():
    """A reader that stops early gets exit code 3 and one stderr line, not a
    traceback: the 131 kB of output cannot all fit in the pipe."""
    child = subprocess.Popen([sys.executable, "-m", "pkh.cli", "oracle", "torus", "--n", "4096"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert child.stdout.read(10) == b'{"khp": "q'
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def run_cli_err(capsys, *argv):
    """(exit code, stderr lines) of one in-process run."""
    code = main(list(argv))
    return code, capsys.readouterr().err.splitlines()


class TestMalformedInput:
    """Every malformed document exits 3 with one `error:` line."""

    def hopf(self):
        return corpus.corpus_specs()["hopf"]

    def test_wrong_shapes_exit_3(self, capsys, tmp_path):
        for field, value in (("crossings", 5), ("orient", [["a"]]), ("arcs", [1]),
                             ("seam_in", 7), ("crossings", [{"id": 0, "slots": 3}])):
            doc = self.hopf()
            doc["tangle"][field] = value
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code, err = run_cli_err(capsys, "kh", str(path))
            assert code == 3, (field, value)
            assert len(err) == 1 and err[0].startswith("error: "), (field, err)

    def test_document_and_tangle_that_are_not_objects_exit_3(self, capsys, tmp_path):
        """A top-level array, string or null, or a tangle that is not an
        object, is named as such, not reported as a Python TypeError."""
        cases = [(doc, "error: the diagram must be a JSON object")
                 for doc in ([self.hopf()], "hopf", None, 5)]
        for tangle in ("x", None, [self.hopf()["tangle"]], 2):
            doc = self.hopf()
            doc["tangle"] = tangle
            cases.append((doc, "error: tangle must be a JSON object"))
        path = tmp_path / "bad.json"
        for doc, want in cases:
            path.write_text(json.dumps(doc))
            code, err = run_cli_err(capsys, "kh", str(path))
            assert (code, err) == (3, [want]), doc

    def test_not_utf8_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(self.hopf()).encode())
        code, err = run_cli_err(capsys, "kh", str(path))
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_deep_nesting_exits_3(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, err = run_cli_err(capsys, "kh", str(path))
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ")


# values of other JSON types put in place of a field
RETYPES = (None, "x", 5, 1.5, True, [], {}, [["a"]], [1], -1)


def json_paths(node, at=()):
    """Paths to every value below the document root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from json_paths(value, at + (key,))


def mutants(text, rng, count):
    """Seeded mutants of a document: a field dropped or retyped, the text
    truncated, or bytes of any value inserted."""
    raw = text.encode()
    paths = list(json_paths(json.loads(text)))
    for _ in range(count):
        kind = rng.choice(("drop", "retype", "truncate", "bytes"))
        if kind in ("drop", "retype"):
            doc = json.loads(text)
            *head, key = rng.choice(paths)
            parent = doc
            for k in head:
                parent = parent[k]
            if kind == "drop":
                del parent[key]
            else:
                parent[key] = rng.choice(RETYPES)
            yield kind, json.dumps(doc).encode()
        elif kind == "truncate":
            yield kind, raw[:rng.randrange(len(raw))]
        else:
            at = rng.randrange(len(raw) + 1)
            noise = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
            yield kind, raw[:at] + noise + raw[at:]


def test_mutated_corpus_files_parse_or_exit_3(capsys, corpus_dir, tmp_path):
    """Each mutant of each corpus file parses or exits 3 with one line.

    A mutant that is well formed but over the crossing limit exits 1 with
    one line instead.
    """
    rng = random.Random(17)
    path = tmp_path / "mutant.json"
    outcomes = {"parsed": 0, "parse error": 0, "too large": 0}
    for source in sorted(corpus_dir.glob("*.json")):
        for kind, data in mutants(source.read_text(), rng, 12):
            path.write_bytes(data)
            where = (source.name, kind, data[:200])
            try:
                _load(str(path))
            except ParseError:
                code, err = run_cli_err(capsys, "kh", str(path))
                assert code == 3, where
                assert len(err) == 1 and err[0].startswith("error: "), (where, err)
                outcomes["parse error"] += 1
            except ValidationError as exc:
                assert "crossings" in str(exc), where
                code, err = run_cli_err(capsys, "kh", str(path))
                assert code == 1 and len(err) == 1, (where, err)
                outcomes["too large"] += 1
            else:
                outcomes["parsed"] += 1
    assert outcomes["parse error"] > 500, outcomes


class TestSizeGuards:
    """Oversized input exits 1 with one line, in well under a second."""

    def write(self, tmp_path, word, strands, n):
        return self.write_spec(tmp_path, corpus.braid_tangle(word, strands, n))

    def write_spec(self, tmp_path, spec):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def assert_refused(self, capsys, *argv):
        start = time.perf_counter()
        code, err = run_cli_err(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 1, argv
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)

    def test_crossing_limit(self, capsys, tmp_path):
        flat = self.write(tmp_path, (1,) * (MAX_CROSSINGS + 1), 2, 1)
        self.assert_refused(capsys, "kh", flat)
        periodic = self.write(tmp_path, (1, -2, 1), 3, MAX_CROSSINGS)
        self.assert_refused(capsys, "verify", periodic)

    def test_chain_rank_limit(self, capsys, tmp_path):
        # crossingless, so the crossing limit does not see their 2^circles generators
        for spec in (corpus.trivial_link(30, 1, 0), corpus.trivial_link(1, 26, 0)):
            self.assert_refused(capsys, "kh", self.write_spec(tmp_path, spec))
        self.assert_refused(capsys, "ekh", self.write_spec(tmp_path, corpus.trivial_link(2, 9, 1)),
                            "--d", "2")

    def test_rotation_order_limit(self, capsys, tmp_path):
        self.assert_refused(capsys, "kh", self.write_spec(tmp_path, corpus.trivial_link(10**8, 0, 1)))
        self.assert_refused(capsys, "verify", self.write_spec(
            tmp_path, corpus.trivial_link(MAX_ARC_PIECES + 1, 0, 1)))
        # a tangle with no arcs counts as one, so n is bounded for it too
        empty = {"n": 10**8, "tangle": {"crossings": [], "arcs": [], "seam_in": [],
                                        "seam_out": [], "orient": []}}
        self.assert_refused(capsys, "verify", self.write_spec(tmp_path, empty))
        code, out = run_cli(capsys, "kh", self.write_spec(
            tmp_path, corpus.trivial_link(MAX_ARC_PIECES, 0, 1)))
        assert code == 0 and json.loads(out)["groups"]

    def test_limits_fit_the_byte_tables(self):
        # a smoothing stores arc ids and circle indices in bytes, and an edge
        # of `DiagramComplex.edges` its crossing: raising a limit past a byte
        # must fail here, not in `bytes()` at run time
        assert MAX_ARC_PIECES <= 256
        assert MAX_CROSSINGS <= 256

    def test_limits_admit_every_corpus_diagram(self):
        for name, spec in corpus.corpus_specs().items():
            # parsing applies the crossing and arc limits, the buckets the rank limit
            DiagramComplex(diagram_from_dict(spec)).buckets()

    def test_window_limit(self, capsys, corpus_dir):
        self.assert_refused(capsys, "ekh", str(corpus_dir / "hopf.json"), "--d", "2",
                            "--window", "201")
        self.assert_refused(capsys, "oracle", "trivial", "--p", "2", "--n", "1", "--k", "1",
                            "--f", "0", "--u", "0", "--window", "201")

    def test_oracle_limits(self, capsys):
        self.assert_refused(capsys, "oracle", "poly-p", "--p", "2", "--n", "40")
        self.assert_refused(capsys, "oracle", "poly-p", "--p", "1000003", "--n", "1")
        self.assert_refused(capsys, "oracle", "trivial", "--p", "3", "--n", "30", "--k", "1",
                            "--f", "0", "--u", "0")
        self.assert_refused(capsys, "oracle", "trivial", "--p", "2", "--n", "2", "--k", "1",
                            "--f", "13", "--u", "0")
        self.assert_refused(capsys, "oracle", "torus", "--n", "100000000")

    def test_limits_admit_the_largest_corpus_inputs(self, capsys, corpus_dir):
        assert corpus.build("t8_2").ncross <= MAX_CROSSINGS
        code, out = run_cli(capsys, "ekh", str(corpus_dir / "hopf.json"), "--d", "2",
                            "--window", "200")
        assert code == 0 and json.loads(out)["window"] == 200
