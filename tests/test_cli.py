import json
import subprocess
import sys

import pytest

from pkh import corpus
from pkh.cli import main
from pkh.complexes import DiagramComplex
from pkh.diagram import parse_diagram


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    corpus.write_corpus(d)
    return d


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

    def test_ekh_rejects_bad_divisor(self, capsys, corpus_dir):
        hopf = str(corpus_dir / "hopf.json")
        cases = [(cmd, hopf, "--d", d) for cmd in ("ekh", "poly") for d in ("3", "0", "-1")]
        cases.append(("oracle", "trivial", "--p", "2", "--n", "1", "--k", "1",
                      "--f", "0", "--u", "0", "--window", "-1"))
        cases.append(("oracle", "trivial", "--p", "2", "--n", "1", "--k", "-1",
                      "--f", "1", "--u", "0"))
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

    def test_ss_sector(self, capsys, corpus_dir):
        code, out = run_cli(capsys, "ss", str(corpus_dir / "t4_2.json"),
                            "--orbit", "2", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        e2 = next(p for p in doc["pages"] if p["r"] == 2)
        assert e2["entries"] == [{"p": 1, "q": 3, "quantum": 12, "dim": 1}]

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

    def test_console_entry_point(self, corpus_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "pkh.cli", "poly", str(corpus_dir / "hopf.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["polynomial"] == "1 + q^2 + t^2*q^4 + t^2*q^6"
