import json
import math

import numpy as np
import pytest

from conftest import haar_u2
from zzkit import compilers
from zzkit.cli import main
from zzkit.compilers import save_u2_matrix


@pytest.fixture
def phase_file(tmp_path):
    path = tmp_path / "pv.json"
    path.write_text(json.dumps({"n": 2, "phases": [0.0, 0.0, 0.0, math.pi]}))
    return str(path)


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "tt.json"
    path.write_text(json.dumps({"n": 3, "values": [0, 1, 1, 0, 1, 0, 0, 1]}))
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    doc = {
        "n": 3,
        "shifts": [100.0, -50.0, 75.0],
        "couplings": [{"i": 1, "j": 2, "J": 20.0}, {"i": 2, "j": 3, "J": 5.0}],
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestCompileVerify:
    def test_phases_roundtrip(self, phase_file, tmp_path, capsys):
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--phases", phase_file, "-o", out]) == 0
        assert "zz=1" in capsys.readouterr().out
        assert main(["verify", out, "--phases", phase_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_truth_table_roundtrip(self, truth_file, tmp_path):
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--truth-table", truth_file, "-o", out]) == 0
        assert main(["verify", out, "--truth-table", truth_file]) == 0

    def test_controlled_u_roundtrip(self, tmp_path, capsys, monkeypatch):
        upath = str(tmp_path / "u.json")
        save_u2_matrix(haar_u2(np.random.default_rng(1)), upath)
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--cu", upath, "--qubits", "3", "-o", out]) == 0
        assert "zz=6" in capsys.readouterr().out

        def compiler_matrix(*args):
            raise AssertionError("verify must build its target without the compiler")

        monkeypatch.setattr(compilers, "universal_gate_matrix", compiler_matrix)
        assert main(["verify", out, "--cu", upath, "--qubits", "3"]) == 0

    def test_grover_roundtrip(self, tmp_path):
        out = str(tmp_path / "seq.txt")
        args = ["--algorithm", "grover", "--qubits", "3", "--marked", "5"]
        assert main(["compile", *args, "-o", out]) == 0
        assert main(["verify", out, *args]) == 0

    def test_walsh_roundtrip(self, tmp_path):
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--algorithm", "walsh", "--qubits", "2", "-o", out]) == 0
        assert main(["verify", out, "--algorithm", "walsh", "--qubits", "2"]) == 0

    def test_verify_fail_exits_one(self, phase_file, tmp_path, capsys):
        out = str(tmp_path / "seq.txt")
        main(["compile", "--phases", phase_file, "-o", out])
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"n": 2, "phases": [0.0, 1.0, 0.0, math.pi]}))
        assert main(["verify", out, "--phases", str(wrong)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_empty_sequence_vs_identity(self, tmp_path):
        pv = tmp_path / "zero.json"
        pv.write_text(json.dumps({"n": 2, "phases": [0.0, 0.0, 0.0, 0.0]}))
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--phases", str(pv), "-o", out]) == 0
        assert main(["verify", out, "--phases", str(pv)]) == 0

    def test_byte_determinism(self, phase_file, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        main(["compile", "--phases", phase_file, "-o", a])
        main(["compile", "--phases", phase_file, "-o", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--phases", str(bad), "-o", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}: ")

    def test_missing_file_exits_two(self, tmp_path):
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--phases", str(tmp_path / "nope.json"), "-o", out]) == 2

    def test_missing_qubits_exits_three(self, tmp_path):
        upath = str(tmp_path / "u.json")
        save_u2_matrix(np.eye(2), upath)
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--cu", upath, "-o", out]) == 3


class TestSchedule:
    def test_schedule_report(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "sched.txt")
        code = main(["schedule", graph_file, "--pair", "1", "2", "--tau", "0.001", "-o", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 I1z I2z" in text
        assert text.count("I3z") == 0  # single surviving term
        body = open(out).read()
        assert body.startswith("SPINS 3\n")
        assert "PULSE180" in body

    def test_uncoupled_pair_exits_three(self, graph_file, tmp_path):
        out = str(tmp_path / "sched.txt")
        assert main(["schedule", graph_file, "--pair", "1", "3", "--tau", "0.001", "-o", out]) == 3

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exits_three(self, graph_file, tmp_path, capsys, tau):
        out = tmp_path / "sched.txt"
        argv = ["schedule", graph_file, "--pair", "1", "2", "--tau", tau, "-o", str(out)]
        assert main(argv) == 3
        assert "tau must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shifts, coupling, message",
        [
            ([math.nan, 0.0], math.inf, "shift of spin 1 must be finite, got nan"),
            ([0.0, 0.0], -math.inf, "coupling (1,2) must be finite, got -inf"),
        ],
    )
    def test_non_finite_graph_exits_three(self, tmp_path, capsys, shifts, coupling, message):
        graph = tmp_path / "g.json"
        doc = {"n": 2, "shifts": shifts, "couplings": [{"i": 1, "j": 2, "J": coupling}]}
        graph.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
        out = tmp_path / "sched.txt"
        argv = ["schedule", str(graph), "--pair", "1", "2", "--tau", "0.001", "-o", str(out)]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestIonAndClassify:
    def test_ion_output(self, capsys):
        assert main(["ion", str(math.pi)]) == 0
        out = capsys.readouterr().out
        assert "phi1 = 1.5707963267948966" in out
        assert "residual" in out

    def test_ion_zero_angle_constraints_hold(self, capsys):
        assert main(["ion", "0"]) == 0
        residual_lines = [
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("residual")
        ]
        assert len(residual_lines) == 2
        assert all(ln.endswith(" 0") for ln in residual_lines)

    def test_classify_longitudinal(self, capsys):
        assert main(["classify", "I1z"]) == 0
        out = capsys.readouterr().out
        assert "+0" in out
        assert "longitudinal" in out

    def test_classify_single_quantum(self, capsys):
        assert main(["classify", "I1x"]) == 0
        out = capsys.readouterr().out
        assert "-1" in out and "+1" in out
        assert "general" in out

    def test_classify_double_quantum(self, capsys):
        assert main(["classify", "2 I1x I2x"]) == 0
        out = capsys.readouterr().out
        assert "-2" in out and "+2" in out
        assert "even-order" in out

    def test_classify_parse_error(self):
        assert main(["classify", "2 Q1z"]) == 2
