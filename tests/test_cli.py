import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import haar_u2
from zzkit import cli, compilers
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
        assert Path(a).read_bytes() == Path(b).read_bytes()

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

    @pytest.mark.parametrize(
        "source, doc, message",
        [
            ("--phases", '{"n": 1, "phases": [NaN, 0.0]}', "phases must be finite"),
            ("--truth-table", '{"n": 3, "values": [0, 1, 1, 0]}', "expected 8 values, got 4"),
        ],
    )
    def test_refused_file_values_exit_three(self, tmp_path, capsys, source, doc, message):
        path = tmp_path / "source.json"
        path.write_text(doc)
        out = tmp_path / "seq.txt"
        assert main(["compile", source, str(path), "-o", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_sequence_refused_before_target(self, tmp_path, capsys, monkeypatch):
        seq = tmp_path / "empty13.txt"
        seq.write_text("QUBITS 13\n")

        def dense_hadamard(n):
            raise AssertionError("the 2^n x 2^n target must not be built")

        monkeypatch.setattr(cli, "_dense_hadamard", dense_hadamard)
        assert main(["verify", str(seq), "--algorithm", "walsh", "--qubits", "13"]) == 3
        assert "13 qubits exceeds the dense cap of 12" in capsys.readouterr().err

    def test_oversized_qubits_refused_before_target(self, tmp_path, capsys, monkeypatch):
        upath = str(tmp_path / "u.json")
        save_u2_matrix(np.eye(2), upath)
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--cu", upath, "--qubits", "3", "-o", out]) == 0

        def dense_controlled_u(u, n):
            raise AssertionError("the 2^n x 2^n target must not be built")

        monkeypatch.setattr(cli, "_dense_controlled_u", dense_controlled_u)
        assert main(["verify", out, "--cu", upath, "--qubits", "14"]) == 3
        assert "14 qubits exceeds the dense cap of 12" in capsys.readouterr().err

    def test_oversized_phase_file_refused_before_target(self, tmp_path, capsys, monkeypatch):
        small = tmp_path / "pv2.json"
        small.write_text(json.dumps({"n": 2, "phases": [0.0, 0.0, 0.0, 1.0]}))
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--phases", str(small), "-o", out]) == 0
        big = tmp_path / "pv13.json"
        big.write_text(json.dumps({"n": 13, "phases": [0.0] * 2**13}))

        def diag(*args, **kwargs):
            raise AssertionError("the 2^n x 2^n target must not be built")

        monkeypatch.setattr(cli.np, "diag", diag)
        assert main(["verify", out, "--phases", str(big)]) == 3
        assert "13 qubits exceeds the dense cap of 12" in capsys.readouterr().err


class TestSchedule:
    def test_schedule_report(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "sched.txt")
        code = main(["schedule", graph_file, "--pair", "1", "2", "--tau", "0.001", "-o", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 I1z I2z" in text
        assert text.count("I3z") == 0  # single surviving term
        body = Path(out).read_text()
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

    @pytest.mark.parametrize(
        "operator, expected",
        [
            (
                "I1x I2x + I1y I2y",
                "operator: 1 I1x I2x + 1 I1y I2y\n"
                "orders: +0\n"
                "  weight p=+0: 0.5\n"
                "subspace: zero-quantum\n",
            ),
            (
                "I1x I2x + -1 I1y I2y + 0.5 I1x I2y + 0.3 I1x I3z + 0.1 I4y",
                "operator: 1 I1x I2x + -1 I1y I2y + 0.5 I1x I2y + 0.3 I1x I3z + 0.1 I4y\n"
                "orders: -2, -1, +0, +1, +2\n"
                "  weight p=-2: 0.265625\n"
                "  weight p=-1: 0.025\n"
                "  weight p=+0: 0.03125\n"
                "  weight p=+1: 0.025\n"
                "  weight p=+2: 0.265625\n"
                "subspace: general\n",
            ),
            (
                "I1x I2x I3y I4y I5x + 0.7 I1y I2x I3x I4y I5y + -1.25 I1x I3z I5y"
                " + 0.125 I2y I4x",
                "operator: 1 I1x I2x I3y I4y I5x + 0.7 I1y I2x I3x I4y I5y"
                " + -1.25 I1x I3z I5y + 0.125 I2y I4x\n"
                "orders: -5, -3, -2, -1, +0, +1, +2, +3, +5\n"
                "  weight p=-5: 0.001455078125\n"
                "  weight p=-3: 0.007275390625\n"
                "  weight p=-2: 0.0986328125\n"
                "  weight p=-1: 0.01455078125\n"
                "  weight p=+0: 0.197265625\n"
                "  weight p=+1: 0.01455078125\n"
                "  weight p=+2: 0.0986328125\n"
                "  weight p=+3: 0.007275390625\n"
                "  weight p=+5: 0.001455078125\n"
                "subspace: general\n",
            ),
            (
                "0.5 I1x I2y I3z + 0.25 I2x I4x I5y + -1.5 I1z I5z + 0.3 I3y I4z I6x"
                " + 2 I1x I2x I3x I4x I5x I6x",
                "operator: 0.5 I1x I2y I3z + 0.25 I2x I4x I5y + -1.5 I1z I5z"
                " + 0.3 I3y I4z I6x + 2 I1x I2x I3x I4x I5x I6x\n"
                "orders: -6, -4, -3, -2, -1, +0, +1, +2, +3, +4, +6\n"
                "  weight p=-6: 0.0009765625\n"
                "  weight p=-4: 0.005859375\n"
                "  weight p=-3: 0.0009765625\n"
                "  weight p=-2: 0.0358984375\n"
                "  weight p=-1: 0.0029296875\n"
                "  weight p=+0: 2.31203125\n"
                "  weight p=+1: 0.0029296875\n"
                "  weight p=+2: 0.0358984375\n"
                "  weight p=+3: 0.0009765625\n"
                "  weight p=+4: 0.005859375\n"
                "  weight p=+6: 0.0009765625\n"
                "subspace: general\n",
            ),
            (
                "3",
                "operator: 3\norders: +0\n  weight p=+0: 9\nsubspace: longitudinal\n",
            ),
        ],
    )
    def test_classify_output_is_pinned(self, capsys, operator, expected):
        assert main(["classify", operator]) == 0
        assert capsys.readouterr().out == expected
