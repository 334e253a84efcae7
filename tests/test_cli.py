import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import haar_u2, write_json
from zzkit import cli, compilers, pauli, simulator
from zzkit.cli import main
from zzkit.pauli import coherence_orders


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
        u = haar_u2(np.random.default_rng(1))
        upath = write_json(tmp_path / "u.json", {"re": u.real.tolist(), "im": u.imag.tolist()})
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--cu", upath, "--qubits", "3", "-o", out]) == 0
        assert "zz=6" in capsys.readouterr().out

        def compiler(*args):
            raise AssertionError("verify must build its target without the compiler")

        # Every function defined in compilers, except the file reader.
        for name, fn in inspect.getmembers(compilers, inspect.isfunction):
            if fn.__module__ == compilers.__name__ and name not in ("load_u2_matrix", "_u2_fields"):
                monkeypatch.setattr(compilers, name, compiler)
        assert main(["verify", out, "--cu", upath, "--qubits", "3"]) == 0

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize(
        "doc, shape",
        [
            ({"re": [[1, 0], [0, 1]], "im": [[0]]}, (1, 1)),
            ({"re": [[1, 0], [0, 1]], "im": [[0, 0]]}, (1, 2)),
            ({"re": [[1, 0]], "im": [[0, 0], [0, 0]]}, (1, 2)),
        ],
    )
    def test_cu_part_not_two_by_two_exits_two(self, tmp_path, capsys, command, doc, shape):
        # broadcasting would turn the first two into the identity, which
        # verify passes against an empty sequence
        upath = write_json(tmp_path / "u.json", doc)
        seq = tmp_path / "seq.txt"
        if command == "compile":
            argv = ["compile", "--cu", upath, "--qubits", "2", "-o", str(seq)]
        else:
            seq.write_text("QUBITS 2\n")
            argv = ["verify", str(seq), "--cu", upath, "--qubits", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad 2x2 matrix file {upath}: shape {shape}\n"
        assert command == "verify" or not seq.exists()

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_exits_three(self, tmp_path, capsys, tol):
        # refused before the sequence file is read: a missing file would exit 2
        missing = str(tmp_path / "missing.txt")
        args = ["--algorithm", "walsh", "--qubits", "2", "--tol", tol]
        assert main(["verify", missing, *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--tol must be positive and finite, got {float(tol)!r}" in captured.err

    def test_missing_file_exits_two(self, tmp_path):
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--phases", str(tmp_path / "nope.json"), "-o", out]) == 2

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

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize(
        "source, doc, message",
        [
            ("--phases", {"n": 20000, "phases": [0.0] * 4}, "expected 2**20000 phases, got (4,)"),
            ("--truth-table", {"n": 20000, "values": [0, 1, 1, 0]},
             "expected 2**20000 values, got 4"),
        ],
    )
    def test_huge_n_in_file_is_named(self, tmp_path, capsys, command, source, doc, message):
        # n is never used as an exponent: no 2**20000 is formed or printed
        path = write_json(tmp_path / "source.json", doc)
        seq = tmp_path / "seq.txt"
        if command == "compile":
            argv = ["compile", source, path, "-o", str(seq)]
        else:
            seq.write_text("QUBITS 2\n")
            argv = ["verify", str(seq), source, path]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_huge_walsh_compile_is_named(self, tmp_path, capsys):
        out = tmp_path / "seq.txt"
        argv = ["compile", "--algorithm", "walsh", "--qubits", "20000", "-o", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: 20000 qubits exceeds the compile cap of 16: a dense diagonal on "
            "20000 qubits lowers to 2**20000 - 2 ZZ gates\n"
        )
        assert not out.exists()

    def test_oversized_sequence_refused_before_target(self, tmp_path, capsys, monkeypatch):
        seq = tmp_path / "empty13.txt"
        seq.write_text("QUBITS 13\n")

        def dense_hadamard(n):
            raise AssertionError("the 2^n x 2^n target must not be built")

        monkeypatch.setattr(simulator, "hadamard_unitary", dense_hadamard)
        assert main(["verify", str(seq), "--algorithm", "walsh", "--qubits", "13"]) == 3
        assert "13 qubits exceeds the dense cap of 12" in capsys.readouterr().err

    def test_oversized_qubits_refused_before_target(self, tmp_path, capsys, monkeypatch):
        upath = write_json(tmp_path / "u.json", {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--cu", upath, "--qubits", "3", "-o", out]) == 0

        def universal_gate_matrix(u, n):
            raise AssertionError("the 2^n x 2^n target must not be built")

        monkeypatch.setattr(simulator, "universal_gate_matrix", universal_gate_matrix)
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

    def test_size_mismatch_refused_before_target(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "seq.txt")
        assert main(["compile", "--algorithm", "walsh", "--qubits", "3", "-o", out]) == 0

        def dense_grover(n, marked):
            raise AssertionError("the 2^n x 2^n target must not be built")

        monkeypatch.setattr(simulator, "grover_unitary", dense_grover)
        argv = ["verify", out, "--algorithm", "grover", "--qubits", "12", "--marked", "1"]
        assert main(argv) == 3
        assert "sequence has 3 qubits, target has 12" in capsys.readouterr().err

    def test_oversized_compile_refused_before_building(self, tmp_path, capsys, monkeypatch):
        def build_grover_iteration(n, marked):
            raise AssertionError("a 2^30 compile must not start")

        monkeypatch.setattr(compilers, "build_grover_iteration", build_grover_iteration)
        out = tmp_path / "seq.txt"
        argv = ["compile", "--algorithm", "grover", "--qubits", "30", "--marked", "0"]
        assert main([*argv, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "30 qubits exceeds the compile cap of 16" in err
        assert f"lowers to {2**30 - 2} ZZ gates" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize(
        "source, message",
        [
            (["--cu", "u.json"], "--cu requires --qubits"),
            (["--algorithm", "grover", "--marked", "1"],
             "--algorithm grover requires --qubits and --marked"),
            (["--algorithm", "grover", "--qubits", "3"],
             "--algorithm grover requires --qubits and --marked"),
            (["--algorithm", "walsh"], "--algorithm walsh requires --qubits"),
        ],
        ids=["cu-no-qubits", "grover-no-qubits", "grover-no-marked", "walsh-no-qubits"],
    )
    def test_missing_source_argument_exits_three(self, tmp_path, capsys, command, source, message):
        seq = tmp_path / "seq.txt"
        seq.write_text("QUBITS 3\n")
        if command == "compile":
            argv = ["compile", *source, "-o", str(tmp_path / "out.txt")]
        else:
            argv = ["verify", str(seq), *source]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_parser_is_built_once(self, graph_file, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ["schedule", graph_file, "--pair", "1", "2", "--tau", "0.001", "-o"]
        assert main([*argv, str(tmp_path / "alone.sched")]) == 0
        alone = capsys.readouterr()
        # a usage error leaves nothing behind in the shared parser
        with pytest.raises(SystemExit) as info:
            main(["schedule", graph_file, "--pair", "1"])
        assert info.value.code == 2
        capsys.readouterr()
        assert main([*argv, str(tmp_path / "after.sched")]) == 0
        after = capsys.readouterr()
        assert after.out == alone.out.replace("alone.sched", "after.sched")
        assert after.err == alone.err == ""
        assert (tmp_path / "after.sched").read_bytes() == (tmp_path / "alone.sched").read_bytes()

    def test_no_surviving_term_prints_none(self, tmp_path, capsys):
        # pi * J * T = pi * 1e-300 Hz * 1e-3 s is below DROP_TOL
        graph = write_json(tmp_path / "g.json", {
            "n": 2, "shifts": [100.0, -50.0], "couplings": [{"i": 1, "j": 2, "J": 1e-300}]
        })
        out = tmp_path / "sched.txt"
        argv = ["schedule", graph, "--pair", "1", "2", "--tau", "0.001", "-o", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"wrote {out}: 2 segments, total duration 0.001 s\n"
            "surviving average-Hamiltonian terms (radians):\n"
            "  (none)\n"
        )
        assert out.read_text().startswith("SPINS 2\n")

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
        "doc, message",
        [
            (None, "total duration must be finite"),  # 4 segments of 1e308 s
            ({"n": 2, "shifts": [100.0, -50.0], "couplings": [{"i": 1, "j": 2, "J": 5.0}]},
             "coefficient of (1, 2) must be finite, got inf"),  # pi * 5 Hz * 1e308 s
        ],
        ids=["chain-total-overflows", "pair-average-overflows"],
    )
    def test_overflowing_tau_exits_three(self, graph_file, tmp_path, capsys, doc, message):
        graph = graph_file
        if doc is not None:
            graph = tmp_path / "g2.json"
            graph.write_text(json.dumps(doc))
        out = tmp_path / "sched.txt"
        argv = ["schedule", str(graph), "--pair", "1", "2", "--tau", "1e308", "-o", str(out)]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
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

    def test_classify_runs_the_transform_once(self, capsys, monkeypatch):
        calls = []

        def counted(poly):
            calls.append(poly)
            return coherence_orders(poly)

        monkeypatch.setattr(cli, "coherence_orders", counted)
        monkeypatch.setattr(pauli, "coherence_orders", counted)
        assert main(["classify", "2 I1x I2x"]) == 0
        assert "even-order" in capsys.readouterr().out
        assert len(calls) == 1

    def test_classify_parse_error(self):
        assert main(["classify", "2 Q1z"]) == 2

    def test_classify_past_amplitude_cap_exits_three(self, capsys, monkeypatch):
        zeros = np.zeros

        def capped(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 4**12:
                raise AssertionError(f"a {shape} array must not be allocated")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(pauli.np, "zeros", capped)
        assert main(["classify", " ".join(f"I{i}x" for i in range(1, 26))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "past the cap of 16777216" in captured.err

    def test_classify_past_factor_budget_exits_three(self, capsys, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("a refused operator must build no term")

        monkeypatch.setattr(pauli.ProductOperator, "from_axes", classmethod(refuse))
        assert main(["classify", "I100000000x"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 1 term(s) on 100000000 spins need 100000000 factors, "
            "past the cap of 16777216\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ion", "nan"], "angle must be finite, got lam = nan"),
            (["ion", "inf"], "angle must be finite, got lam = inf"),
            (["ion", "1", "--phi2", "nan"], "angle must be finite, got phi2 = nan"),
            (["classify", "nan I1x"], "coefficient must be finite, got nan"),
            (["classify", "inf I1x + 1 I2y"], "coefficient must be finite, got inf"),
            (["classify", "1e200 I1x I2x"], "weight of order p=-2 overflows the float range"),
            (["classify", "1e160 I1x"], "weight of order p=-1 overflows the float range"),
        ],
    )
    def test_non_finite_numbers_exit_three(self, capsys, argv, message):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

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


_GRAPH = {"n": 3, "shifts": [100.0, -50.0, 75.0], "couplings": [{"i": 1, "j": 2, "J": 20.0}]}
_SCHEDULE_12 = ["--pair", "1", "2", "--tau", "0.001"]
_NOT_UNITARY = {"re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]}


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["compile", "--cu", "u.json", "--qubits", "0"],
         {"u.json": {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}, "need at least one qubit"),
        (["compile", "--algorithm", "grover", "--qubits", "0", "--marked", "0"], {},
         "need at least one qubit"),
        (["compile", "--algorithm", "walsh", "--qubits", "0"], {}, "need at least one qubit"),
        (["verify", "s.seq", "--algorithm", "grover", "--qubits", "2", "--marked", "4"],
         {"s.seq": "QUBITS 2\n"}, "basis index 4 outside 0..3"),
        (["verify", "s.seq", "--algorithm", "walsh", "--qubits", "1"],
         {"s.seq": "QUBITS 0\n"}, "need at least one qubit"),
        (["compile", "--phases", "p.json"], {"p.json": {"n": 0, "phases": [0.0]}},
         "need at least one qubit"),
        (["compile", "--cu", "u.json", "--qubits", "2"], {"u.json": _NOT_UNITARY},
         "matrix is not unitary"),
        (["verify", "s.seq", "--cu", "u.json", "--qubits", "2"],
         {"s.seq": "QUBITS 2\n", "u.json": _NOT_UNITARY}, "matrix is not unitary"),
        (["compile", "--truth-table", "t.json"], {"t.json": {"n": 0, "values": [0]}},
         "need at least one input"),
        (["compile", "--phases", "p.json"],
         {"p.json": {"n": 3, "phases": [1.7e308 * s for s in (1, -1, -1, 1, 1, -1, 1, -1)]}},
         "coefficient of (3,) must be finite, got nan"),
        (["schedule", "g.json", *_SCHEDULE_12], {"g.json": {**_GRAPH, "shifts": [1.0, 2.0]}},
         "expected 3 shifts"),
        (["schedule", "g.json", *_SCHEDULE_12],
         {"g.json": {**_GRAPH, "couplings": [{"i": 1, "j": 2, "J": 5.0}, {"i": 2, "j": 1, "J": 6.0}]}},
         "conflicting values for coupling (1, 2)"),
        (["schedule", "g.json", *_SCHEDULE_12],
         {"g.json": {**_GRAPH, "couplings": [{"i": 1, "j": 4, "J": 5.0}]}},
         "coupling (1,4) outside 1..3"),
        (["schedule", "g.json", "--pair", "1", "1", "--tau", "0.001"], {"g.json": _GRAPH},
         "need two distinct spins"),
    ],
    ids=["cu-qubits-0", "grover-qubits-0", "walsh-qubits-0", "grover-marked-past-range",
         "sequence-qubits-0", "phases-n-0", "cu-not-unitary-compile", "cu-not-unitary-verify",
         "truth-table-n-0", "phases-walsh-overflow", "graph-shift-count",
         "graph-conflicting-pair", "graph-spin-out-of-range", "pair-repeats-a-spin"],
)
def test_refusals_exit_three_with_message(tmp_path, capsys, argv, files, message):
    """Each refused input exits 3 with its message and writes no output."""
    for name, doc in files.items():
        if isinstance(doc, str):
            (tmp_path / name).write_text(doc)
        else:
            write_json(tmp_path / name, doc)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out = tmp_path / "out.txt"
    if argv[0] != "verify":
        argv += ["-o", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()
