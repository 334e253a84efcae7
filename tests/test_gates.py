import math
import pickle

import pytest

from zzkit.compilers import U2Params
from zzkit.diagonal import ZPolynomial
from zzkit.gates import (
    Gate,
    GateCounts,
    GateSequence,
    ParseError,
    PhaseVector,
    TruthTable,
    format_sequence,
    gate_counts,
    gphase,
    is_two_to_the,
    json_int,
    load_json,
    normalize_angle,
    parse_sequence,
    power_of_two_text,
    read_sequence,
    rx,
    ry,
    rz,
    write_sequence,
    zz,
)


def test_normalize_angle_range():
    for theta in (0.0, 1.0, -1.0, 5 * math.pi, -5 * math.pi, 10.0, 4 * math.pi):
        r = normalize_angle(theta)
        assert -2 * math.pi < r <= 2 * math.pi
        # shifted by an exact multiple of 4*pi
        assert abs(math.remainder(theta - r, 4 * math.pi)) < 1e-9


def test_normalize_angle_boundary():
    assert normalize_angle(-2 * math.pi) == 2 * math.pi
    assert normalize_angle(4 * math.pi) == 0.0
    with pytest.raises(ValueError):
        normalize_angle(float("nan"))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("HADAMARD", (1,), 0.0)
    with pytest.raises(ValueError):
        Gate("RX", (1, 2), 0.0)
    with pytest.raises(ValueError):
        Gate("ZZ", (2, 2), 1.0)
    with pytest.raises(ValueError):
        Gate("RX", (0,), 1.0)


def test_zz_sorts_qubits():
    assert zz(3, 1, 0.5).qubits == (1, 3)


def test_inverse_roundtrip():
    g = rx(2, 1.25)
    assert g.inverse().inverse() == g
    assert g.inverse().angle == -1.25


def test_sequence_validates_indices():
    seq = GateSequence(2)
    seq.append(rz(2, 0.3))
    with pytest.raises(ValueError):
        seq.append(rz(3, 0.3))
    with pytest.raises(ValueError):
        GateSequence(1, [zz(1, 2, 0.1)])


def test_sequence_inverse_order():
    seq = GateSequence(2, [rx(1, 0.3), zz(1, 2, 0.7)])
    inv = seq.inverse()
    assert [g.kind for g in inv] == ["ZZ", "RX"]
    assert inv[0].angle == -0.7


def test_text_roundtrip_exact(tmp_path):
    seq = GateSequence(
        3,
        [
            gphase(math.pi / 7),
            rx(1, 0.1234567890123456789),
            ry(2, -math.pi),
            rz(3, 1e-9),
            zz(1, 3, 2 * math.pi / 3),
        ],
    )
    path = tmp_path / "seq.txt"
    write_sequence(seq, path)
    back = read_sequence(path)
    assert back.n_qubits == seq.n_qubits
    assert back.gates == seq.gates  # bit-exact through 17 significant digits


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_sequence("RZ 1 0.5\n")  # missing header
    with pytest.raises(ParseError):
        parse_sequence("QUBITS x\n")
    with pytest.raises(ParseError):
        parse_sequence("QUBITS 2\nRZ 1\n")
    with pytest.raises(ParseError):
        parse_sequence("QUBITS 2\nFOO 1 0.5\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("QUBITSX 2\n", "sequence file must start with a 'QUBITS <n>' line"),
        ("QUBITS 2 junk\n", "bad QUBITS header: 'QUBITS 2 junk'"),
        ("QUBITS\n", "bad QUBITS header: 'QUBITS'"),
    ],
)
def test_header_is_exactly_qubits_and_an_integer(text, message):
    """The header is held to the rule of a gate line: its keyword and
    exactly its one field."""
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_sequence(text + "RZ 1 0.5\n")


def test_format_is_deterministic():
    seq = GateSequence(2, [rz(1, 0.25), zz(1, 2, 0.5)])
    assert format_sequence(seq) == format_sequence(seq)
    assert format_sequence(seq).startswith("QUBITS 2\n")


def test_load_json_is_the_one_input_rule(tmp_path):
    path = tmp_path / "doc.json"

    def fields(doc):
        return json_int(doc["n"]), doc["label"]

    path.write_text('{"n": 3, "label": "ok"}')
    assert load_json(path, "demo", fields) == (3, "ok")
    # text that is not UTF-8 JSON is malformed, and so is an integer past
    # Python's digit limit, which json raises as a plain ValueError
    for raw in (b"{broken", b"\xff\xfe{", b'{"n": 1' + b"0" * 5000 + b"}"):
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=f"^invalid JSON in {path}: "):
            load_json(path, "demo", fields)
    # a KeyError, TypeError or ValueError of the fields function (a missing
    # field, a wrong JSON type) is a malformed document
    for doc, cause in (
        ('{"label": "x"}', "'n'"),
        ('{"n": 2.5, "label": "x"}', "expected an integer, got 2.5"),
        ("[1, 2]", "list indices must be integers"),
    ):
        path.write_text(doc)
        with pytest.raises(ParseError, match=f"^bad demo file {path}: {cause}"):
            load_json(path, "demo", fields)


def test_power_of_two_without_the_power():
    assert is_two_to_the(4, 2) and is_two_to_the(1, 0)
    assert not is_two_to_the(4, 3) and not is_two_to_the(6, 2) and not is_two_to_the(0, 0)
    assert not is_two_to_the(4, 10**18)  # decided by bit length; no 2**(10**18)
    assert power_of_two_text(3) == "8" and power_of_two_text(30, 2) == str(2**30 - 2)
    assert power_of_two_text(64) == str(2**64)
    assert power_of_two_text(65) == "2**65"
    assert power_of_two_text(20000, 2) == "2**20000 - 2"


def test_gate_text_forms_are_unchanged():
    assert repr(rx(1, 0.5)) == "Gate(kind='RX', qubits=(1,), angle=0.5)"
    assert repr(zz(3, 1, -0.25)) == "Gate(kind='ZZ', qubits=(1, 3), angle=-0.25)"
    assert repr(gphase(0.1)) == "Gate(kind='PHASE', qubits=(), angle=0.1)"
    assert str(rx(1, 0.5)) == "RX 1 0.5"
    assert str(zz(3, 1, -0.25)) == "ZZ 1 3 -0.25"
    assert str(gphase(0.1)) == "PHASE 0.10000000000000001"
    assert str(ry(2, -2 * math.pi)) == f"RY 2 {2 * math.pi:.17g}"  # normalized


def test_gate_is_a_checked_tuple():
    """A Gate equals, hashes like and unpacks as its plain tuple; its fields
    cannot be set, and a copy or a pickle passes the checks again."""
    g = rx(1, 0.5)
    assert g == ("RX", (1,), 0.5) and hash(g) == hash(("RX", (1,), 0.5))
    kind, qubits, angle = g
    assert (kind, qubits, angle) == ("RX", (1,), 0.5)
    assert Gate("RZ", (2,), 4 * math.pi + 0.5) == ("RZ", (2,), normalize_angle(4 * math.pi + 0.5))
    with pytest.raises(AttributeError):
        g.angle = 1.0
    with pytest.raises(AttributeError):
        g.label = "x"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(g, protocol))
        assert back == g and type(back) is Gate
    assert g._replace(angle=-0.5) == rx(1, -0.5)
    with pytest.raises(ValueError, match=r"^qubit indices are 1-based, got \(0,\)$"):
        g._replace(qubits=(0,))


@pytest.mark.parametrize(
    "args, message",
    [
        (("HADAMARD", (1,), 0.0), "unknown gate kind 'HADAMARD'"),
        (("RX", (1, 2), 0.0), "RX takes 1 qubit(s), got (1, 2)"),
        (("ZZ", (1,), 0.0), "ZZ takes 2 qubit(s), got (1,)"),
        (("PHASE", (1,), 0.0), "PHASE takes 0 qubit(s), got (1,)"),
        (("RX", (0,), 1.0), "qubit indices are 1-based, got (0,)"),
        (("ZZ", (-1, 2), 1.0), "qubit indices are 1-based, got (-1, 2)"),
        (("ZZ", (2, 2), 1.0), "ZZ needs two distinct qubits"),
        (("RY", (1,), math.nan), "angle must be finite, got nan"),
        (("PHASE", (), -math.inf), "angle must be finite, got -inf"),
    ],
)
def test_gate_refusals_are_unchanged(args, message):
    with pytest.raises(ValueError) as info:
        Gate(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, error, message, cause",
    [
        ("", ParseError, "sequence file must start with a 'QUBITS <n>' line", None),
        ("RZ 1 0.5\n", ParseError, "sequence file must start with a 'QUBITS <n>' line", None),
        ("QUBITS x\n", ParseError, "bad QUBITS header: 'QUBITS x'",
         "invalid literal for int() with base 10: 'x'"),
        ("QUBITS 0\n", ValueError, "need at least one qubit", None),
        ("QUBITS 2\nRZ 1\n", ParseError, "bad gate line: 'RZ 1'", "bad gate line: 'RZ 1'"),
        ("QUBITS 2\nFOO 1 0.5\n", ParseError, "bad gate line: 'FOO 1 0.5'",
         "bad gate line: 'FOO 1 0.5'"),
        ("QUBITS 2\nRZ 3 0.5\n", ParseError, "bad gate line: 'RZ 3 0.5'",
         "gate RZ 3 0.5 exceeds register of 2 qubit(s)"),
        ("QUBITS 2\nZZ 3 1 0.5\n", ParseError, "bad gate line: 'ZZ 3 1 0.5'",
         "gate ZZ 1 3 0.5 exceeds register of 2 qubit(s)"),
        ("QUBITS 2\nRX 0 0.5\n", ParseError, "bad gate line: 'RX 0 0.5'",
         "qubit indices are 1-based, got (0,)"),
        ("QUBITS 2\nZZ 2 2 0.5\n", ParseError, "bad gate line: 'ZZ 2 2 0.5'",
         "ZZ needs two distinct qubits"),
        ("QUBITS 2\nRY 1 nan\n", ParseError, "bad gate line: 'RY 1 nan'",
         "angle must be finite, got nan"),
        ("QUBITS 2\nRX 1.5 0.2\n", ParseError, "bad gate line: 'RX 1.5 0.2'",
         "invalid literal for int() with base 10: '1.5'"),
        ("QUBITS 2\nPHASE 1 0.2\n", ParseError, "bad gate line: 'PHASE 1 0.2'",
         "bad gate line: 'PHASE 1 0.2'"),
    ],
)
def test_parse_refusals_are_unchanged(text, error, message, cause):
    with pytest.raises(error) as info:
        parse_sequence(text)
    assert type(info.value) is error and str(info.value) == message
    assert (None if info.value.__cause__ is None else str(info.value.__cause__)) == cause


def test_parse_reads_lowercase_kinds_and_checks_every_line():
    seq = parse_sequence("QUBITS 3\nrx 1 0.5\n  zz 3 2 0.25 \n\nPHASE 0.1\n")
    assert seq.gates == [rx(1, 0.5), zz(2, 3, 0.25), gphase(0.1)]
    with pytest.raises(ParseError, match="^bad gate line: 'RZ 4 0.5'$"):
        parse_sequence("QUBITS 3\nRZ 1 0.5\nRZ 4 0.5\n")


def test_mutable_records_keep_their_equality_and_repr():
    seq = GateSequence(2, [rz(1, 0.25)])
    assert repr(seq) == "GateSequence(n_qubits=2, gates=[Gate(kind='RZ', qubits=(1,), angle=0.25)])"
    assert seq == GateSequence(2, [rz(1, 0.25)]) and seq != GateSequence(3, [rz(1, 0.25)])
    assert seq != GateSequence(2) and seq != (2, [rz(1, 0.25)])
    pv = PhaseVector(1, [0, 1])
    assert repr(pv) == "PhaseVector(n_qubits=1, phases=(0.0, 1.0))"
    assert pv == PhaseVector(1, (0.0, 1.0)) and pv != PhaseVector(1, [0, 2])
    tt = TruthTable(1, [0, 1])
    assert repr(tt) == "TruthTable(n_inputs=1, values=(0, 1))"
    assert tt == TruthTable(1, (0, 1)) and tt != TruthTable(1, [1, 0])
    assert pv != TruthTable(1, [0, 1])  # another record with the same fields
    zp = ZPolynomial(2, 0.5, {(2, 1): 0.25})
    assert repr(zp) == "ZPolynomial(n_qubits=2, constant=0.5, terms={3: 0.25})"
    assert zp == ZPolynomial(2, 0.5, {(1, 2): 0.25}) and zp != ZPolynomial(2, 0.5)
    for record in (seq, pv, tt, zp):
        with pytest.raises(TypeError):
            hash(record)
    pv.phases = (1.0, 0.0)  # a mutable record, as before
    assert pv == PhaseVector(1, [1, 0])


def test_value_records_are_tuples():
    counts = GateCounts(2, 3, 1)
    assert counts == (2, 3, 1) and counts.total == 6
    assert repr(counts) == "GateCounts(zz=2, one_qubit=3, phase=1)"
    assert gate_counts(GateSequence(2, [gphase(0.1), zz(1, 2, 0.5), rx(1, 0.2)])) == (1, 1, 1)
    p = U2Params(0.1, 0.2, 0.3, 0.4)
    assert repr(p) == "U2Params(alpha=0.1, beta=0.2, phi0=0.3, phi1=0.4)"
    assert p == (0.1, 0.2, 0.3, 0.4)
