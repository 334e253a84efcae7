import math

import pytest

from zzkit.gates import (
    Gate,
    GateSequence,
    ParseError,
    format_sequence,
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
