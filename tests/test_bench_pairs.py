"""tools/bench_pairs.py, loaded by path; no benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(name, base, head):
    def side(values):
        return [{"metrics": {name: {"value": v}}} for v in values]

    return {"base": side(base), "head": side(head)}


@pytest.mark.parametrize(
    "better, head_wins, base_wins", [("lower", 2, 1), ("higher", 1, 2)]
)
def test_summarize_counts_wins_and_ignores_ties(better, head_wins, base_wins):
    # pairs: head lower, tie, head higher, head lower, tie
    runs = _runs("m", [5.0, 3.0, 1.0, 4.0, 2.0], [4.0, 3.0, 2.0, 1.0, 2.0])
    got = bench_pairs.summarize(runs, {"m": better})["m"]
    assert got["better"] == better
    assert (got["head_wins"], got["base_wins"], got["pairs"]) == (head_wins, base_wins, 5)
    assert got["base"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert got["head"] == {"q1": 2.0, "median": 2.0, "q3": 3.0}


def test_reversed_seed_range_refused_before_export(monkeypatch, capsys, tmp_path):
    def export(rev, dest):
        raise AssertionError("exported a revision")

    monkeypatch.setattr(bench_pairs, "export", export)
    out = tmp_path / "BENCH_x.json"
    monkeypatch.setattr(
        "sys.argv", ["bench_pairs.py", "HEAD", "HEAD", "--seeds", "5", "1", "--out", str(out)]
    )
    with pytest.raises(SystemExit) as info:
        bench_pairs.main()
    assert info.value.code == 2
    assert "FIRST 5 is after LAST 1" in capsys.readouterr().err
    assert not out.exists()
