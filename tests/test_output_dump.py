"""tests/output_dump.py compare: what it counts and what it prints."""
import pickle

import numpy as np

import output_dump
from tthjb.tt import TTTensor


def _compare(tmp_path, a, b):
    paths = [tmp_path / "a.pkl", tmp_path / "b.pkl"]
    for path, items in zip(paths, (a, b)):
        path.write_bytes(pickle.dumps({"w": items}))
    return output_dump.compare(*paths)


def test_an_item_in_one_dump_is_named_not_counted(tmp_path, capsys):
    x = np.arange(3.0)
    assert _compare(tmp_path, {"x": x, "drift": [np.ones((1, 2, 2, 1))]}, {"x": x}) == 0
    assert "w drift: only in A" in capsys.readouterr().out


def test_unequal_arrays_and_chains_print_their_relative_difference(tmp_path, capsys):
    # the chain's second gauge (blocks 0 and 1 negated) is the same tensor,
    # so its difference is round-off; the array's is its largest entry's
    t = TTTensor.random((3, 3, 3), [1, 2, 2, 1], np.random.default_rng(0))
    gauge = [-t.blocks[0], -t.blocks[1], t.blocks[2]]
    a = {"V blocks": list(t.blocks), "feedback@50": np.array([1.0, -4.0])}
    b = {"V blocks": gauge, "feedback@50": np.array([1.0, -4.002])}
    assert _compare(tmp_path, a, b) == 1
    out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert out["w feedback@50"] == "UNEQUAL (largest relative difference 5.0e-04)"
    rel = float(out["w V blocks"].split("difference ")[1].rstrip(")"))
    assert out["w V blocks"].startswith("UNEQUAL (ranks equal,") and rel <= 1e-15
