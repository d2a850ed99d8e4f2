"""Seeded outputs pinned by SHA-256 in golden.json.

A stream or storage change made by accident fails here. One made on
purpose updates golden.json, and the change log names the entries that
moved and why.
"""

import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from flycap import data, projection
from flycap.cli import main
from flycap.projection import sample_matrix
from flycap.transform import TransformConfig, build
from test_projection import dense_triplets

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def storage_digest(n_rows, n_cols, p, seed):
    """SHA-256 of the little-endian row-major row ids and columns (int32)
    and signs (int8), in that order."""
    h = hashlib.sha256()
    triplets = dense_triplets(sample_matrix(n_rows, n_cols, p, seed))
    for array, dtype in zip(triplets, ("<i4", "<i4", "i1")):
        h.update(array.astype(dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "case", GOLDEN["sample_matrix"], ids=lambda c: f"{c['n_rows']}x{c['n_cols']}"
)
def test_sample_matrix_storage(case):
    """Shapes include one whose rows end mid-way through a Philox buffer
    (1001 uniforms, 4 per buffer) and one at the largest seed."""
    args = (case["n_rows"], case["n_cols"], case["p"], case["seed"])
    assert storage_digest(*args) == case["sha256"]


@pytest.mark.parametrize(
    "case", GOLDEN["layout"], ids=lambda c: f"{c['n_rows']}x{c['n_cols']}"
)
def test_sample_matrix_layout(case):
    """SHA-256 of the little-endian int64 order, then each diagonal in
    turn as little-endian int32: the values apply reads, whatever their
    stored width."""
    m = sample_matrix(case["n_rows"], case["n_cols"], case["p"], case["seed"])
    h = hashlib.sha256(m.order.astype("<i8").tobytes())
    for diagonal in m.diagonals:
        h.update(diagonal.astype("<i4").tobytes())
    assert h.hexdigest() == case["sha256"]


@pytest.mark.parametrize(
    "case", GOLDEN["forward_batch"], ids=lambda c: f"{c['rows']}x{c['output_dim']}"
)
def test_forward_batch_output(case):
    """SHA-256 of the little-endian float64 output for standard normal
    rows drawn by default_rng(seed). The product spans several tiles of
    output rows, the last one partial; at p=0.2 its short rows still
    hold terms, some of which survive the cap."""
    rows = np.random.default_rng(case["seed"]).standard_normal((case["rows"], case["input_dim"]))
    assert projection._TILE_ENTRIES // case["rows"] * 3 < case["output_dim"]
    config = TransformConfig(
        case["input_dim"], case["output_dim"], case["p"], case["k"], case["seed"]
    )
    out = build(config).forward_batch(rows)
    assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == case["sha256"]


@pytest.mark.parametrize(
    "case", GOLDEN["cli"], ids=lambda c: c.get("id", c["args"].split(" --")[0])
)
def test_cli_output(case, tmp_path, capsys):
    """SHA-256 of the CSV a command writes, after the `#` invocation line
    (which records the --out path), or of what a `bounds` command prints.
    The invertibility case includes draw 587 of the m=100 stream, which
    only the exact determinant decides."""
    args = shlex.split(case["args"])
    if args[0] == "bounds":
        assert main(args) == 0
        body = capsys.readouterr().out.encode()
    else:
        out = tmp_path / "out.csv"
        assert main([*args, "--out", str(out)]) == 0
        body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["pipeline"], ids=lambda c: c["id"])
def test_pipeline_output(case, tmp_path, monkeypatch):
    """SHA-256 of the file a command writes from a `synth` dataset, after
    the `#` invocation line. The run's directory is the working directory,
    so the dataset path the sweep echoes is always `data.csv`; `names`,
    when given, relabels the classes before the command reads them."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", *shlex.split(case["synth"]), "--out", "data.csv"]) == 0
    if case["names"] is not None:
        d = data.load_csv("data.csv")
        named = data.FeatureDataset(d.features, d.labels, case["names"].split(","))
        data.save_csv(named, "data.csv")
    assert main(shlex.split(case["args"])) == 0
    body = (tmp_path / case["out"]).read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == case["sha256"]
