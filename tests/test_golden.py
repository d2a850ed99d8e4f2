"""Seeded outputs pinned by SHA-256 in golden.json.

A stream or storage change made by accident fails here. One made on
purpose reruns regen_golden.py, which rewrites golden.json through the
digests below and prints the entries that moved; the change log names
them and why.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
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


def sample_matrix_sha256(case):
    """The storage digest of a case. Shapes include one whose rows end mid-way through a Philox buffer
    (1001 uniforms, 4 per buffer) and one at the largest seed."""
    return storage_digest(case["n_rows"], case["n_cols"], case["p"], case["seed"])


def layout_sha256(case):
    """SHA-256 of the little-endian int64 order of the rows (the inverse
    of position), then each diagonal in turn as little-endian int32: the
    values apply reads, whatever their stored width."""
    m = sample_matrix(case["n_rows"], case["n_cols"], case["p"], case["seed"])
    h = hashlib.sha256(np.argsort(m.position).astype("<i8").tobytes())
    for diagonal in m.diagonals:
        h.update(diagonal.astype("<i4").tobytes())
    return h.hexdigest()


def forward_batch_sha256(case):
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
    return hashlib.sha256(out.astype("<f8").tobytes()).hexdigest()


@contextlib.contextmanager
def working_directory(path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def cli_sha256(case):
    """SHA-256 of the CSV a command writes, after the `#` invocation line
    (which records the --out path), or of what a `bounds` command prints.
    The invertibility case includes draw 587 of the m=100 stream, which
    only the exact determinant decides."""
    args = shlex.split(case["args"])
    with tempfile.TemporaryDirectory() as tmp, working_directory(tmp):
        if args[0] == "bounds":
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(args) == 0
            body = printed.getvalue().encode()
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*args, "--out", "out.csv"]) == 0
            body = Path("out.csv").read_bytes().split(b"\n", 1)[1]
    return hashlib.sha256(body).hexdigest()


def pipeline_sha256(case):
    """SHA-256 of the file a command writes from a `synth` dataset, after
    the `#` invocation line. The run's directory is the working directory,
    so the dataset path the sweep echoes is always `data.csv`; `names`,
    when given, relabels the classes before the command reads them."""
    with tempfile.TemporaryDirectory() as tmp, working_directory(tmp):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", *shlex.split(case["synth"]), "--out", "data.csv"]) == 0
            if case["names"] is not None:
                d = data.load_csv("data.csv")
                named = data.FeatureDataset(d.features, d.labels, case["names"].split(","))
                data.save_csv(named, "data.csv")
            assert main(shlex.split(case["args"])) == 0
        body = Path(case["out"]).read_bytes().split(b"\n", 1)[1]
    return hashlib.sha256(body).hexdigest()


# each kind of golden.json entry, the digest that pins it, and its test id
DIGESTS = {
    "sample_matrix": (sample_matrix_sha256, lambda c: f"{c['n_rows']}x{c['n_cols']}"),
    "layout": (layout_sha256, lambda c: f"{c['n_rows']}x{c['n_cols']}"),
    "forward_batch": (forward_batch_sha256, lambda c: f"{c['rows']}x{c['output_dim']}"),
    "cli": (cli_sha256, lambda c: c.get("id", c["args"].split(" --")[0])),
    "pipeline": (pipeline_sha256, lambda c: c["id"]),
}


@pytest.mark.parametrize("case", GOLDEN["sample_matrix"], ids=DIGESTS["sample_matrix"][1])
def test_sample_matrix_storage(case):
    assert sample_matrix_sha256(case) == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["layout"], ids=DIGESTS["layout"][1])
def test_sample_matrix_layout(case):
    assert layout_sha256(case) == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["forward_batch"], ids=DIGESTS["forward_batch"][1])
def test_forward_batch_output(case):
    assert forward_batch_sha256(case) == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=DIGESTS["cli"][1])
def test_cli_output(case):
    assert cli_sha256(case) == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["pipeline"], ids=DIGESTS["pipeline"][1])
def test_pipeline_output(case):
    assert pipeline_sha256(case) == case["sha256"]


@pytest.mark.parametrize("kind", GOLDEN)
def test_ids_are_unique(kind):
    """regen_golden.py reports a moved entry by its id, so no two entries
    of one kind may share one."""
    ids = [DIGESTS[kind][1](case) for case in GOLDEN[kind]]
    assert len(set(ids)) == len(ids)


def test_regeneration_restores_the_pins(tmp_path):
    """regen_golden.py, run on a copy of the tests with one pin broken,
    reports that entry and rewrites golden.json to the same bytes."""
    here = Path(__file__).parent
    copy = tmp_path / "tests"
    shutil.copytree(here, copy, ignore=shutil.ignore_patterns("__pycache__"))
    broken = json.loads((here / "golden.json").read_text())
    case = broken["sample_matrix"][0]
    pinned, case["sha256"] = case["sha256"], "0" * 64
    (copy / "golden.json").write_text(json.dumps(broken, indent=2) + "\n")
    paths = [str(here.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHONIOENCODING": "utf-8"}
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(copy / "regen_golden.py")],
        env=env, capture_output=True, encoding="utf-8", check=True,
    )
    assert (copy / "golden.json").read_bytes() == (here / "golden.json").read_bytes()
    total = sum(len(cases) for cases in GOLDEN.values())
    moved = f"`sample_matrix` entry `{DIGESTS['sample_matrix'][1](case)}`"
    assert run.stdout == (
        f"{moved}: `00000000…0000` → `{pinned[:8]}…{pinned[-4:]}`\n1 of {total} entries changed\n"
    )
