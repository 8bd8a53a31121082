"""Golden outputs: the SHA-256 of every CSV and SVG of one tiny CLI run per
experiment.

The determinism criterion compares two runs of the same code, so a change
that moves a digit in every run still passes it; these hashes pin the
bytes themselves.  A change that alters results on purpose regenerates the
hashes and reports the largest deviation it caused.
"""

import hashlib
import json

import pytest

from robin_lab.cli import EXIT_OK, main

ONE = {"kind": "constant", "value": 1.0}


def facet_ramp(num_facets):
    """A per_facet beta that differs on every facet, so the hashes pin the
    facet order as well as the values."""
    return {"kind": "per_facet", "values": [0.5 + i / num_facets for i in range(num_facets)]}


# case -> (config, {output file: SHA-256 of its bytes})
CASES = {
    "solve-interval-lumped-expr": (
        {
            "experiment": "solve",
            "domain": "interval",
            "n": 16,
            "lambda": 1.0,
            "lumped": True,
            "f": {"kind": "expr", "expr": "1 + x"},
            "beta_sequence": [{"kind": "constant", "value": 2.0}],
        },
        {
            "solution.csv": "19f9defa02e8fba2e4dd7222ad17680223adf99c02f6f43497e25050446969d0",
            "solution.svg": "d966a31f96983df670f0a9b9e926ca395fb00466e2718493b1074277869842c2",
        },
    ),
    # 2-D and 3-D solves plot against the vertex index and write 4 and 5 columns
    "solve-square": (
        {
            "experiment": "solve",
            "domain": "square",
            "n": 4,
            "lambda": 1.0,
            "f": {"kind": "expr", "expr": "1 + x*y"},
            "beta_sequence": [ONE],
        },
        {
            "solution.csv": "f6e7475afc3dbd6d30fbf2cdc56b4743490196cc942a7051add5f70a61be413b",
            "solution.svg": "506f9f5dbf824e31c017de1e8de579f063a0a01887cf976f37fc0f0f0219bb91",
        },
    ),
    "solve-cube": (
        {
            "experiment": "solve",
            "domain": "cube",
            "n": 2,
            "lambda": 1.0,
            "f": ONE,
            "beta_sequence": [{"kind": "constant", "value": 2.0}],
        },
        {
            "solution.csv": "87b704e1f875d36f6fda676cff1f411aefecbeef67e460090ed82b9c2644d967",
            "solution.svg": "3c648e038f9427c462cca722943bdf0c50b080df515aa1b7a5a3c54ddcfce3cd",
        },
    ),
    # 5041 rows: the CSV writer formats rows in blocks of 4096, so this table spans two
    "solve-square-blocks": (
        {
            "experiment": "solve",
            "domain": "square",
            "n": 70,
            "lambda": 1.0,
            "f": {"kind": "expr", "expr": "1 + x*y"},
            "beta_sequence": [ONE],
        },
        {
            "solution.csv": "ce7001e2949f613cdd58151ed46673af1cbabebf5ec9cad987331b1f7c73450b",
            "solution.svg": "d80d038e24fa45b696e11ee3ccdab31000c3b529f785fda2be25762f4eb454d0",
        },
    ),
    # 4225 rows and plot points span two blocks; 64 of the plot's x values
    # are exact ties of three-decimal rounding, which go to the even digit
    "solve-square-64-expr": (
        {
            "experiment": "solve",
            "domain": "square",
            "n": 64,
            "lambda": 1.0,
            "f": {"kind": "expr", "expr": "2 + x - y*y"},
            "beta_sequence": [ONE],
        },
        {
            "solution.csv": "43c6481ebaa3168da47cf175f86af334574f075698226f1c35dee379b5c6267c",
            "solution.svg": "48ff42d2be1640a9722f3e05eeb8ab19893784f66e505eabc0fb24243eac3eac",
        },
    ),
    "solve-square-per-facet": (
        {
            "experiment": "solve",
            "domain": "square",
            "n": 3,
            "lambda": 1.0,
            "f": {"kind": "expr", "expr": "1 + x*y"},
            "beta_sequence": [facet_ramp(12)],
        },
        {
            "solution.csv": "fd8c1308b2778921d7c6d099608859c36dd7faff7db78424f5b0fc816edfc7cd",
            "solution.svg": "95a59c843185e138033396a6a8b5db1273b72ad6cebc3993e7bc56696d6aa96c",
        },
    ),
    "solve-cube-per-facet": (
        {
            "experiment": "solve",
            "domain": "cube",
            "n": 2,
            "lambda": 1.0,
            "f": {"kind": "expr", "expr": "1 + x*y*z"},
            "beta_sequence": [facet_ramp(48)],
        },
        {
            "solution.csv": "e0fea7dd4fd644027f95f239f872e4e7a4fccc07b8929ebbd1cc2ebf42c92c8c",
            "solution.svg": "4b06ab892a58c50d6ff4a09e24cdf437a76c6ae6bd6e6343523f5eaabeba9c25",
        },
    ),
    # beta 0 and 1 coincide, so pairs (0, 1) and (1, 0) have an empty ratio cell
    "stability-square-repeated": (
        {
            "experiment": "stability",
            "domain": "square",
            "n": 3,
            "lambda": 1.0,
            "f": ONE,
            "beta_sequence": [ONE, ONE, {"kind": "expr", "expr": "1 + x*y"}],
        },
        {
            "stability.csv": "eb5dc34963c34dfa3a0992aae80e7b366db6443d3f4049db6a3deef763b2a131",
            "stability.svg": "387f5021ce90f6c23a4135d7fcc14c1718c7aad13f90367414b6710575c868af",
        },
    ),
    "convergence-cube-generator": (
        {
            "experiment": "convergence",
            "domain": "cube",
            "n": 2,
            "lambda": 1.0,
            "f": ONE,
            "beta_sequence": {"kind": "one_over_k", "base": 1.0, "count": 3},
        },
        {
            "convergence.csv": "826c7480c7ccb5644e83075f5389d76ee4303d7b5218ac0ea082ece95aa0d328",
            "convergence.svg": "f07d763dbc1572bb4539f6bed60d91ec9aafaa41843ae2a1f4f6335440c3b98f",
        },
    ),
    "stampacchia-cube": (
        {
            "experiment": "stampacchia",
            "domain": "cube",
            "n": 2,
            "lambda": 1.0,
            "f": ONE,
            "beta_sequence": [ONE, {"kind": "constant", "value": 1.5}],
        },
        {
            "stampacchia.csv": "9ef87e7a41fa57b4fdad0372469b60c4af274eb6c6f8033bdf7d07030356af8e",
            "stampacchia.svg": "1a10924abed4b78fd8577088401941901e9c3f8b694d5277060c0988869f6a10",
            "stampacchia_report.csv": (
                "f72c53375afda63cd28bda1e4fa3c8ac371de99e5c27addae3d7ca985ef4abaf"
            ),
        },
    ),
    "theorem0-square": (
        {
            "experiment": "theorem0",
            "domain": "square",
            "n": 4,
            "lambda": 1.0,
            "f": {"kind": "expr", "expr": "1 + x*y"},
            "beta_sequence": [ONE],
        },
        {
            "theorem0.csv": "cf47f7df5b609eb57dfe3542e254a9733b8a001e352b05733ab61c780cb3c4b1",
        },
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_golden_bytes(tmp_path, case):
    config, expected = CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([config["experiment"], "--config", str(path), "--output", str(out)]) == EXIT_OK
    written = sorted(p.name for p in out.iterdir() if p.suffix in (".csv", ".svg"))
    assert written == sorted(expected)
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
