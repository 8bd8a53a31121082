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
            "solution.csv": "a1eac43930297f0132865b87c5960ec17df33c32f331adc79ca5a04d3b020637",
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
            "solution.csv": "ed50db5bfe4026a43ed87faf267d68beedc9cf364c9d183a9604d41326cea52c",
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
            "stability.csv": "fa0dd564695e755fb4f20b628ac0587769be935858849ff2be23a22cba2d8f11",
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
            "convergence.csv": "ab13ab7d3238bdbca368d26661dbd34c40b035025594844aa935b15f7920798c",
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
            "stampacchia.csv": "dd42f8ac6a573aed2ee5d7c1bf6bcbc339b5f0d2746a3a4a13de4627b6dac3e0",
            "stampacchia.svg": "1a10924abed4b78fd8577088401941901e9c3f8b694d5277060c0988869f6a10",
            "stampacchia_report.csv": (
                "5f90a548473961d6b48de2612861598e99f71ab6b75e1de39f4d2cf2cb2bab7e"
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
