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
            "solution.csv": "da6b13c47f82cd0bf8e8a5ef818f4931a301262d77525880084570d62d263a1f",
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
            "solution.csv": "c5019c8ffc17ab26ca416f07a8dab94bda43486484610ff991488f9d01a9e47b",
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
            "solution.csv": "eb38f60d389658b94a863e871e8b9ab917297a39fe323d84504ee49cffb5c019",
            "solution.svg": "3c648e038f9427c462cca722943bdf0c50b080df515aa1b7a5a3c54ddcfce3cd",
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
            "stability.csv": "d571fec07b1b6dd3595adf7fd992f0d3e6418c7615ee8b5deb22d74c4caaf4d5",
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
            "convergence.csv": "fced806e7d8926d11c96d037452422c6ccb17080e913f2bcd6e1659a13b9c284",
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
            "stampacchia.csv": "f62db68e827a93794182869dd0f448acba8ae0a49399f3991e27e950968eec44",
            "stampacchia.svg": "1a10924abed4b78fd8577088401941901e9c3f8b694d5277060c0988869f6a10",
            "stampacchia_report.csv": (
                "d9c7ae405ddeca35013bd13db18db09b40d937815c2813417813b39b5fa774f1"
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
            "theorem0.csv": "2a0cd54f1efa8c453f851feaef899fadb6d2610a727338975728d3e0c9f27ad9",
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
