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
            "solution.csv": "628ebb80f3e128bac72faff927fe28bf3c50796a6dcea84d6218e2b7b3c4a8c0",
            "solution.svg": "d966a31f96983df670f0a9b9e926ca395fb00466e2718493b1074277869842c2",
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
            "stability.csv": "b5436e123c9d6b163f3df9b0d59e6c8c419e0e1c4a6c9a482dd9ce46241c12e6",
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
            "convergence.csv": "63049a65bd5e6507f65066835ac37ceb0458b73a7a66d94a3379de27182670d9",
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
            "stampacchia.csv": "5cbccc30d41d6472e8eba16129672395b4663e3e0e4fde2a429c8a006d242903",
            "stampacchia.svg": "1a10924abed4b78fd8577088401941901e9c3f8b694d5277060c0988869f6a10",
            "stampacchia_report.csv": (
                "a56178644ff7b7c22234b13b7479cee06aec626e5d8605041772a5ddf3635940"
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
            "theorem0.csv": "757bbec801ea7dfad89d0ecafbd02857170e56e1cdc75dc9348c04d512e56046",
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
