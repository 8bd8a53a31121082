"""Output files of the four benchmark workloads whose bytes differ between two source trees.

Run from the repository root as ``python tests/same_outputs.py OLD_SRC [NEW_SRC] [--seeds
0 4461]``, where each argument is a ``src`` directory holding ``robin_lab`` (NEW_SRC
defaults to this checkout's).  Each config of ``bench/workloads.py`` at each seed runs once
per tree as ``python -m robin_lab.cli`` with one BLAS thread.  Every output file whose bytes
differ is listed, a manifest with the keys that differ; the manifest's ``timings`` and its
config's ``output_dir`` are blanked first, since they differ between any two runs.  Exits 0
when nothing differs, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402  (read only: its configs and nothing else)

THREADS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _run(src: Path, name: str, seed: int, out: Path) -> dict:
    """{file name: bytes} written by one workload run, and its exit code as "exit code";
    the manifest decoded and blanked when it is its own sorted encoding, as it should be."""
    config = out.with_suffix(".json")
    config.write_text(json.dumps(WORKLOADS[name].make_config(seed)))
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "robin_lab.cli", WORKLOADS[name].experiment,
               "--config", str(config), "--output", str(out)]
    files = {"exit code": b"%d" % subprocess.run(command, env=env).returncode}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        files[path.name] = path.read_bytes()
    manifest = json.loads(files.get("manifest.json", b"null"))
    if files.get("manifest.json") == (json.dumps(manifest, sort_keys=True) + "\n").encode():
        manifest["timings"] = {}  # so the decoded value fixes every other byte
        if "output_dir" in manifest["config"]:
            manifest["config"]["output_dir"] = ""
        files["manifest.json"] = manifest
    return files


def _differing(old, new, where: str = "") -> list:
    """The dotted keys at which two decoded JSON values differ, down through objects."""
    if old == new:
        return []
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [where or "bytes"]
    return [key for k in sorted(old.keys() | new.keys(), key=str)
            for key in _differing(old.get(k), new.get(k), f"{where}.{k}".lstrip("."))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path, nargs="?", default=ROOT / "src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 4461])
    args = parser.parse_args(argv)
    differences = 0
    with tempfile.TemporaryDirectory() as work:
        for name in WORKLOADS:
            for seed in args.seeds:
                old, new = (_run(src.resolve(), name, seed, Path(work) / f"{side}-{name}-{seed}")
                            for side, src in (("old", args.old_src), ("new", args.new_src)))
                for file in sorted(old.keys() | new.keys()):
                    if old.get(file) == new.get(file):
                        continue
                    differences += 1
                    pair = old.get(file), new.get(file)
                    detail = "in one tree only" if None in pair else ", ".join(_differing(*pair))
                    print(f"{name} seed {seed}: {file} differs ({detail})")
    print(f"{differences} difference(s) on {len(WORKLOADS)} workloads at seeds {args.seeds}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
