"""Print the fixed-seed digests: the first 12 hex digits of the sha256 of the
state and raster ``report.json`` and checkpoints of ``test_pipeline.TINY``,
and of ``weight_scheme_ablation(train_all(TINY state)).to_json``.

    PYTHONPATH=src python3 tests/digests.py

A change that claims bit-identical outputs prints the same eleven lines
before and after it. Pytest does not collect this file.
"""

import hashlib
import pathlib
import tempfile

from htmem.config import config_from_dict
from htmem.pipeline import train_all, weight_scheme_ablation
from test_pipeline import TINY, run_digests


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for mode in ("state", "raster"):
            (tmp / mode).mkdir()
            for name, digest in run_digests(tmp / mode, mode).items():
                print(f"{mode} {name} {digest[:12]}")
        art = train_all(config_from_dict({**TINY, "world": {"mode": "state"}}))
        weight_scheme_ablation(art).to_json(tmp / "ablation.json")
        print(f"ablation {hashlib.sha256((tmp / 'ablation.json').read_bytes()).hexdigest()[:12]}")


if __name__ == "__main__":
    main()
