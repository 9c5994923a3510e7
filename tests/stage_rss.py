"""Print the process's peak resident set (``ru_maxrss``) after the imports,
after ``collect_dataset`` and after each stage of ``train_all``, for one world
mode at the default config:

    PYTHONPATH=src python3 tests/stage_rss.py raster

``ru_maxrss`` never falls, so each line is the peak up to the end of its
stage. Pytest does not collect this file.
"""

import resource
import sys

from htmem import pipeline
from htmem.config import config_from_dict
from htmem.data import collect_dataset
from htmem.world import BlockWorld

STAGES = ("train_cvae", "build_hallucination_pools", "train_cpc", "train_sptm", "train_inverse")


def report(name):
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name} {mb:.1f} MB", flush=True)


def reporting(stage):
    def run(*args, **kwargs):
        out = stage(*args, **kwargs)
        report(stage.__name__)
        return out

    return run


def main(mode):
    report("imports")
    cfg = config_from_dict({"world": {"mode": mode}})
    dataset = collect_dataset(BlockWorld(cfg.world), cfg.data)
    report("collect_dataset")
    for name in STAGES:
        setattr(pipeline, name, reporting(getattr(pipeline, name)))
    pipeline.train_all(cfg, dataset)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("state", "raster"):
        sys.exit("usage: stage_rss.py state|raster")
    main(sys.argv[1])
