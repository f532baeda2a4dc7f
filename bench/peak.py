"""One streaming ingest pass in a fresh process, to measure its peak RSS.

Usage: ``python bench/peak.py JOB.pkl`` where the job file (written by the
benchmark itself) holds the traces and known scanners.  Prints one JSON
line: ``maxrss_kb``, ``digest`` and ``packets``.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pipeline  # noqa: E402  (needs the source tree on sys.path)


def main(job_path: str) -> int:
    with open(job_path, "rb") as fh:
        job = pickle.load(fh)
    analyses = pipeline.ingest(job["traces"], job["known_scanners"])
    print(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": pipeline.ingest_digest(analyses),
        "packets": pipeline.packets_of(analyses),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
