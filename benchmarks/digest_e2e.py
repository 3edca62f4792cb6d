"""Digest a seeded n=600 end-to-end run — the bit-identity probe.

Hashes every decision-relevant observable of a mid-scale seeded run
(positions, logical adjacency, in-force ranges, channel counters and the
per-sample series of ``run_once``) so refactors of the reachability seam
can prove byte-identity against the recorded pre-change digest.

Run: ``PYTHONPATH=src python benchmarks/digest_e2e.py [--expect HASH]``

With ``--expect`` the script exits non-zero unless the digest equals
*HASH* (CI pins the recorded one this way).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from repro.analysis.experiment import ExperimentSpec, run_once
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig


def e2e_digest(n_nodes: int = 600, seed: int = 20260807) -> str:
    """Sha256 over the full observable surface of one seeded run."""
    side = float(np.sqrt(n_nodes * 8100.0))
    spec = ExperimentSpec(
        protocol="rng",
        mechanism="view-sync",
        buffer_width=20.0,
        mean_speed=10.0,
        config=ScenarioConfig(
            n_nodes=n_nodes,
            area=Area(side, side),
            duration=6.0,
            warmup=2.0,
            sample_rate=2.0,
        ),
    )
    result = run_once(spec, seed=seed)
    h = hashlib.sha256()
    for arr in (
        result.delivery_ratios,
        result.mean_actual_ranges,
        result.mean_extended_ranges,
        result.mean_logical_degrees,
        result.mean_physical_degrees,
        result.strict_connected,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(result.stats.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--expect", metavar="HASH", help="fail unless the digest equals HASH"
    )
    args = parser.parse_args(argv)
    digest = e2e_digest()
    print(digest)
    if args.expect is not None and digest != args.expect:
        print(f"digest mismatch: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
