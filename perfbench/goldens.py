"""Regenerate ``goldens.json``: the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/goldens.py

Computes, at the current commit, the searched S for every (model, speed) on
the scan lattice and the verification tables for every speed on the fit
lattice, so that every seed's inputs have a reference.  Run it only to
record the outputs of a commit whose results are meant to change; the scan
check then requires later commits to find an S no worse than these.
"""

from __future__ import annotations

import json
import sys
import time

from spincorr import chsh, verification
from spincorr.kinematics import Speed

import workloads as wl


def scan_goldens() -> dict:
    settings = chsh.SearchSettings(grid_step_deg=wl.SCAN_GRID_STEP_DEG)
    s_values = {
        model.value: [
            chsh.search_violation(model, Speed(k / wl.SCAN_LATTICE), settings).s_value
            for k in range(wl.SCAN_LATTICE_COUNT)
        ]
        for model in wl.MODELS
    }
    return {"grid_step_deg": wl.SCAN_GRID_STEP_DEG, "lattice": wl.SCAN_LATTICE, "S": s_values}


def verify_goldens() -> dict:
    tables = []
    for k in range(wl.VERIFY_LATTICE):
        beta = k / wl.VERIFY_LATTICE
        checks, reports = verification.fit_checks([beta])
        if not all(check.passed for check in checks):
            raise SystemExit(f"fit residual check fails at beta={beta}; no goldens written")
        (cross,) = verification.cross_checks([beta])
        entry = {
            rep.model.value: {
                "fitted": list(rep.fitted),
                "printed": list(rep.printed),
                "relative_deviation": list(rep.relative_deviation),
                "scale": rep.scale,
            }
            for rep in reports
        }
        entry["cross"] = {"scale": cross.scale, "max_rel_deviation": cross.max_rel_deviation}
        tables.append(entry)
    anchors = [a.s_computed for a in verification.anchor_reports()]
    return {"lattice": wl.VERIFY_LATTICE, "anchors": anchors, "tables": tables}


def main() -> int:
    start = time.perf_counter()
    goldens = {"scan": scan_goldens(), "verify": verify_goldens()}
    with open(wl.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1)
        handle.write("\n")
    print(f"wrote {wl.GOLDENS_PATH.name} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
