#!/usr/bin/env python3
"""Regenerate the plot-ready data behind the two violation curves.

Writes to out/ (created if missing):
  i26_analytic.csv, i28_analytic.csv   -- quantum prediction vs phi
  i26_simulated.csv                    -- finite-shot run with readout error
                                          and correction
  thresholds.json                      -- optima and visibility thresholds
"""

import json
import pathlib
import sys

from leggettsim.cli import main, thresholds_payload

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def run(*argv):
    code = main(list(argv))
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    for kind in ("i26", "i28"):
        run(
            "sweep", "--inequality", kind, "--shots", "0",
            "--phi-start", "0", "--phi-stop", "90", "--steps", "181",
            "--out", str(OUT / f"{kind}_analytic.csv"),
        )
    run(
        "sweep", "--inequality", "i26", "--visibility", "0.98",
        "--shots", "100000", "--seed", "2024", "--correct",
        "--f0-nuclear", "0.97", "--f1-nuclear", "0.95",
        "--f0-electron", "0.96", "--f1-electron", "0.94",
        "--phi-start", "5", "--phi-stop", "85", "--steps", "17",
        "--out", str(OUT / "i26_simulated.csv"),
    )
    thresholds = {kind: thresholds_payload(kind) for kind in ("i26", "i28")}
    (OUT / "thresholds.json").write_text(json.dumps(thresholds, indent=2) + "\n")
    print(f"wrote {OUT}/")
