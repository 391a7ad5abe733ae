#!/usr/bin/env python3
"""Pin the reference digest of every result row the benchmark checks.

Runs the three spec sets once on the reference engine (``engine="reference"``,
the object-driven replay the paper's numbers come from) and writes
``perfbench/reference_rows.json``: per workload ``spec key -> row digest``, keys
sorted, plus one digest over all rows in key order.  Run it from the
repository root; it takes a few minutes::

    python3 perfbench/pin_reference.py

Re-pin only when a change is *meant* to alter simulated results.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.analysis.experiments import ExperimentContext  # noqa: E402

from workloads import (  # noqa: E402
    REFERENCE_FILE,
    SCALE,
    figure7_specs,
    row_digest,
    stream_specs,
    table2_specs,
)


def pin(specs) -> dict:
    rows = ExperimentContext(engine="reference").run_specs(
        [spec.derive(engine="reference") for spec in specs]
    )
    digests = {spec.key(): row_digest(row) for spec, row in zip(specs, rows)}
    ordered = dict(sorted(digests.items()))
    overall = hashlib.sha256("".join(ordered.values()).encode()).hexdigest()[:20]
    return {"rows": ordered, "all_rows": overall}


def main() -> int:
    context = ExperimentContext(scale=SCALE)
    pinned = {"engine": "reference"}
    for name, specs in (
        ("figure7", figure7_specs(context)),
        ("table2", table2_specs(context)),
        ("stream", stream_specs()),
    ):
        result = pin(specs)
        pinned[name] = result["rows"]
        pinned[name + "_all_rows"] = result["all_rows"]
        print(f"{name}: {len(result['rows'])} rows, digest {result['all_rows']}")
    REFERENCE_FILE.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
