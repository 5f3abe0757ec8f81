"""Regenerate bench/refs/verdicts.json, the reference verdict grids.

Runs every scan request (both sizes, every corpus entry, every ladder
order and the classical scan) and every criterion-9c scan point once,
and records the verdicts (position x direction, R/S) plus, for FL scans,
the (missed, extra) counts against the corpus oracle.  Slopes are not
recorded: summation-order changes may move them in the last bits.

Only regenerate when a change is meant to move verdicts, and say so in
CHANGES.md: the file's sha256 is the benchmark's verdict_digest.

    python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.BENCH))
    run.import_program()
    import workloads as wl

    refs = {"scan": {}, "9c": {}}
    scan = wl.Inputs("scan", 0)
    for n in wl.SCAN_SIZES:
        for e, entry in enumerate(scan.corpora[n]):
            for k, (mode, _, _) in enumerate(wl.SCAN_KINDS):
                verdicts, singular = scan.execute(wl.Request(f"n{n}",
                                                             (n, e, k)))
                rec = {"verdicts": verdicts}
                if mode == "fl":
                    rec["oracle_mismatch"] = list(wl.oracle_mismatch(
                        entry, scan.queries[n][k], singular))
                refs["scan"][wl.scan_ref_key(entry, n, k)] = rec
                print(wl.scan_ref_key(entry, n, k), rec.get("oracle_mismatch"),
                      verdicts.count("S"), file=sys.stderr)
    mod = wl.Inputs("modulation", 0)
    for entry in mod.corpora[wl.MOD_N]:
        for x0 in mod.query.positions:
            refs["9c"][wl.ninec_ref_key(entry, x0)] = wl.ninec_verdicts(
                entry.signal, mod.query, x0)
    wl.REFS_PATH.parent.mkdir(exist_ok=True)
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
