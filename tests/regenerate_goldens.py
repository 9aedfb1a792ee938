"""Rerun named golden experiments and rewrite, or check, their expected outputs.

    PYTHONPATH=src python tests/regenerate_goldens.py golden_example golden_qp_dense
    PYTHONPATH=src python tests/regenerate_goldens.py --check golden_example golden_qp_dense golden_optimal

Each name runs ``data/<name>.json`` with trace files.  Without ``--check`` it
rewrites ``data/<name>_summary.csv`` and the name's entry in
``data/golden_traces.json`` and prints the old and new summary rows; use that
only for a change that moves a golden on purpose, and record what moved.
With ``--check`` it writes nothing, prints every summary row and trace digest
that moved, and exits 1 if any did: the bit-identity check for a speed-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from hmmar.harness import load_config, run_experiment

DATA = Path(__file__).parent / "data"


def rerun(name: str) -> tuple[str, dict]:
    """Summary text and trace digests of one golden's config, run now."""
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(load_config(DATA / f"{name}.json"), out_dir=tmp, trace=True)
        summary = (Path(tmp) / "summary.csv").read_bytes().decode("utf-8")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(tmp).glob("trace_*.csv"))}
    return summary, digests


def moved(name: str, digests: dict) -> list[str]:
    """One line per summary row or trace digest of ``name`` that differs from its golden."""
    new, new_digests = rerun(name)
    old = (DATA / f"{name}_summary.csv").read_bytes().decode("utf-8")
    lines = [f"{name}: summary row {i}: {a!r} -> {b!r}"
             for i, (a, b) in enumerate(zip_longest(old.splitlines(True), new.splitlines(True)))
             if a != b]
    old_digests = digests.get(name, {})
    lines += [f"{name}: {trace} digest {old_digests.get(trace)} -> {new_digests.get(trace)}"
              for trace in sorted(old_digests.keys() | new_digests.keys())
              if old_digests.get(trace) != new_digests.get(trace)]
    return lines


def regenerate(name: str, digests: dict) -> None:
    """Rerun one golden, rewrite its summary and set its trace digests."""
    new, digests[name] = rerun(name)
    path = DATA / f"{name}_summary.csv"
    old = path.read_text(encoding="utf-8") if path.exists() else ""
    path.write_text(new, encoding="utf-8", newline="")
    print(f"{name}:")
    for label, text in (("old", old), ("new", new)):
        for row in text.splitlines()[1:]:
            print(f"  {label} {row}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", help="golden names, e.g. golden_example")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 naming every row and digest that moved")
    args = parser.parse_args(argv)
    traces = DATA / "golden_traces.json"
    digests = json.loads(traces.read_text(encoding="utf-8"))
    if args.check:
        lines = [line for name in args.names for line in moved(name, digests)]
        print("\n".join(lines) or f"unchanged: {', '.join(args.names)}")
        return 1 if lines else 0
    for name in args.names:
        regenerate(name, digests)
    traces.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
