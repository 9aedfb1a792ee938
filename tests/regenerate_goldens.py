"""Rerun named golden experiments and rewrite their expected outputs.

    PYTHONPATH=src python tests/regenerate_goldens.py golden_example golden_qp_dense

Each name runs ``data/<name>.json`` with trace files, rewrites
``data/<name>_summary.csv`` and the name's entry in ``data/golden_traces.json``,
and prints the old and new summary rows.  No test runs this script: use it
only for a change that moves a golden on purpose, and record what moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from hmmar.harness import load_config, run_experiment

DATA = Path(__file__).parent / "data"


def regenerate(name: str, digests: dict) -> None:
    """Rerun one golden, rewrite its summary and set its trace digests."""
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(load_config(DATA / f"{name}.json"), out_dir=tmp, trace=True)
        new = (Path(tmp) / "summary.csv").read_text(encoding="utf-8")
        digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(Path(tmp).glob("trace_*.csv"))}
    path = DATA / f"{name}_summary.csv"
    old = path.read_text(encoding="utf-8") if path.exists() else ""
    path.write_text(new, encoding="utf-8", newline="")
    print(f"{name}:")
    for label, text in (("old", old), ("new", new)):
        for row in text.splitlines()[1:]:
            print(f"  {label} {row}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", help="golden names, e.g. golden_example")
    args = parser.parse_args(argv)
    traces = DATA / "golden_traces.json"
    digests = json.loads(traces.read_text(encoding="utf-8"))
    for name in args.names:
        regenerate(name, digests)
    traces.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
