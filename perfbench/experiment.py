"""One benchmark experiment in a fresh process.

    python3 perfbench/experiment.py SRC CONFIG OUT_DIR [--setup-only] [--write-traces] [--traced]

Imports hmmar from the source tree SRC, loads and validates CONFIG with
``hmmar.harness.load_config`` and, unless ``--setup-only``, runs
``run_experiment(config, out_dir=OUT_DIR, trace=--write-traces)``.  It writes
``OUT_DIR/result.json`` with the monotonic clock reading at which the config
was valid (the parent started the clock before spawning this process), the
experiment's wall time, the peak resident set of this process, and the
library versions.  Unless ``--traced``, ``wall_scale`` takes the wall time
to the reference host speed (:mod:`hostspeed`); it comes from kernels run
while the experiment runs, whose time is not part of ``wall_s``.  With
``--traced`` the public functions named in :mod:`tracing` are wrapped,
``OUT_DIR/spans.csv`` holds every span and the result carries the per-layer
metrics.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    src, config_path, out_dir = argv[:3]
    flags = set(argv[3:])
    sys.path.insert(0, src)
    from hmmar.harness import load_config

    config = load_config(config_path)
    ready = time.monotonic()

    import numpy
    import scipy

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"ready_monotonic": ready, "numpy": numpy.__version__,
              "scipy": scipy.__version__, "python": sys.version.split()[0]}
    if "--setup-only" not in flags:
        import hmmar.harness
        import hostspeed

        tracer = None
        if "--traced" in flags:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            sampler = contextlib.nullcontext(None)
        else:
            sampler = hostspeed.Sampler()
        with sampler as speed:
            t0 = time.perf_counter()
            hmmar.harness.run_experiment(config, out_dir=out_dir,
                                         trace="--write-traces" in flags)
            wall = time.perf_counter() - t0
        result["wall_s"] = wall
        if speed is not None:
            result["wall_s"] = wall - speed.handler_s
            result["wall_scale"] = hostspeed.scale(speed.kernel_times)
            result["kernels"] = len(speed.kernel_times)
        if tracer is not None:
            tracer.uninstall()
            tracer.write_spans(out_dir / "spans.csv")
            result["layers"] = {name: [value, unit]
                                for name, (value, unit) in tracer.metrics().items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
