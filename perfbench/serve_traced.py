"""Launch ``repro serve`` with the benchmark's layer wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py --out SPANS.json -- serve --port 0 ...

Everything after ``--`` is passed to the ``repro`` CLI unchanged.  The
wrappers of ``tracing.py`` (plus one around the server's
``run_suite_parallel``) record spans in memory; when the server stops,
the per-layer totals, the raw spans, the cell records of every executed
job and the graph cache's hit/miss counts are written to ``--out``.
"""

from __future__ import annotations

import json
import sys
import time

T_START = time.perf_counter()
import repro.__main__ as cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SCIPY_STATS_IMPORTED = "scipy.stats" in sys.modules

from repro.graphs.cache import GraphCache  # noqa: E402
from tracing import SpanRecorder, install_layer_wrappers  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    if argv[:split][:1] != ["--out"] or split != 2:
        raise SystemExit("usage: serve_traced.py --out FILE -- <repro CLI arguments>")
    out_path = argv[1]
    recorder = SpanRecorder()
    install_layer_wrappers(recorder, service=True)
    caches: list[GraphCache] = []
    original_init = GraphCache.__init__

    def keep_cache(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        caches.append(self)

    GraphCache.__init__ = keep_cache
    try:
        code = cli.main(argv[split + 1:])
    finally:
        GraphCache.__init__ = original_init
        recorder.uninstall()
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "import_s": IMPORT_S,
                    "scipy_stats_imported": SCIPY_STATS_IMPORTED,
                    "totals": recorder.layer_totals(),
                    "spans": recorder.spans,
                    "cell_records": recorder.cell_records,
                    "cache_hits": sum(cache.hits for cache in caches),
                    "cache_misses": sum(cache.misses for cache in caches),
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
