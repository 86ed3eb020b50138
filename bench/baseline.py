"""Hand baselines measured with the layer timers.

    python3 bench/baseline.py

Run from the root of a checkout.  Times `normalize` and `graph_of` on
1000 cartesian terms of depth 7 drawn by the criterion-2 rules (seed
202, the benchmark's own generator, so the terms are not those of the
acceptance suite), and `normalize` on one identity chain of length 800.
Prints one line per figure; it takes about half a minute.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import identity_chain, random_arrow, text  # noqa: E402
from oracle import CARTESIAN  # noqa: E402
from run import import_freecart  # noqa: E402
from spans import END, NAME, START, Tracer  # noqa: E402


def main() -> int:
    fc = import_freecart()
    rng = random.Random(202)
    terms = [fc.parse_arrow(text(random_arrow(rng, CARTESIAN, 7), CARTESIAN))
             for _ in range(1000)]
    chain = fc.parse_arrow(text(identity_chain(800, CARTESIAN), CARTESIAN))

    tracer = Tracer()
    normalize = tracer.wrap("rewrite.normalize", fc.normalize)
    graph_of = tracer.wrap("graphs.graph_of", fc.graph_of)
    for t in terms:
        graph_of(t)
        normalize(t)
    totals = {}
    for s in tracer.spans:
        totals[s[NAME]] = totals.get(s[NAME], 0.0) + s[END] - s[START]
    tracer.spans.clear()
    normalize(chain)
    chain_s = tracer.spans[0][END] - tracer.spans[0][START]

    print(f"criterion-2 corpus, 1000 terms: normalize {totals['rewrite.normalize']:.3f} s")
    print(f"criterion-2 corpus, 1000 terms: graph_of {totals['graphs.graph_of']:.3f} s")
    print(f"identity chain of length 800: normalize {chain_s:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
