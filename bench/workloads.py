"""The two corpora, each half cartesian and half binary-products.

A corpus is a list of queries: one `freecart` command line each, with
the term texts it reads and what the answer must be.  Counts are fixed,
so every pass over a corpus attempts the same operations whatever the
seed; the seed only decides which random terms fill the slots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from gen import (
    DEEP_NESTING,
    MODES,
    deep_pair_text,
    distinct_pair,
    identity_chain,
    mutate,
    random_arrow,
    text,
)

WORKLOADS = ("decide", "rewrite")

# decide: per mode and depth, this many equal and as many unequal pairs;
# a fixed tail of large pairs; and deep-nesting pairs.
DECIDE_DEPTHS = (2, 3, 4, 5)
DECIDE_PAIRS = 63
TAIL_PAIRS = 6  # per mode and verdict
TAIL_REWRITES = 40
DECIDE_DEEP = 2  # per mode; these fail today (RecursionError)

# rewrite, normalize queries: seeded bulk, a fixed heavy tail, and fixed
# identity chains.
NORMALIZE_DEPTHS = (2, 3, 4)
NORMALIZE_TERMS = 80
NORMALIZE_TAIL_DEPTH = 6
NORMALIZE_TAIL_TERMS = 20
NORMALIZE_CHAINS = tuple(range(100, 151, 5))
CHAIN_LENGTHS = (100, 200, 300, 400, 500, 600, 700, 800)  # traced run only

# rewrite, certifying queries: collapse witnesses, with a fixed tail of
# large pairs, and traced normalizations.
COLLAPSE_DEPTHS = (1, 2, 3, 4, 5)
COLLAPSE_PAIRS = 10
COLLAPSE_TAIL_PAIRS = 10  # per mode
COLLAPSE_TAIL_REWRITES = 8
TRACE_DEPTHS = (1, 2, 3, 4)
TRACE_TERMS = 50


@dataclass
class Query:
    kind: str  # "decide", "normalize", "trace" or "collapse"
    mode: str
    texts: tuple[str, ...]
    expect: bool | None = None  # decide: equal by construction
    deep: bool = False  # a deep-nesting query, known to fail today
    argv: list[str] = field(default_factory=list)

    def command(self, files: list[str]) -> list[str]:
        head = ["--mode", self.mode]
        if self.kind == "decide":
            return head + ["equal", "--method", "graph", *files]
        if self.kind == "normalize":
            return head + ["normalize", *files]
        if self.kind == "trace":
            return head + ["normalize", "--trace", *files]
        return head + ["collapse", *files]


def _decide_pair(rng, mode: str, depth: int, rounds: int, equal: bool) -> Query:
    if equal:
        f = g = random_arrow(rng, mode, depth)
    else:
        f, g = distinct_pair(rng, mode, depth)
    a, b = mutate(rng, f, mode, rounds), mutate(rng, g, mode, rounds)
    return Query("decide", mode, (text(a, mode), text(b, mode)), equal)


def _decide(rng) -> list[Query]:
    out = []
    # The largest pairs do not depend on the seed, so that the top 1%,
    # and with it latency_p99_ms, is much the same set of queries.
    tail_rng = random.Random("decide-tail")
    for mode in MODES:
        for depth in DECIDE_DEPTHS:
            for _ in range(DECIDE_PAIRS):
                for equal in (True, False):
                    out.append(_decide_pair(rng, mode, depth, 1 + depth // 2, equal))
        for _ in range(TAIL_PAIRS):
            for equal in (True, False):
                out.append(_decide_pair(tail_rng, mode, 5, TAIL_REWRITES, equal))
        for _ in range(DECIDE_DEEP):
            texts = (deep_pair_text(DEEP_NESTING, 0), deep_pair_text(DEEP_NESTING, 1))
            out.append(Query("decide", mode, texts, True, deep=True))
    return out


def _collapse_pair(rng, mode: str, depth: int, rounds: int) -> Query:
    f, g = distinct_pair(rng, mode, depth)
    a, b = mutate(rng, f, mode, rounds), mutate(rng, g, mode, rounds)
    return Query("collapse", mode, (text(a, mode), text(b, mode)))


def _rewrite(rng) -> list[Query]:
    out = []
    # The heavy tails do not depend on the seed: drawn afresh per seed,
    # a few slow terms swing a pass's total by a fifth between seeds.
    normalize_tail = random.Random("normalize-tail")
    collapse_tail = random.Random("collapse-tail")
    for mode in MODES:
        for depth in NORMALIZE_DEPTHS:
            for _ in range(NORMALIZE_TERMS):
                t = random_arrow(rng, mode, depth)
                out.append(Query("normalize", mode, (text(t, mode),)))
        for _ in range(NORMALIZE_TAIL_TERMS):
            t = random_arrow(normalize_tail, mode, NORMALIZE_TAIL_DEPTH)
            out.append(Query("normalize", mode, (text(t, mode),)))
        for n in NORMALIZE_CHAINS:
            out.append(Query("normalize", mode, (text(identity_chain(n, mode), mode),)))
        for depth in TRACE_DEPTHS:
            for _ in range(TRACE_TERMS):
                t = random_arrow(rng, mode, depth)
                out.append(Query("trace", mode, (text(t, mode),)))
        for depth in COLLAPSE_DEPTHS:
            for _ in range(COLLAPSE_PAIRS):
                out.append(_collapse_pair(rng, mode, depth, 2))
        for _ in range(COLLAPSE_TAIL_PAIRS):
            out.append(_collapse_pair(collapse_tail, mode, COLLAPSE_DEPTHS[-1], COLLAPSE_TAIL_REWRITES))
    return out


def build(workload: str, seed: int) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    return {"decide": _decide, "rewrite": _rewrite}[workload](rng)
