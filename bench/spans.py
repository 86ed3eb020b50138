"""Spans around the public functions of each `freecart` layer.

The traced pass replaces a function by a recording wrapper in the module
namespace where its callers look it up, so the program itself is not
changed.  A function that calls itself recursively (`graph_of`,
`print_arrow`, `substitute_all_letters`) is wrapped only where other
modules call it, giving one span per outside call.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter

from checks import REDEX_KINDS

# (module, name looked up there, span name).  Every caller's namespace is
# listed, so a span counts each call that crosses a layer boundary.
SITES = (
    ("cli", "parse_arrow", "syntax.parse_arrow"),
    ("cli", "print_arrow", "syntax.print_arrow"),
    ("cli", "typecheck", "terms.typecheck"),
    ("cli", "graph_of", "graphs.graph_of"),
    ("cli", "normalize", "rewrite.normalize"),
    ("cli", "equal_in_cart", "decide.equal_in_cart"),
    ("cli", "equal_via_normal_forms", "decide.equal_via_normal_forms"),
    ("cli", "synth_from_graph", "decide.synth_from_graph"),
    ("cli", "collapse_witness", "collapse.collapse_witness"),
    ("cli", "verify_witness", "collapse.verify_witness"),
    ("syntax", "typecheck", "terms.typecheck"),
    ("terms", "typecheck", "terms.typecheck"),
    ("decide", "typecheck", "terms.typecheck"),
    ("decide", "graph_of", "graphs.graph_of"),
    ("decide", "letter_compatible", "graphs.letter_compatible"),
    ("decide", "normalize", "rewrite.normalize"),
    ("rewrite", "typecheck", "terms.typecheck"),
    ("rewrite", "find_redex", "rewrite.find_redex"),
    ("rewrite", "step", "rewrite.step"),
    ("rewrite", "degree", "rewrite.degree"),
    ("collapse", "typecheck", "terms.typecheck"),
    ("collapse", "graph_of", "graphs.graph_of"),
    ("collapse", "normalize", "rewrite.normalize"),
    ("collapse", "synth_from_graph", "decide.synth_from_graph"),
    ("collapse", "substitute_all_letters", "terms.substitute_all_letters"),
)

# What a span keeps of its call's arguments.
_NOTE = {
    "syntax.parse_arrow": lambda args: len(args[0]),
    "rewrite.step": lambda args: args[2].value,
}

NAME, START, END, PARENT, QUERY, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.query = -1
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        note = _NOTE.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, self.query,
                    note(args) if note else None]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()

        return traced

    def install(self, package) -> None:
        for module_name, attr, span_name in SITES:
            module = getattr(package, module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\tquery\tnote\n")
            for s in self.spans:
                out.write("\t".join(map(str, s)) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration less the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def growth_exponent(lengths, seconds) -> float:
    """Least-squares slope of log(time) against log(length)."""
    xs = [math.log(n) for n in lengths]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def layer_metrics(spans, queries, inputs: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one traced pass over the corpus."""
    own = self_times(spans)
    self_ms = Counter()
    calls = Counter()
    kinds = Counter()
    chars = 0
    witness_normalizes = 0
    for s, t in zip(spans, own):
        self_ms[s[NAME]] += t * 1e3
        calls[s[NAME]] += 1
        if s[NAME] == "rewrite.step":
            kinds[s[NOTE]] += 1
        elif s[NAME] == "syntax.parse_arrow":
            chars += s[NOTE]
        elif s[NAME] == "rewrite.normalize" and queries[s[QUERY]].kind == "collapse":
            witness_normalizes += 1
    witnesses = sum(q.kind == "collapse" for q in queries)
    parse_s = self_ms["syntax.parse_arrow"] / 1e3
    m = {
        "cli.run_cli.self_ms": (self_ms["cli.run_cli"], "ms"),
        "syntax.parse_arrow.self_ms": (self_ms["syntax.parse_arrow"], "ms"),
        "syntax.parse_arrow.calls": (calls["syntax.parse_arrow"], "count"),
        "syntax.parse_chars_per_s": (chars / parse_s if parse_s else 0.0, "chars/s"),
        "syntax.print_arrow.self_ms": (self_ms["syntax.print_arrow"], "ms"),
        "terms.typecheck.self_ms": (self_ms["terms.typecheck"], "ms"),
        "terms.typecheck.per_input": (calls["terms.typecheck"] / inputs, "ratio"),
        "terms.substitute_all_letters.self_ms": (
            self_ms["terms.substitute_all_letters"], "ms"),
        "graphs.graph_of.self_ms": (self_ms["graphs.graph_of"], "ms"),
        "graphs.graph_of.per_input": (calls["graphs.graph_of"] / inputs, "ratio"),
        "graphs.letter_compatible.self_ms": (self_ms["graphs.letter_compatible"], "ms"),
        "rewrite.normalize.self_ms": (self_ms["rewrite.normalize"], "ms"),
        "rewrite.find_redex.self_ms": (self_ms["rewrite.find_redex"], "ms"),
        "rewrite.step.self_ms": (self_ms["rewrite.step"], "ms"),
        "rewrite.degree.self_ms": (self_ms["rewrite.degree"], "ms"),
        "rewrite.degree.calls": (calls["rewrite.degree"], "count"),
        "rewrite.steps": (calls["rewrite.step"], "count"),
    }
    for kind in REDEX_KINDS:
        m[f"rewrite.steps.{kind}"] = (kinds[kind], "count")
    m.update({
        "decide.equal_in_cart.self_ms": (self_ms["decide.equal_in_cart"], "ms"),
        "decide.synth_from_graph.self_ms": (self_ms["decide.synth_from_graph"], "ms"),
        "collapse.collapse_witness.self_ms": (self_ms["collapse.collapse_witness"], "ms"),
        "collapse.verify_witness.self_ms": (self_ms["collapse.verify_witness"], "ms"),
        "collapse.normalize_per_witness": (
            witness_normalizes / witnesses if witnesses else 0.0, "ratio"),
    })
    return m
