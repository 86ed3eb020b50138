"""Acceptance suite: one test per criterion, at full advertised scale.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output).  All randomness is seeded, so reruns are reproducible.
"""

import ast
import contextlib
import io
import json
import random
import time

from freecart import (
    Bang,
    Identity,
    Mode,
    Pair,
    Proj1,
    Proj2,
    LetterObj,
    Product,
    compose,
    equal_in_cart,
    equal_via_normal_forms,
    collapse_witness,
    graph_of,
    is_normal_form,
    normalize,
    run_cli,
    synth_from_graph,
    typecheck,
    verify_witness,
)
from termgen import (
    mutate_preserving,
    random_arrow,
    random_arrow_from,
    random_arrow_to_terminal,
    random_codomain_and_graph,
    random_normal_form,
    random_object,
    trace_states,
)


@contextlib.contextmanager
def report(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.2f}s]")


def test_criterion_1_generator_soundness():
    rng = random.Random(101)
    with report(1, "generator soundness: defining equations have equal graphs"):
        started = time.perf_counter()
        for _ in range(1000):
            dom = random_object(rng)
            f = random_arrow_from(rng, dom, 2, Mode.CARTESIAN)
            g = random_arrow_from(rng, dom, 2, Mode.CARTESIAN)
            a, b = f.codomain, g.codomain
            # beta1 and beta2
            assert graph_of(compose(Pair(f, g), Proj1(a, b))) == graph_of(f)
            assert graph_of(compose(Pair(f, g), Proj2(a, b))) == graph_of(g)
            # distr
            h = random_arrow_from(rng, random_object(rng), 2, Mode.CARTESIAN)
            f2 = random_arrow_from(rng, h.codomain, 2, Mode.CARTESIAN)
            g2 = random_arrow_from(rng, h.codomain, 2, Mode.CARTESIAN)
            lhs = compose(h, Pair(f2, g2))
            rhs = Pair(compose(h, f2), compose(h, g2))
            assert graph_of(lhs) == graph_of(rhs)
            # eta
            x, y = random_object(rng), random_object(rng)
            eta = Pair(Proj1(x, y), Proj2(x, y))
            assert graph_of(eta) == graph_of(Identity(Product(x, y)))
            # terminal uniqueness
            k = random_arrow_to_terminal(rng, dom, 2)
            assert graph_of(k) == graph_of(Bang(dom))
        assert time.perf_counter() - started < 10.0


def test_criterion_2_reduction_soundness_and_termination():
    rng = random.Random(202)
    with report(2, "reduction terminates, decreases degree, preserves type and graph"):
        started = time.perf_counter()
        for _ in range(1000):
            t = random_arrow(rng, obj_depth=2, depth=7)
            ty = typecheck(t)
            g = graph_of(t)
            # normalize raises if a step does not decrease the degree; the
            # replay checks each recorded degree against its state.
            states = trace_states(t)
            for state in states[1:]:
                assert typecheck(state) == ty
                assert graph_of(state) == g
            assert is_normal_form(states[-1])
        assert time.perf_counter() - started < 30.0


def test_criterion_3_unique_normal_form():
    rng = random.Random(303)
    with report(3, "equal-graph terms share one normal form"):
        for _ in range(500):
            f = random_arrow(rng, depth=3)
            g = mutate_preserving(rng, f, rounds=3)
            assert typecheck(g) == typecheck(f)
            assert graph_of(f) == graph_of(g)
            assert normalize(f).result == normalize(g).result


def test_criterion_4_coherence_round_trips():
    rng = random.Random(404)
    with report(4, "graphs synthesize back, normal forms rebuild themselves"):
        for _ in range(500):
            dom = random_object(rng)
            cod, g = random_codomain_and_graph(rng, dom)
            t = synth_from_graph(dom, cod, g)
            assert is_normal_form(t)
            assert graph_of(t) == g
        for _ in range(500):
            dom = random_object(rng)
            t = random_normal_form(rng, dom)
            assert synth_from_graph(dom, t.codomain, graph_of(t)) == t


def test_criterion_5_decision_procedure_agreement():
    rng = random.Random(505)
    with report(5, "graph and normal-form deciders agree"):
        checked = 0
        while checked < 1000:
            f = random_arrow(rng, depth=3)
            engineered_equal = checked % 2 == 0
            if engineered_equal:
                g = mutate_preserving(rng, f, rounds=2)
            else:
                dom, cod = f.domain, f.codomain
                cod2, cand = random_codomain_and_graph(rng, dom)
                if cod2 != cod:
                    continue
                g = synth_from_graph(dom, cod, cand)
            verdict_graph = equal_in_cart(f, g)
            verdict_normal = equal_via_normal_forms(f, g)
            assert verdict_graph == verdict_normal
            if engineered_equal:
                assert verdict_graph
            checked += 1


def _distinct_graph_pairs(rng, mode, count):
    pairs = []
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        assert attempts < count * 50, "generator failed to find distinct graphs"
        dom = random_object(rng, allow_terminal=mode is Mode.CARTESIAN)
        cod, g1 = random_codomain_and_graph(rng, dom, mode=mode)
        g2 = None
        for _ in range(15):
            cod2, cand = random_codomain_and_graph(rng, dom, mode=mode)
            if cod2 == cod and cand != g1:
                g2 = cand
                break
        if g2 is None:
            continue
        f = mutate_preserving(rng, synth_from_graph(dom, cod, g1, mode), mode, rounds=2)
        g = mutate_preserving(rng, synth_from_graph(dom, cod, g2, mode), mode, rounds=2)
        pairs.append((f, g))
    return pairs


def test_criterion_6_maximality_witnesses():
    rng = random.Random(606)
    with report(6, "collapse witnesses verify and land on the two projections"):
        for mode in (Mode.CARTESIAN, Mode.BINARY_PRODUCTS):
            for f, g in _distinct_graph_pairs(rng, mode, 300):
                w = collapse_witness(f, g, mode)
                assert verify_witness(w, mode)
                pp = w.letter
                assert normalize(compose(w.h, w.f_subst, w.j), mode).result == Proj1(pp, pp)
                assert normalize(compose(w.h, w.g_subst, w.j), mode).result == Proj2(pp, pp)


def _run_cli_capture(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_7_golden_cli(tmp_path):
    with report(7, "golden command line transcripts are byte-stable"):
        ident = tmp_path / "ident.term"
        ident.write_text("id{((p*q)*p)*(T*p)}\n", encoding="utf-8")
        eta_l = tmp_path / "eta_l.term"
        eta_l.write_text("id{p*q}\n", encoding="utf-8")
        eta_r = tmp_path / "eta_r.term"
        eta_r.write_text("<p1{p,q}, p2{p,q}>\n", encoding="utf-8")
        k1 = tmp_path / "k1.term"
        k1.write_text("p1{p,p}\n", encoding="utf-8")
        k2 = tmp_path / "k2.term"
        k2.write_text("p2{p,p}\n", encoding="utf-8")

        # Letter length of the running example, via its identity graph.
        code, out, _ = _run_cli_capture(["graph", str(ident)])
        assert code == 0
        assert out == '{"map": [1, 2, 3, 4], "source_letters": 4, "target_letters": 4}\n'
        assert json.loads(out)["source_letters"] == 4

        # Equality verdict on the pairing-of-projections instance.
        code, out, _ = _run_cli_capture(["equal", str(eta_l), str(eta_r)])
        assert code == 0 and out == "equal\n"

        # Collapse witness for the two projections.
        code, out, _ = _run_cli_capture(["collapse", str(k1), str(k2)])
        assert code == 0
        assert out == (
            '{"f_subst": "p1{p,p}", "g_subst": "p2{p,p}", '
            '"h": "<p1{p,p}, p2{p,p}>", "j": "id{p}", "letter": "p", '
            '"lhs_graph": {"map": [1], "source_letters": 2, "target_letters": 1}, '
            '"lhs_normal": "p1{p,p}", "position": 1, '
            '"rhs_graph": {"map": [2], "source_letters": 2, "target_letters": 1}, '
            '"rhs_normal": "p2{p,p}"}\n'
        )

        # Normalization trace with strictly decreasing degrees.
        code, out, _ = _run_cli_capture(["normalize", "--trace", str(eta_l)])
        assert code == 0
        assert out == (
            "step 1: atomize-product at [] degree (0,3,3) -> (0,2,19)\n"
            "step 2: identity-right at [0, 0] degree (0,2,19) -> (0,2,13)\n"
            "step 3: identity-right at [1, 0] degree (0,2,13) -> (0,2,7)\n"
            "<p1{p,q}, p2{p,q}>\n"
        )
        degrees = []
        for line in out.splitlines()[:-1]:
            before, after = line.split(" degree ")[1].split(" -> ")
            degrees.append((ast.literal_eval(before), ast.literal_eval(after)))
        for before, after in degrees:
            assert after < before
        for (_, after), (next_before, _) in zip(degrees, degrees[1:]):
            assert after == next_before

        # Byte stability across repeated runs.
        for argv in (
            ["graph", str(ident)],
            ["equal", str(eta_l), str(eta_r)],
            ["collapse", str(k1), str(k2)],
            ["normalize", "--trace", str(eta_l)],
        ):
            first = _run_cli_capture(argv)
            second = _run_cli_capture(argv)
            assert first == second
