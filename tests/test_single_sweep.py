"""One pass per outcome space, against references written here.

The exact risk table and the cut-model check come from one sweep; the
nonrepetitive model's A and F come from slice comparisons; family
validation works on bitsets.  Each reference below is the plain
definition, run as its own pass, so results must agree exactly: tables
with ==, checks field for field.  The probability references take the
float weights as `fractions.Fraction`s, sum exact numerators, and round
each ratio up to the least float at or above it.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localcut
from localcut import probability
from localcut.cli import main
from localcut.core import ENUM_CAP
from localcut.digraph import MultiDigraph, head_reach, underlying_simple
from localcut.engine import build_nonrep_instance
from localcut.families import (FamilyInstance, _worst_conditional,
                               all_subsets, boundary, check_family_condition,
                               hypergraph_coloring_family, tau_of_set,
                               validate_family_instance)
from localcut.instances import Hypergraph, random_regular_uniform_hypergraph
from localcut.probability import (CutModel, EnumerationCapError, ModelCheck,
                                  ProductSpace, risk_table_exact,
                                  validate_cut_model, vertex_probabilities)

from corpus import corpus


# ------------------------------------------------ two-pass cut reference

def exact_outcomes(space):
    """Every outcome in the order of ProductSpace.outcomes, as (sample
    point, numerator), and the common denominator: with each variable's
    float weights taken as Fractions and divided by their sum, an
    outcome's probability is numerator / scale."""
    names = [v.name for v in space.variables]
    columns, scale = [], 1
    for v in space.variables:
        exact = [Fraction(w) / sum(map(Fraction, v.weights))
                 for w in v.weights]
        den = math.lcm(*(q.denominator for q in exact))
        columns.append([(value, int(q * den))
                        for value, q in zip(v.values, exact)])
        scale *= den
    return [(dict(zip(names, (value for value, _ in combo))),
             math.prod(num for _, num in combo))
            for combo in itertools.product(*columns)], scale


def round_up(q):
    """The least float >= the rational q."""
    x = float(q)                        # correctly rounded to nearest
    return math.nextafter(x, math.inf) if Fraction(x) < q else x


def exact_table(space, model):
    """Risk entries as exact rationals, by their own sweep; unknown edges
    add no mass."""
    graph = model.digraph
    reach = head_reach(graph)
    vertex_mass = dict.fromkeys(graph.vertices, 0)
    joint = dict.fromkeys(((e.id, z) for e in graph.edges
                           for z in reach[e.head]), 0)
    for point, prob in exact_outcomes(space)[0]:
        if not prob:
            continue
        inside = model.a_of(point)
        chosen = model.f_of(point)
        for v in inside:
            vertex_mass[v] += prob
        for eid in chosen:
            if eid not in graph.edge_by_id:
                continue
            for z in reach[graph.edge_by_id[eid].head]:
                if z in inside:
                    joint[(eid, z)] += prob
    return {(eid, z): Fraction(mass, vertex_mass[z]) if vertex_mass[z]
            else Fraction(0) for (eid, z), mass in joint.items()}


def reference_table(space, model):
    return {key: round_up(q) for key, q in exact_table(space, model).items()}


def reference_check(space, model):
    """The model check by its own sweep, tests in the documented order."""
    graph = model.digraph
    simple = underlying_simple(graph)
    arcs_by_head = {}
    for (tail, head), eids in graph.edges_by_arc.items():
        arcs_by_head.setdefault(head, []).append((tail, eids))
    for point, mass in space.outcomes():
        if not mass:
            continue
        inside = model.a_of(point)
        for tail, head in simple.arcs:
            if tail in inside and head not in inside:
                return ModelCheck(False, point,
                                  f"A not out-closed: arc ({tail},{head})")
        chosen = model.f_of(point)
        for eid in chosen:
            if eid not in graph.edge_by_id:
                return ModelCheck(False, point,
                                  f"F names unknown edge {eid!r}")
        for head in inside:
            for tail, eids in arcs_by_head.get(head, ()):
                if tail not in inside and not any(e in chosen for e in eids):
                    return ModelCheck(
                        False, point, f"F misses boundary arc ({tail},{head})")
    return ModelCheck(True, None, "ok")


def assert_fused_matches(space, model):
    table, checked = risk_table_exact(space, model)
    assert table.entries == reference_table(space, model)
    assert checked == reference_check(space, model)
    assert checked == validate_cut_model(space, model)
    return checked


def random_lists(rng, n):
    alphabet = ["x", "y", "z"]
    return [rng.sample(alphabet, rng.randint(1, 3)) for _ in range(n)]


def nonrep_cases():
    rng = random.Random(11)
    return [random_lists(rng, n) for n in range(1, 8) for _ in range(3)]


def test_fused_sweep_matches_two_passes_on_the_corpus():
    failed = 0
    for ci in corpus():
        assert assert_fused_matches(ci.space, ci.model).ok
        # without F, every outcome whose A has an entering arc fails
        bare = CutModel(ci.graph, ci.model.a_of, lambda pt: frozenset())
        failed += not assert_fused_matches(ci.space, bare).ok
    assert failed > 0


def test_fused_sweep_matches_two_passes_on_nonrep():
    for lists in nonrep_cases():
        inst = build_nonrep_instance(lists, risk_mode="exact")
        assert inst.risks.entries == reference_table(inst.space, inst.model)
        assert inst.model_check == reference_check(inst.space, inst.model)
        assert inst.model_check.ok
        assert_fused_matches(inst.space, inst.model)
    bound = build_nonrep_instance(nonrep_cases()[-1], risk_mode="bound")
    assert bound.model_check is None


def oracle_lists():
    """Nonrep list assignments of n <= 8 positions: uniform lists of 3, and
    list sizes of 2 to 4 with at most 3^8 outcomes."""
    rng = random.Random(18)
    cases = [[["x", "y", "z"]] * n for n in range(1, 9)]
    for n in range(2, 9):
        sizes = [rng.randint(2, 4) for _ in range(n)]
        while math.prod(sizes) > 3 ** 8:
            sizes[rng.randrange(n)] = 2
        cases.append([rng.sample("abcd", size) for size in sizes])
    return cases


def test_nonrep_risk_entries_are_exact_ratios_rounded_up():
    # a nearest quotient below its ratio would understate a risk: the
    # cases must hold such entries, so rounding to nearest fails here
    below = 0
    for lists in oracle_lists():
        inst = build_nonrep_instance(lists, risk_mode="exact")
        exact = exact_table(inst.space, inst.model)
        assert inst.risks.entries == {k: round_up(q) for k, q in exact.items()}
        below += sum(Fraction(float(q)) < q for q in exact.values())
    assert below > 0


def test_hypcol2_worst_conditionals_are_exact_ratios_rounded_up():
    below = 0
    for n, k, d, colors in [(4, 2, 1, 2), (6, 3, 1, 2), (6, 3, 2, 2),
                            (6, 2, 1, 3), (6, 3, 1, 3), (8, 4, 1, 2)]:
        fam, witnesses = hypergraph_coloring_family(
            random_regular_uniform_hypergraph(n, k, d, seed=n + d), colors)
        for elem, bundle in fam.events.items():
            for label, event in bundle:
                w = witnesses[(elem, label)]
                exact = exact_worst_conditional(fam, event, w)
                assert _worst_conditional(fam, event, w, ENUM_CAP) == \
                    round_up(exact)
                below += Fraction(float(exact)) < exact
    assert below > 0


def test_outcome_masses_are_exact_probabilities():
    spaces = [ProductSpace.uniform([("a", [0, 1, 2]), ("b", "xyzw")]),
              ProductSpace.build([("a", [0, 1], [0.1, 0.9]),
                                  ("b", [0, 1, 2], [1 / 3, 1 / 6, 0.5]),
                                  ("c", [0, 1], [1.0, 0.0])])]
    for space in spaces:
        want, scale = exact_outcomes(space)
        assert [(point, Fraction(mass, space.unit))
                for point, mass in space.outcomes()] == \
            [(point, Fraction(prob, scale)) for point, prob in want]
    # uniform variables: every outcome weighs 1, the sweep counts
    assert {mass for _, mass in spaces[0].outcomes()} == {1}


def test_fused_check_matches_on_bad_models():
    g = MultiDigraph.build(["u", "v"], [("e1", "u", "v")])
    space = ProductSpace.uniform([("b", [0, 1])])
    models = {
        "good": CutModel(g, lambda pt: frozenset({"u", "v"}) if pt["b"]
                         else frozenset(), lambda pt: frozenset()),
        "not_closed": CutModel(g, lambda pt: frozenset({"u"}),
                               lambda pt: frozenset()),
        "uncovered": CutModel(g, lambda pt: frozenset({"v"}),
                              lambda pt: frozenset()),
        "ghost": CutModel(g, lambda pt: frozenset(),
                          lambda pt: frozenset({"nope"})),
    }
    reasons = {"good": "ok", "not_closed": "out-closed",
               "uncovered": "misses boundary", "ghost": "unknown edge"}
    for name, model in models.items():
        checked = assert_fused_matches(space, model)
        assert checked.ok == (name == "good")
        assert reasons[name] in checked.reason


def test_fused_check_names_the_first_bad_outcome_of_positive_mass():
    g = MultiDigraph.build(["u", "v"], [("e1", "u", "v")])
    space = ProductSpace.build([("b", [0, 1, 2], [0.0, 0.5, 0.5])])
    # breaks out-closure at b = 0 (no mass) and at b = 2; F covers v at b = 1
    model = CutModel(
        g, lambda pt: frozenset({"u"}) if pt["b"] != 1 else frozenset({"v"}),
        lambda pt: frozenset({"e1"}))
    checked = assert_fused_matches(space, model)
    assert checked.counterexample == {"b": 2}


def write_lists(tmp_path, lists):
    path = tmp_path / "lists.json"
    path.write_text(json.dumps({"lists": lists}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("mode", ["exact", "bound"])
def test_validate_model_nonrep_sweeps_the_space_once(tmp_path, monkeypatch,
                                                     capsys, mode):
    outcomes = ProductSpace.outcomes
    sweeps = []

    def counted(space, *args, **kwargs):
        sweeps.append(space.n_outcomes)
        return outcomes(space, *args, **kwargs)

    monkeypatch.setattr(ProductSpace, "outcomes", counted)
    path = write_lists(tmp_path, [["x", "y", "z"]] * 6)
    code = main(["validate-model", "nonrep", "--instance", path,
                 "--risk-mode", mode])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] and report["reason"] == "ok"
    # exact mode walks square-free prefixes; bound mode sweeps for its check
    assert sweeps == ([] if mode == "exact" else [3 ** 6])


# ------------------------------------------ one mass per distinct (A, F)

# x -> y -> z with a parallel edge r into y: a pool of A sets, some not
# out-closed, and F sets, one naming an unknown edge
POOL_GRAPH = MultiDigraph.build(["x", "y", "z"], [
    ("p", "x", "y"), ("r", "x", "y"), ("q", "y", "z")])
A_POOL = [(), ("z",), ("y", "z"), ("x", "y", "z"), ("y",), ("x",)]
F_POOL = [(), ("q",), ("p",), ("p", "r"), ("q", "p"), ("ghost",)]
# per variable: zero weights, non-uniform weights and uniform thirds
WEIGHTS = [[1.0], [0.5, 0.5], [0.0, 1.0], [0.25, 0.75], [0.1, 0.9],
           [1 / 3] * 3, [0.0, 0.5, 0.5], [0.2, 0.0, 0.8]]


@st.composite
def pooled_models(draw):
    """A small product space and a model whose A and F come, per outcome,
    from a few (A, F) pairs of the pools: pairs repeat out of order, and
    each call builds a new frozenset, so equal pairs are other objects."""
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=1,
                            max_size=3))
    space = ProductSpace.build([(f"a{i}", list(range(len(w))), w)
                                for i, w in enumerate(weights)])
    pairs = draw(st.lists(st.tuples(st.sampled_from(A_POOL),
                                    st.sampled_from(F_POOL)),
                          min_size=1, max_size=4))
    names = [v.name for v in space.variables]
    combos = list(itertools.product(*(v.values for v in space.variables)))
    picks = draw(st.lists(st.sampled_from(pairs), min_size=len(combos),
                          max_size=len(combos)))
    lookup = dict(zip(combos, picks))

    def pick(point):
        return lookup[tuple(point[name] for name in names)]

    return space, CutModel(POOL_GRAPH, lambda pt: frozenset(pick(pt)[0]),
                           lambda pt: frozenset(pick(pt)[1]))


def first_pairs(space, model, checked):
    """The distinct (A, F) values of positive mass in order of first
    sight, up to the counterexample's when the check failed."""
    seen = []
    for point, mass in space.outcomes():
        if not mass:
            continue
        pair = model.a_of(point), model.f_of(point)
        if pair not in seen:
            seen.append(pair)
        if point == checked.counterexample:
            break
    return seen


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pooled_models())
def test_grouped_sweep_matches_per_outcome_references(case):
    space, model = case
    checks = []
    checker = probability._cut_checker

    def counted(graph):
        check = checker(graph)

        def counting(inside, chosen):
            checks.append((inside, chosen))
            return check(inside, chosen)
        return counting

    want = reference_check(space, model)
    outcomes, scale = exact_outcomes(space)
    vertex_mass = dict.fromkeys(POOL_GRAPH.vertices, 0)
    for point, prob in outcomes:
        for v in model.a_of(point):
            vertex_mass[v] += prob
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(probability, "_cut_checker", counted)
        table, checked = risk_table_exact(space, model)
        assert checks == first_pairs(space, model, want)
        assert validate_cut_model(space, model) == want
        probs = vertex_probabilities(space, model)
    assert table.entries == reference_table(space, model)
    assert checked == want
    assert probs == {v: float(Fraction(m, scale))
                     for v, m in vertex_mass.items()}


# ------------------------------------------------------------ square test

def reference_prefix_length(seq):
    n = len(seq)
    for end in range(1, n + 1):
        j = end - 1
        for t in range(1, end // 2 + 1):
            if all(seq[j - t - k] == seq[j - k] for k in range(t)):
                return end - 1
    return n


def reference_blocks_equal(seq, s, t):
    return all(seq[k] == seq[k + t] for k in range(s, s + t))


def reference_model(seq):
    """A and F of one sequence, by the elementwise definitions."""
    n = len(seq)
    good = reference_prefix_length(seq)
    return (frozenset(f"v{i}" for i in range(1, good + 1)),
            frozenset(f"e_{s + 1}_{t}" for s in range(n)
                      for t in range(1, (n - s) // 2 + 1)
                      if reference_blocks_equal(seq, s, t)))


def test_square_test_matches_elementwise_scan():
    # a model needs one position; the empty sequence has no blocks
    for n in range(1, 8):
        inst = build_nonrep_instance([[0, 1, 2]] * n, risk_mode="bound")
        for seq in itertools.product(range(3), repeat=n):
            point = {f"a{i}": x for i, x in enumerate(seq, start=1)}
            assert (inst.model.a_of(point), inst.model.f_of(point)) == \
                reference_model(seq)


def test_nonrep_model_matches_elementwise_scan_on_every_outcome():
    for lists in nonrep_cases():
        n = len(lists)
        for mode in ("exact", "bound"):
            inst = build_nonrep_instance(lists, risk_mode=mode)
            blocks = {}
            for e in inst.graph.edges:
                _, s, t = e.id.split("_")
                blocks[e.id] = (int(s), int(t))
            for point, _ in inst.space.outcomes():
                seq = [point[f"a{i}"] for i in range(1, n + 1)]
                good = reference_prefix_length(seq)
                assert inst.model.a_of(point) == \
                    frozenset(f"v{i}" for i in range(1, good + 1))
                assert inst.model.f_of(point) == frozenset(
                    eid for eid, (s, t) in blocks.items()
                    if reference_blocks_equal(seq, s - 1, t))


def test_nonrep_scan_is_right_in_any_call_order():
    # the model keeps one scan for the last sequence and rescans only past
    # the prefix a new one shares with it; no order or call mix may show it
    rng = random.Random(3)
    for lists in [[[0, 1]], [[0, 1], [1, 0, 2]]] + nonrep_cases()[-6:]:
        n = len(lists)
        inst = build_nonrep_instance(lists, risk_mode="bound")
        points = [point for point, _ in inst.space.outcomes()]
        shuffled = rng.sample(points, len(points))
        repeated = list(shuffled)
        k = rng.randrange(len(points))
        repeated[k + 1:k + 1] = [dict(repeated[k]), repeated[k]]
        for order in (shuffled, points[::-1], repeated):
            for calls in ("af", "fa", "a", "f"):
                for point in order:
                    inside, repeated = reference_model(
                        [point[f"a{i}"] for i in range(1, n + 1)])
                    for call in calls:
                        if call == "a":
                            assert inst.model.a_of(point) == inside
                        else:
                            assert inst.model.f_of(point) == repeated


# ------------------------------------------------------ family validation

def family_of(inst, point):
    """The family at one sample point, listed explicitly."""
    return frozenset(s for s in all_subsets(inst.ground)
                     if inst.member(point, s))


def reference_boundary(family, ground):
    """Frozenset algebra; the first offending member in all_subsets order
    and its first missing element in ground order name a failure."""
    members = frozenset(family)
    if not members:
        raise ValueError("family is empty")
    for s in all_subsets(ground):
        if s not in members:
            continue
        for elem in ground:
            if elem in s and s - {elem} not in members:
                raise ValueError(f"not downward-closed: {sorted(s)} is a "
                                 f"member but {sorted(s - {elem})} is not")
    return frozenset(elem for elem in ground
                     if any(elem not in s and s | {elem} not in members
                            for s in members))


def reference_validate(inst):
    for point, mass in inst.space.outcomes():
        if not mass:
            continue
        try:
            edge = reference_boundary(family_of(inst, point), inst.ground)
        except ValueError as exc:
            return (False, point, str(exc))
        for elem in inst.ground:
            if elem in edge and not any(event(point)
                                        for _, event in inst.events[elem]):
                return (False, point,
                        f"boundary element {elem!r} has no true event")
    return (True, None, "ok")


def assert_validation_matches(inst):
    got = validate_family_instance(inst)
    assert (got.ok, got.counterexample, got.reason) == reference_validate(inst)
    return got


def bit_space(names):
    return ProductSpace.uniform([(f"b_{i}", [0, 1]) for i in names])


def test_family_validation_matches_frozenset_reference():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(2, 6)
        vertices = [f"w{i}" for i in range(n)]
        edges = [rng.sample(vertices, rng.randint(1, min(3, n)))
                 for _ in range(rng.randint(1, 4))]
        fam, _ = hypergraph_coloring_family(
            Hypergraph.build(vertices, edges), colors=rng.choice([2, 3]))
        assert assert_validation_matches(fam).ok
        for point, _ in fam.space.outcomes():
            members = family_of(fam, point)
            assert boundary(members, fam.ground) == \
                reference_boundary(members, fam.ground)

    names = ["x", "y", "z"]

    def switched(point, subset):
        return all(point[f"b_{i}"] == 1 for i in subset)

    # events that miss a boundary element on some outcome
    holes = FamilyInstance.build(names, bit_space(names), switched,
                                 {"x": [("off", lambda pt: pt["b_x"] == 0)]})
    assert "no true event" in assert_validation_matches(holes).reason


def exact_worst_conditional(inst, event, witness):
    """Max over Z outside the witness of Pr(event | Z is a member), by
    asking `member` about Z on every outcome, one exact pass per Z."""
    worst = Fraction(0)
    outcomes, _ = exact_outcomes(inst.space)
    for z in all_subsets([i for i in inst.ground if i not in witness]):
        base = joint = 0
        for point, prob in outcomes:
            if prob and inst.member(point, z):
                base += prob
                if event(point):
                    joint += prob
        if base:
            worst = max(worst, Fraction(joint, base))
    return worst


def reference_worst_conditional(inst, event, witness):
    return round_up(exact_worst_conditional(inst, event, witness))


def assert_conditionals_match(inst, witnesses):
    tau = {v: 1.5 for v in inst.ground}
    got = check_family_condition(inst, tau, witnesses)
    plain = check_family_condition(
        inst._replace(blockers=None), tau, witnesses)
    assert (got.sigma, got.margins) == (plain.sigma, plain.margins)
    for elem, bundle in inst.events.items():
        for label, event in bundle:
            w = witnesses[(elem, label)]
            assert got.sigma[(elem, label)] == tau_of_set(tau, w) * \
                reference_worst_conditional(inst, event, w)


def colors_differ(u, v):
    return lambda point: point[f"c_{u}"] != point[f"c_{v}"]


def test_blocker_path_matches_member_path():
    # validation and worst conditionals from an outcome's monochromatic
    # edges must give what asking `member` about every subset gives,
    # failures included
    rng = random.Random(21)
    failed = 0
    for trial in range(40):
        n = rng.randint(1, 6)
        vertices = [f"w{i}" for i in range(n)]
        # edges over a sample of the vertices leave some isolated
        used = rng.sample(vertices, rng.randint(1, n))
        edges = [rng.sample(used, rng.randint(1, min(3, len(used))))
                 for _ in range(rng.randint(1, 4))]
        if trial % 4 == 0:
            edges.append([rng.choice(vertices)])
        fam, witnesses = hypergraph_coloring_family(
            Hypergraph.build(vertices, edges), colors=2 + trial % 2)
        assert fam.blockers is not None
        assert_conditionals_match(fam, witnesses)
        if n > 1:
            # events that favour some members, so the worst Z moves
            pairs = {key: rng.sample(vertices, 2) for key in witnesses}
            assert_conditionals_match(fam._replace(events={
                elem: tuple((label, colors_differ(*pairs[(elem, label)]))
                            for label, _ in bundle)
                for elem, bundle in fam.events.items()}), witnesses)
        elem = rng.choice(sorted({v for e in edges for v in e}))
        broken = fam._replace(events={**fam.events, elem: ()})
        for inst in (fam, broken):
            got = validate_family_instance(inst)
            plain = validate_family_instance(
                inst._replace(blockers=None))
            assert (got.ok, got.counterexample, got.reason) == \
                (plain.ok, plain.counterexample, plain.reason)
            assert got.ok or inst is broken
        failed += not got.ok
    assert failed > 0


def test_broken_member_callbacks_are_reported():
    names = ["x", "y", "z"]
    space = bit_space(names)
    empty = FamilyInstance.build(names, space, lambda pt, s: False, {})
    assert assert_validation_matches(empty).reason == "family is empty"

    # several members lack a smaller subset; the first one in all_subsets
    # order is {x}, whose missing subset is the empty set
    def gappy(point, subset):
        return len(subset) != 0 and (point["b_x"] or len(subset) != 2)

    broken = FamilyInstance.build(names, space, gappy, {})
    got = assert_validation_matches(broken)
    assert got.reason == "not downward-closed: ['x'] is a member but [] is not"

    # closed at the bottom, broken higher up on some outcomes only
    def tall(point, subset):
        return len(subset) <= 1 or (len(subset) == 3 and point["b_y"] == 1)

    always = {i: [("on", lambda pt: True)] for i in names}
    got = assert_validation_matches(
        FamilyInstance.build(names, space, tall, always))
    assert not got.ok and got.counterexample["b_y"] == 1
    assert got.reason == ("not downward-closed: ['x', 'y', 'z'] is a member "
                          "but ['y', 'z'] is not")


def test_boundary_matches_frozenset_reference_on_random_families():
    rng = random.Random(9)
    ground = ("p", "q", "r", "s")
    subsets = all_subsets(ground)
    for _ in range(300):
        family = [s for s in subsets if rng.random() < 0.6]
        try:
            want = reference_boundary(family, ground)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                boundary(family, ground)
            assert str(got.value) == str(exc)
        else:
            assert boundary(family, ground) == want
        # the downward closure of the same sets is always accepted
        closed = {t for s in family for t in subsets if t <= s}
        assert boundary(closed, ground) == reference_boundary(closed, ground)
    with pytest.raises(ValueError):
        boundary([frozenset(), frozenset({"t"})], ground)


def test_boundary_on_large_ground_sets():
    # the first offending member sits high in the 2^20-bit family
    ground = [f"g{i:02d}" for i in range(20)]
    with pytest.raises(ValueError) as got:
        boundary([frozenset(), frozenset(ground[-2:])], ground)
    assert str(got.value) == ("not downward-closed: ['g18', 'g19'] is a "
                              "member but ['g19'] is not")
    # only the full set is offending: the walk passes every smaller size
    small = ground[:16]
    with pytest.raises(ValueError) as got:
        boundary([frozenset(), frozenset(small)], small)
    assert str(got.value) == (f"not downward-closed: {small} is a member "
                              f"but {small[1:]} is not")
    assert boundary([frozenset(), frozenset(ground[:1])], ground) == \
        frozenset(ground[1:])
    # the bitset spans all 2^23 subsets, past the enumeration cap
    with pytest.raises(EnumerationCapError):
        boundary([frozenset()], [f"g{i:02d}" for i in range(23)])


NOT_CLOSED_SCRIPT = """
from localcut.families import (FamilyInstance, boundary,
                               validate_family_instance)
from localcut.probability import ProductSpace
names = ["a", "b", "c", "d", "e"]
space = ProductSpace.uniform([("k", [0, 1])])
inst = FamilyInstance.build(names, space, lambda pt, s: len(s) % 2 == 0, {})
print(validate_family_instance(inst).reason)
print(boundary([frozenset("ab"), frozenset("cd"), frozenset()], "abcd"))
"""


def test_not_closed_reason_ignores_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(localcut.__file__)))
    outs = []
    for seed in (0, 1):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", NOT_CLOSED_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert "not downward-closed" in proc.stderr
        outs.append((proc.stdout, proc.stderr.splitlines()[-1]))
    assert outs[0] == outs[1]
    assert outs[0][0].strip() == ("not downward-closed: ['a', 'b'] is a "
                                  "member but ['b'] is not")
    assert outs[0][1].endswith("['a', 'b'] is a member but ['b'] is not")
