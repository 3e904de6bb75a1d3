"""Weight conditions for random downward-closed families over a ground set.

A family instance draws a downward-closed collection of subsets of a
finite ground set, together with one bundle of "blame" events per element:
whenever an element sits on the family's boundary (some member stops being
a member once the element is added), at least one of its events must have
occurred.  Element weights tau >= 1 satisfy the condition when each
tau(i) covers 1 plus, for every event in i's bundle, the worst conditional
probability of the event times the weight product of a chosen witness set
containing i.  A feasible tau lower-bounds the probability that the full
ground set is a member by 1 over the product of all weights.

The subset-lattice reduction realizes all of this as a cut instance on the
powerset digraph, one deletion arc per (element, subset) pair, carrying
one edge per event in the element's bundle.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import (ENUM_CAP, ITER_CAP, TOL, VALUE_CAP, EnumerationCapError,
                   FixedPointResult, WeightReport, check_margins, kleene)
from .digraph import MultiDigraph
from .instances import Hypergraph
from .probability import (CutModel, Event, ProductSpace, SamplePoint,
                          _Kahan)

HYPERCUBE_MAX_GROUND = 4

Subset = frozenset


class FamilyInstance(NamedTuple):
    """`blockers`, when given, lists per outcome sets no member may
    contain; the family must then be exactly the subsets containing none
    of them, the sets `member` accepts."""

    ground: tuple[str, ...]
    space: ProductSpace
    member: Callable[[SamplePoint, Subset], bool]
    events: dict[str, tuple[tuple[str, Event], ...]]   # element -> (label, event)
    blockers: Callable[[SamplePoint], Iterable[Subset]] | None = None

    @staticmethod
    def build(ground: Iterable[str], space: ProductSpace,
              member: Callable[[SamplePoint, Subset], bool],
              events: Mapping[str, Sequence[tuple[str, Event]]],
              blockers: Callable[[SamplePoint], Iterable[Subset]] | None = None
              ) -> "FamilyInstance":
        g = tuple(sorted(ground))
        if len(set(g)) != len(g) or not g:
            raise ValueError("ground set must be nonempty without duplicates")
        evs: dict[str, tuple[tuple[str, Event], ...]] = {}
        for elem in g:
            bundle = tuple(events.get(elem, ()))
            labels = [label for label, _ in bundle]
            if len(set(labels)) != len(labels):
                raise ValueError(f"element {elem!r} repeats an event label")
            evs[elem] = bundle
        unknown = set(events) - set(g)
        if unknown:
            raise ValueError(f"events for unknown elements {sorted(unknown)}")
        return FamilyInstance(g, space, member, evs, blockers)


def family_of(inst: FamilyInstance, point: SamplePoint) -> frozenset[Subset]:
    """The family at one sample point, listed explicitly."""
    subsets = all_subsets(inst.ground)
    return frozenset(s for s in subsets if inst.member(point, s))


def all_subsets(ground: Sequence[str]) -> list[Subset]:
    out = []
    for r in range(len(ground) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(ground, r))
    return out


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x, lowest first."""
    # one pass over the binary digits, not one shift of x per position
    return [k for k, digit in enumerate(bin(x)[:1:-1]) if digit == "1"]


class _Lattice:
    """Families of subsets of a ground set, held as bitsets: bit k of a
    subset's mask stands for ground[k], and bit m of a family for the
    subset of mask m.  The 2^n subsets count against the enumeration cap.
    """

    def __init__(self, ground: Sequence[str], cap: int = ENUM_CAP):
        self.ground = tuple(ground)
        self.index = {elem: k for k, elem in enumerate(self.ground)}
        size = 1 << len(self.ground)
        if size > cap:
            raise EnumerationCapError(f"{size} subsets exceed cap {cap}")
        self.full = (1 << size) - 1
        # with_elem[k], the family of the subsets holding ground[k]: 2^k
        # clear bits then 2^k set bits, doubled up to all 2^n masks
        self.with_elem = []
        for k in range(len(self.ground)):
            h = 1 << k
            bits, width = ((1 << h) - 1) << h, 2 * h
            while width < size:
                bits, width = bits | bits << width, 2 * width
            self.with_elem.append(bits)

    def mask(self, subset: Iterable[str]) -> int:
        unknown = set(subset) - self.index.keys()
        if unknown:
            raise ValueError(f"{sorted(unknown)} not in the ground set")
        return sum(1 << self.index[elem] for elem in subset)

    def names(self, mask: int) -> list[str]:
        return [self.ground[k] for k in _bits(mask)]

    def holding(self, subset: Subset) -> int:
        """The family of the subsets holding `subset`, empty when it
        leaves the ground set."""
        if not subset <= self.index.keys():
            return 0
        bits = self.full
        for elem in subset:
            bits &= self.with_elem[self.index[elem]]
        return bits

    def first(self, family: int) -> int:
        """Mask of the first member of a nonempty family in all_subsets
        order: by size, then lexicographic in ground indices."""
        # one byte string, so each membership test is a byte lookup and
        # not a shift of the whole 2^n-bit family
        raw = family.to_bytes((1 << len(self.ground)) // 8 + 1, "little")
        for r in range(len(self.ground) + 1):
            for combo in itertools.combinations(range(len(self.ground)), r):
                m = sum(1 << k for k in combo)
                if raw[m >> 3] >> (m & 7) & 1:
                    return m
        raise ValueError("family is empty")

    def boundary(self, family: int) -> int:
        """Mask of the elements whose addition ejects some member.

        Raises ValueError if the family is empty or not downward-closed;
        the reason names the first member in all_subsets order that lacks
        a subset one element smaller.
        """
        if not family:
            raise ValueError("family is empty")
        orphans = 0     # members m holding some k with m - {k} absent
        for k, with_k in enumerate(self.with_elem):
            orphans |= family & with_k & ~(family << (1 << k))
        if orphans:
            m = self.first(orphans)
            k = next(k for k in _bits(m) if not family >> (m ^ 1 << k) & 1)
            raise ValueError(
                f"not downward-closed: {sorted(self.names(m))} is a member "
                f"but {sorted(self.names(m ^ 1 << k))} is not")
        return sum(1 << k for k, with_k in enumerate(self.with_elem)
                   if (family & ~with_k) << (1 << k) & ~family)


def boundary(family: Iterable[Subset], ground: Sequence[str]) -> frozenset[str]:
    """Elements whose addition can eject a member of a downward-closed
    family of subsets of the ground set.

    Raises ValueError if the family is empty, not downward-closed or has
    a member outside the ground set.  The family is held as a bitset over
    all 2^len(ground) subsets, so a ground set whose subsets exceed
    ENUM_CAP (more than 22 elements) raises EnumerationCapError, however
    small the family.
    """
    lattice = _Lattice(ground)
    bits = 0
    for s in family:
        bits |= 1 << lattice.mask(s)
    return frozenset(lattice.names(lattice.boundary(bits)))


class FamilyValidation(NamedTuple):
    ok: bool
    counterexample: SamplePoint | None
    reason: str


def _family_reader(inst: FamilyInstance,
                   lattice: _Lattice) -> Callable[[SamplePoint], int]:
    """Reads an outcome's family, cut down to the subsets of the
    lattice's ground set, as a bitset.

    With blockers it is every subset but those holding one of the
    outcome's blockers, a few bitset operations per blocker; otherwise
    `member` is asked about each subset."""
    if inst.blockers is None:
        subsets = [(s, 1 << lattice.mask(s))
                   for s in all_subsets(lattice.ground)]

        def family_at(point: SamplePoint) -> int:
            family = 0
            for s, bit in subsets:
                if inst.member(point, s):
                    family |= bit
            return family

        return family_at
    up: dict[Subset, int] = {}          # blocker -> the subsets holding it

    def family_at(point: SamplePoint) -> int:
        blocked = 0
        for b in inst.blockers(point):
            bits = up.get(b)
            if bits is None:
                bits = up[b] = lattice.holding(b)
            blocked |= bits
        return lattice.full & ~blocked

    return family_at


def validate_family_instance(inst: FamilyInstance, *,
                             cap: int = ENUM_CAP) -> FamilyValidation:
    """Check, on every positive-probability outcome: the family is nonempty
    and downward-closed, and every boundary element has a true event."""
    inst.space.check_cap(cap)
    lattice = _Lattice(inst.ground, cap)
    family_at = _family_reader(inst, lattice)
    for point, prob in inst.space.outcomes(cap):
        if prob <= 0.0:
            continue
        family = family_at(point)
        try:
            edge = lattice.boundary(family)
        except ValueError as exc:
            return FamilyValidation(False, point, str(exc))
        for elem in lattice.names(edge):
            if not any(event(point) for _, event in inst.events[elem]):
                return FamilyValidation(
                    False, point,
                    f"boundary element {elem!r} has no true event")
    return FamilyValidation(True, None, "ok")


def tau_of_set(tau: Mapping[str, float], subset: Iterable[str]) -> float:
    return math.prod(map(tau.__getitem__, subset))


Terms = Mapping[str, Sequence[tuple[float, Iterable[str]]]]  # i -> (p, W)s


def apply_tau_operator(ground: Sequence[str], terms: Terms,
                       tau: Mapping[str, float]) -> dict[str, float]:
    """One step of the element update: tau(i) -> 1 + sum of p * tau(W)
    over i's terms, summed left to right (not with sum(), which
    compensates from Python 3.12 on)."""
    weight, prod = tau.__getitem__, math.prod
    nxt = {}
    for elem in ground:
        total = 0.0
        for p, witness in terms.get(elem, ()):
            total += p * prod(map(weight, witness))
        nxt[elem] = 1.0 + total
    return nxt


def check_tau_condition(ground: Sequence[str], terms: Terms,
                        tau: Mapping[str, float],
                        tol: float = TOL) -> WeightReport:
    """Margins tau - F(tau) of the per-element condition; feasible iff
    every margin >= -tol.  Every tau(i) must be a finite number >= 1."""
    for elem in ground:
        if not 1.0 <= tau[elem] < math.inf:
            raise ValueError(f"tau[{elem!r}] = {tau[elem]} is not a finite "
                             "number >= 1")
    return check_margins(tau, apply_tau_operator(ground, terms, tau), tol)


def witness_bound(inst: FamilyInstance, event: Event, witness: Subset,
                  tau: Mapping[str, float], *, p_bound: float | None = None,
                  cap: int = ENUM_CAP, outside_cap: int = 20) -> float:
    """Worst conditional event probability times the witness weight product.

    The conditional is maximized over subsets Z disjoint from the witness
    set, conditioning on Z being a family member; Pr(cond) = 0 contributes
    0.  With p_bound given, enumeration is skipped and the bound is
    p_bound * tau(witness).
    """
    if p_bound is None:
        p_bound = _worst_conditional(inst, event, witness, cap, outside_cap)
    return p_bound * tau_of_set(tau, witness)


def _worst_conditional(inst: FamilyInstance, event: Event, witness: Subset,
                       cap: int, outside_cap: int = 20) -> float:
    outside = [i for i in inst.ground if i not in witness]
    if len(outside) > outside_cap:
        raise ValueError(f"{len(outside)} outside elements exceed cap "
                         f"{outside_cap}")
    lattice = _Lattice(outside)
    family_at = _family_reader(inst, lattice)
    # per Z, by mask: the mass of the outcomes where Z is a member
    base = [_Kahan() for _ in range(1 << len(outside))]
    joint = [_Kahan() for _ in base]
    for point, prob in inst.space.outcomes(cap):
        if prob <= 0.0:
            continue
        happened = event(point)
        for m in _bits(family_at(point)):
            base[m].add(prob)
            if happened:
                joint[m].add(prob)
    worst = 0.0
    for b, j in zip(base, joint):
        if b.total > 0.0:
            worst = max(worst, j.total / b.total)
    return worst


WitnessMap = Mapping[tuple[str, str], Subset]   # (element, label) -> witness


def _check_witnesses(inst: FamilyInstance, witnesses: WitnessMap) -> None:
    ground = set(inst.ground)
    for elem, bundle in inst.events.items():
        for label, _ in bundle:
            w = witnesses.get((elem, label))
            if w is None:
                raise ValueError(f"no witness for ({elem!r}, {label!r})")
            if elem not in w:
                raise ValueError(f"witness for ({elem!r}, {label!r}) "
                                 f"does not contain the element")
            if not set(w) <= ground:
                raise ValueError(f"witness for ({elem!r}, {label!r}) "
                                 f"leaves the ground set")


class FamilyConditionReport(NamedTuple):
    feasible: bool
    margins: dict[str, float]
    sigma: dict[tuple[str, str], float]
    bound: float                   # guaranteed Pr(ground set is a member)


def check_family_condition(inst: FamilyInstance, tau: Mapping[str, float],
                           witnesses: WitnessMap, *,
                           p_bounds: Mapping[tuple[str, str], float] | None = None,
                           tol: float = TOL,
                           cap: int = ENUM_CAP) -> FamilyConditionReport:
    """Per-element margins of the weight condition, and the implied bound.
    An event's term is (p, witness), p its p_bounds entry or else the worst
    conditional probability that witness_bound enumerates."""
    _check_witnesses(inst, witnesses)
    terms: dict[str, list] = {elem: [] for elem in inst.ground}
    sigma: dict[tuple[str, str], float] = {}
    for elem in inst.ground:
        for label, event in inst.events[elem]:
            witness = witnesses[(elem, label)]
            p = (_worst_conditional(inst, event, witness, cap)
                 if p_bounds is None else p_bounds[(elem, label)])
            terms[elem].append((p, witness))
            sigma[(elem, label)] = p * tau_of_set(tau, witness)
    rep = check_tau_condition(inst.ground, terms, tau, tol)
    return FamilyConditionReport(rep.feasible, rep.margins, sigma,
                                 1.0 / tau_of_set(tau, inst.ground))


# -------------------------------------------------- subset-lattice reduction

def subset_id(subset: Iterable[str]) -> str:
    return "{" + ",".join(sorted(subset)) + "}"


class HypercubeReduction(NamedTuple):
    graph: MultiDigraph
    model: CutModel
    weights: dict[tuple[str, str], float]
    vertex_of: dict[Subset, str]


def hypercube_digraph(inst: FamilyInstance,
                      tau: Mapping[str, float]) -> HypercubeReduction:
    """Cut instance on the powerset digraph of the ground set.

    Each arc deletes one element; it carries one edge per event in that
    element's bundle (a bundle with no events gets a never-true filler so
    the lattice stays fully connected).  Arc weights are the deleted
    element's tau; every path from S to Z <= S then multiplies to
    tau(S - Z) regardless of deletion order.
    """
    if len(inst.ground) > HYPERCUBE_MAX_GROUND:
        raise ValueError(f"ground set of {len(inst.ground)} exceeds "
                         f"{HYPERCUBE_MAX_GROUND}")
    subsets = all_subsets(inst.ground)
    vertex_of = {s: subset_id(s) for s in subsets}
    never: tuple[tuple[str, Event], ...] = (("never", lambda point: False),)
    bundles = {elem: (inst.events[elem] or never) for elem in inst.ground}
    edges = []
    weights: dict[tuple[str, str], float] = {}
    event_edges: dict[str, list[str]] = {}
    for s in subsets:
        for elem in s:
            below = s - {elem}
            arc = (vertex_of[s], vertex_of[below])
            weights[arc] = tau[elem]
            for label, _ in bundles[elem]:
                eid = f"{elem}|{vertex_of[below]}|{label}"
                edges.append((eid, arc[0], arc[1]))
                event_edges.setdefault(f"{elem}|{label}", []).append(eid)
    graph = MultiDigraph.build(vertex_of.values(), edges)

    def a_of(point: SamplePoint) -> frozenset[str]:
        return frozenset(vertex_of[s] for s in subsets
                         if inst.member(point, s))

    def f_of(point: SamplePoint) -> frozenset[str]:
        hit: list[str] = []
        for elem in inst.ground:
            for label, event in bundles[elem]:
                if event(point):
                    hit.extend(event_edges[f"{elem}|{label}"])
        return frozenset(hit)

    model = CutModel(graph, a_of, f_of)
    return HypercubeReduction(graph, model, weights, vertex_of)


# ----------------------------------------------------- least tau solutions

def least_tau_solution(ground: Sequence[str], terms: Terms,
                       tol: float = TOL, iter_cap: int = ITER_CAP,
                       value_cap: float = VALUE_CAP) -> FixedPointResult:
    """Least tau with tau(i) = 1 + sum of p * tau(witness) per element.

    terms[i] lists (probability bound, witness set) pairs; each witness
    must contain i, and its weights multiply in its iteration order.  Same
    contract as the arc-weight iteration: increasing chain from the zero
    function, convergence to the least solution, divergence verdict past
    value_cap, IndeterminateError at the iteration cap.
    """
    known = set(ground)
    for elem in ground:
        for p, witness in terms.get(elem, ()):
            if elem not in witness:
                raise ValueError(f"witness {sorted(witness)} misses {elem!r}")
            if not known.issuperset(witness):
                other = next(x for x in witness if x not in known)
                raise ValueError(f"witness {sorted(witness)} holds "
                                 f"{other!r}, not a ground element")
            if p < 0.0:
                raise ValueError("negative probability bound")

    return kleene(lambda tau: apply_tau_operator(ground, terms, tau),
                  dict.fromkeys(ground, 0.0), tol, iter_cap, value_cap)


# ------------------------------------------- proper-coloring family builder

def hypergraph_coloring_family(hypergraph: Hypergraph, colors: int = 2,
                               *, witness_drop: bool = True
                               ) -> tuple[FamilyInstance, WitnessMap]:
    """Family of vertex subsets containing no monochromatic edge, under a
    uniform random coloring.

    Each vertex's bundle has one event per incident edge: that edge is
    monochromatic.  Default witnesses drop one other vertex from the edge
    (witness_drop=True); otherwise the whole edge is the witness.  An
    outcome's blockers are its monochromatic edges.
    """
    if colors < 2:
        raise ValueError("need at least two colors")
    space = ProductSpace.uniform(
        [(f"c_{v}", list(range(colors))) for v in hypergraph.vertices])

    edge_keys = []
    for edge in hypergraph.edges:
        first, *rest = (f"c_{v}" for v in edge)
        edge_keys.append((edge, first, rest))

    def member(point: SamplePoint, subset: Subset) -> bool:
        for edge, first, rest in edge_keys:
            if edge <= subset:
                color = point[first]
                if all(point[key] == color for key in rest):
                    return False
        return True

    def monochromatic(point: SamplePoint) -> list[Subset]:
        return [edge for edge, first, rest in edge_keys
                if all(point[key] == point[first] for key in rest)]

    def mono_event(edge: Subset) -> Event:
        members = sorted(edge)

        def event(point: SamplePoint) -> bool:
            first = point[f"c_{members[0]}"]
            return all(point[f"c_{v}"] == first for v in members[1:])

        return event

    events: dict[str, list[tuple[str, Event]]] = {v: [] for v in hypergraph.vertices}
    witnesses: dict[tuple[str, str], Subset] = {}
    for idx, edge in enumerate(hypergraph.edges):
        label = f"mono{idx}"
        ev = mono_event(edge)
        for v in edge:
            events[v].append((label, ev))
            if witness_drop and len(edge) >= 2:
                dropped = max(u for u in edge if u != v)
                witnesses[(v, label)] = frozenset(edge - {dropped})
            else:
                witnesses[(v, label)] = frozenset(edge)
    inst = FamilyInstance.build(hypergraph.vertices, space, member, events,
                                monochromatic)
    return inst, witnesses
