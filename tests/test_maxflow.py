"""Max-flow against exhaustive min cuts, the incidence flow against the
arc-list reference, and the density routines built on it."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hyperspectra import hypergraph
from hyperspectra.hypergraph import (Hypergraph, density, is_strictly_balanced, max_density,
                                     max_density_below)
from hyperspectra.maxflow import FlowNetwork

import oracles


def random_network(rng):
    """At most 10 nodes; parallel and opposite arcs, arcs into the source
    and out of the sink, and zero capacities all occur."""
    n = rng.randint(2, 10)
    s, t = rng.sample(range(n), 2)
    arcs = [(*rng.sample(range(n), 2), rng.randint(0, 9)) for _ in range(rng.randint(0, 3 * n))]
    return n, s, t, arcs


def preset_flow(rng, n, s, t, arcs):
    """A feasible flow on `arcs`: random s-t paths plus random cycles, some
    of them through s or t, so flow is conserved everywhere but s and t."""
    flow = [0] * len(arcs)
    for _ in range(rng.randint(1, 6)):
        start = s if rng.random() < 0.6 else rng.randrange(n)
        goals = {start, t} if start == s else {start}
        path, seen, u = [], {start}, start
        while True:
            options = [i for i, (a, b, c) in enumerate(arcs)
                       if a == u and c > flow[i] and (b not in seen or b in goals)]
            if not options:
                break
            i = rng.choice(options)
            path.append(i)
            u = arcs[i][1]
            if u in goals:
                amount = rng.randint(1, min(arcs[j][2] - flow[j] for j in path))
                for j in path:
                    flow[j] += amount
                break
            seen.add(u)
    return flow


@pytest.mark.parametrize("preset", [False, True])
def test_max_flow_matches_brute_min_cut(preset):
    rng = random.Random(41 + preset)
    started = 0
    for _ in range(400):
        n, s, t, arcs = random_network(rng)
        flow = preset_flow(rng, n, s, t, arcs) if preset else [0] * len(arcs)
        net = oracles.ArcNetwork(n)
        for (u, v, cap), f in zip(arcs, flow):
            net.add_edge(u, v, cap, f)
        started += net.outflow[s] > 0
        value, side = oracles.brute_min_cut(n, arcs, s, t)
        assert net.max_flow(s, t) == value
        # the residual graph of any maximum flow gives the smallest minimum cut
        assert net.reachable(s) == side
        # a second call finds nothing left and reports the same flow
        assert net.max_flow(s, t) == value
    assert started >= 100 if preset else started == 0


def test_brute_min_cut_picks_smallest_side():
    # 0 -> 1 -> 2 -> 3 with two equal bottlenecks: cut after 0 or after 2
    arcs = [(0, 1, 1), (1, 2, 5), (2, 3, 1)]
    assert oracles.brute_min_cut(4, arcs, 0, 3) == (1, frozenset({0}))


def test_below_matches_bruteforce():
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        s = rng.choice((2, 3))
        g = oracles.random_hypergraph(rng, s, rng.randint(1, 9), rng.random())
        rho = oracles.brute_max_density(g)
        for q in (rho, rho + Fraction(1, 97), rho - Fraction(1, 97),
                  Fraction(rng.randint(0, 40), rng.randint(1, 12))):
            got = max_density_below(g, q)
            assert got == (rho < q), (g, q)
            verdicts[got] += 1
    assert min(verdicts.values()) >= 300, verdicts


def test_below_ties_in_a_proper_subset():
    # a loose 3-cycle (density 1/2) with a pendant edge: whole density 4/9
    g = Hypergraph(3, 8, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (5, 6, 7)])
    assert max_density(g)[0] == Fraction(1, 2)
    assert not max_density_below(g, Fraction(1, 2))
    assert max_density_below(g, Fraction(1, 2) + Fraction(1, 10**9))


def test_below_counts_before_any_flow(monkeypatch):
    """A whole hypergraph at or above q answers False from its edge and
    vertex counts; only below q is a flow network built."""
    class FlowBuilt(Exception):
        pass

    def no_flow(g, q):
        raise FlowBuilt

    monkeypatch.setattr(hypergraph, "_density_flow", no_flow)
    cycle = Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])  # e/v = 1/2
    assert not max_density_below(cycle, Fraction(1, 2))
    assert not max_density_below(cycle, Fraction(2, 5))
    with pytest.raises(FlowBuilt):
        max_density_below(cycle, Fraction(3, 5))


def test_below_empty_vertex_set():
    with pytest.raises(ValueError, match="empty vertex set"):
        max_density_below(Hypergraph(3, 0, []), Fraction(1))


def test_density_fingerprint():
    """Max density, its witness and strict balance on 3,000 seeded random
    hypergraphs.  The digest was recorded with the plain Dinic flow,
    before the greedy start: a maximum flow leaves the smallest minimum
    cut and the residual closure structure unchanged, whichever it is."""
    rng = random.Random(20261018)
    rows = []
    for _ in range(3000):
        s = rng.choice((2, 3, 4))
        g = oracles.random_hypergraph(rng, s, rng.randint(1, 10), rng.random() ** 2)
        rho, witness = max_density(g)
        rows.append([str(rho), list(witness), is_strictly_balanced(g) if g.e else None])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "189ee3fee6b7e4a4fd80f07578c701a8b985f82eba3efecc5982ad2bcbf12efb"


def incidence_answers(net: FlowNetwork, n: int):
    """The drain set, the source side and strong connectivity of a
    maximum incidence flow, in the form of `oracles.density_answers`."""
    drained = {x for x in range(n) if net.drains([x])}
    return drained, net.source_side(), bool(net.edges) and net.strongly_connected()


def random_q(rng, g):
    """q from g's whole density, from a random subset's density, or at random:
    the first two make ties, where a flow saturates exactly."""
    w = rng.sample(range(g.n), rng.randint(1, g.n))
    return rng.choice((density(g), Fraction(g.edges_inside(w), len(w)),
                       Fraction(rng.randint(1, 30), rng.randint(1, 12))))


def test_incidence_flow_matches_brute_min_cut():
    """Every densest-subset network drawn here has at most 10 nodes; the
    incidence flow's value and its smallest source side, the vertices it
    names plus the edges inside them, match an exhaustive cut scan."""
    rng = random.Random(31)
    seen = set()
    for _ in range(1500):
        s = rng.choice((2, 3))
        n = rng.randint(1, 7)
        g = oracles.random_hypergraph(rng, s, n, rng.random())
        if 2 + g.e + g.n > 10:
            continue
        q = random_q(rng, g)
        a, b = q.numerator, q.denominator
        vnode = 2 + g.e
        arcs = [(0, 2 + i, b) for i in range(g.e)]
        arcs += [(2 + i, vnode + x, b * g.e + a * g.n + 1) for i, e in enumerate(g.edges) for x in e]
        arcs += [(vnode + x, 1, a) for x in range(g.n)]
        value, side = oracles.brute_min_cut(2 + g.e + g.n, arcs, 0, 1)
        net = FlowNetwork(a, b)
        assert net.grow(g.n, g.edges) == value, (g, q)
        w = net.source_side()
        want = {0} | {2 + i for i, e in enumerate(g.edges) if set(e) <= set(w)}
        assert side == want | {vnode + x for x in w}, (g, q)
        seen.add((g.e > 0, value < b * g.e))
    assert seen == {(False, False), (True, False), (True, True)}


def test_incidence_flow_matches_reference_network():
    """On hypergraphs beyond exhaustive cuts, the incidence flow gives the
    arc-list reference's value, drain set and source side, and, where it
    is read (q = e/v and no shortfall; otherwise paths through the sink
    decide it), its strong connectivity.  A flow grown in random chunks
    of vertices and edges gives the answers of one built from scratch,
    and growing a copy leaves the original's answers as they were."""
    rng = random.Random(47)
    linked = {True: 0, False: 0}
    for _ in range(400):
        s = rng.choice((2, 3, 4))
        g = oracles.random_hypergraph(rng, s, rng.randint(1, 14), rng.random() ** 2)
        if g.n <= 7 and rng.random() < 0.5:
            # two disjoint copies: balanced at e/v, never strictly
            g = Hypergraph(s, 2 * g.n, [*g.edges, *(tuple(x + g.n for x in e) for e in g.edges)])
        q = random_q(rng, g)
        a, b = q.numerator, q.denominator
        value, drained, side, connected = oracles.density_answers(g, q)
        read = g.e and q == density(g) and value == b * g.e
        whole = FlowNetwork(a, b)
        assert whole.grow(g.n, g.edges) == value, (g, q)
        got = incidence_answers(whole, g.n)
        assert got[:2] == (drained, side), (g, q)
        if read:
            assert got[2] == connected, (g, q)
            linked[connected] += 1
        # the same flow grown chunk by chunk, the edges in a shuffled order
        edges = list(g.edges)
        rng.shuffle(edges)
        grown, done, prefix = FlowNetwork(a, b), 0, None
        while done < len(edges) or len(grown.spare) < g.n:
            chunk = edges[done: done + rng.randint(0, 4)]
            done += len(chunk)
            top = max((x + 1 for e in chunk for x in e), default=len(grown.spare))
            n = rng.randint(max(top, len(grown.spare)), g.n)
            if done < len(edges) and prefix is None and rng.random() < 0.5:
                prefix = (grown.copy(), n, chunk)
            flow = grown.grow(n, chunk)
        assert flow == value, (g, q)
        assert incidence_answers(grown, g.n)[:2 + bool(read)] == got[:2 + bool(read)], (g, q)
        if prefix is not None:
            # a copy grows on its own: the original keeps its answers
            net, n, chunk = prefix
            before = incidence_answers(net, len(net.spare))
            net.copy().grow(n, chunk)
            assert incidence_answers(net, len(net.spare)) == before
            sub = Hypergraph(s, len(net.spare), net.edges)
            assert before[:2] == oracles.density_answers(sub, q)[1:3], (g, q)
    assert min(linked.values()) >= 10, linked


def test_one_pass_network_matches_add_edge_build():
    """The incidence flow gives the answers of the arc-list reference
    network, one `add_edge` call per arc; q is drawn both at random and
    from subset densities, so the greedy placement meets ties.  The
    density answers on those networks match exhaustive scans."""
    rng = random.Random(29)
    for _ in range(300):
        s = rng.choice((2, 3, 4))
        g = oracles.random_hypergraph(rng, s, rng.randint(1, 9), rng.random())
        rho = oracles.brute_max_density(g)
        w = rng.sample(range(g.n), rng.randint(1, g.n))
        qs = (rho, Fraction(g.edges_inside(w), len(w)),
              Fraction(rng.randint(0, 30), rng.randint(1, 12)))
        for q in qs:
            value, drained, side, _ = oracles.density_answers(g, q)
            net = FlowNetwork(q.numerator, q.denominator)
            assert net.grow(g.n, g.edges) == value, (g, q)
            assert incidence_answers(net, g.n)[:2] == (drained, side), (g, q)
            assert max_density_below(g, q) == (rho < q)
        assert max_density(g)[0] == rho
        if g.e:
            assert is_strictly_balanced(g) == oracles.brute_is_strictly_balanced(g)
