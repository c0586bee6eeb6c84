"""Max-flow against exhaustive min cuts, and the density flows built on it."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hyperspectra import hypergraph
from hyperspectra.hypergraph import (Hypergraph, is_strictly_balanced, max_density,
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
        net = FlowNetwork(n)
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
