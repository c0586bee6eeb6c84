"""Dinic max-flow on small integer-capacity networks.

Only used as the engine behind the densest-subhypergraph queries, where
every capacity is an exact integer, so min-cut comparisons stay exact.
"""
from __future__ import annotations

from collections import deque


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]
        self.outflow = [0] * n  # net flow leaving each node

    @classmethod
    def densest_subset(cls, edges, n: int, a: int, b: int) -> "FlowNetwork":
        """The network of `hypergraph._density_flow` at q = a/b, greedy
        preflow included, built in one pass: the same arcs, in the same
        order and with the same flows, as one `add_edge` call per arc.
        Node 0 is the source, 1 the sink, 2 + i edge i and 2 + len(edges)
        + x vertex x."""
        vnode = 2 + len(edges)
        inf = b * len(edges) + a * n + 1
        net = cls(vnode + n)
        adj = net.adj
        source, sink = adj[0], adj[1]
        spare = [a] * n
        for i, e in enumerate(edges, 2):
            arcs = adj[i]
            left = b
            for x in e:
                give = left if left < spare[x] else spare[x]
                spare[x] -= give
                left -= give
                back = adj[vnode + x]
                arcs.append([vnode + x, inf - give, len(back)])
                back.append([i, give, len(arcs) - 1])
            source.append([i, left, len(arcs)])
            arcs.append([0, b - left, i - 2])
        for x, room in enumerate(spare):
            arcs = adj[vnode + x]
            arcs.append([1, room, x])
            sink.append([vnode + x, a - room, len(arcs) - 1])
        net.outflow[0] = a * n - sum(spare)
        net.outflow[1] = -net.outflow[0]
        return net

    def add_edge(self, u: int, v: int, cap: int, flow: int = 0) -> None:
        """Arc u -> v of capacity cap, already carrying `flow` (0 <= flow <=
        cap).  Preset flows must conserve flow at every node but the
        source and the sink; `max_flow` augments from there."""
        # arc layout: [to, residual capacity, index of reverse arc in adj[to]]
        self.adj[u].append([v, cap - flow, len(self.adj[v])])
        self.adj[v].append([u, flow, len(self.adj[u]) - 1])
        self.outflow[u] += flow
        self.outflow[v] -= flow

    def _bfs(self, s: int, t: int) -> list[int] | None:
        """Levels by residual distance from s, or None if t is out of
        reach.  Stops once t is labelled: every node nearer than t is
        labelled by then, and no shortest path uses the others."""
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            up = level[u] + 1
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = up
                    if v == t:
                        return level
                    queue.append(v)
        return None

    def _dfs(self, u: int, t: int, limit: int, level: list[int], it: list[int]) -> int:
        """Push up to `limit` units from u to t along arcs that go one level
        up, and return how much went.  it[u] is u's current arc: the arcs
        before it are saturated or lead nowhere in this phase, so a whole
        blocking flow takes one call from the source."""
        if u == t:
            return limit
        adj = self.adj
        arcs = adj[u]
        up = level[u] + 1
        pushed = 0
        i, end = it[u], len(arcs)
        while i < end:
            arc = arcs[i]
            v, cap, rev = arc
            if cap > 0 and level[v] == up:
                got = self._dfs(v, t, min(limit - pushed, cap), level, it)
                if got:
                    arc[1] = cap - got
                    adj[v][rev][1] += got
                    pushed += got
                    if pushed == limit:
                        break  # the arc may have room left: keep it current
            i += 1
        it[u] = i
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        """Augment to a maximum s -> t flow and return its value, flow
        preset by `add_edge` or `densest_subset` included."""
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                break
            limit = sum(arc[1] for arc in self.adj[s])
            total += self._dfs(s, t, limit, level, [0] * self.n)
        self.outflow[s] += total
        self.outflow[t] -= total
        return self.outflow[s]

    def reachable(self, start: int, backward: bool = False) -> set[int]:
        """Nodes reachable from start in the residual graph.

        From s that is the source side of a minimum cut.  With backward,
        the nodes from which start is reachable instead.
        """
        adj = self.adj
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, cap, rev in adj[u]:
                if backward:
                    cap = adj[v][rev][1]  # residual capacity of the arc v -> u
                if cap > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen
