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

    def add_edge(self, u: int, v: int, cap: int) -> None:
        # arc layout: [to, capacity, index of reverse arc in adj[to]]
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self.adj[u]:
                v, cap, _ = arc
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, pushed: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return pushed
        while it[u] < len(self.adj[u]):
            arc = self.adj[u][it[u]]
            v, cap, rev = arc
            if cap > 0 and level[v] == level[u] + 1:
                got = self._dfs(v, t, min(pushed, cap), level, it)
                if got > 0:
                    arc[1] -= got
                    self.adj[v][rev][1] += got
                    return got
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, 1 << 62, level, it)
                if pushed == 0:
                    break
                flow += pushed

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
