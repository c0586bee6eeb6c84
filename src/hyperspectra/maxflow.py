"""The densest-subset flow (Goldberg 1984), stored on a hypergraph's incidence.

At q = a/b the network runs source -> edge (capacity b) -> each of its
vertices (unbounded) -> sink (capacity a).  A flow is `sent[i][j]`, the
units edge i sends its j-th vertex, with `owed[i]` what edge i still owes
the source and `spare[x]` the sink room left at vertex x.  Capacities are
exact integers, so min-cut comparisons stay exact.  `grow` adds vertices
and edges to a flow and augments only what they change.
"""
from __future__ import annotations


class FlowNetwork:
    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        # per edge its vertices, sent and owed; per vertex spare and (edge, position) pairs
        self.edges, self.sent, self.owed, self.spare, self.incident = [], [], [], [], []

    def copy(self) -> "FlowNetwork":
        net = FlowNetwork(self.a, self.b)
        net.edges, net.owed, net.spare = self.edges[:], self.owed[:], self.spare[:]
        net.sent = [row[:] for row in self.sent]
        net.incident = [pairs[:] for pairs in self.incident]
        return net

    def grow(self, n: int, edges) -> int:
        """Add vertices up to n and the given edges (vertex tuples), and
        return the value of a maximum flow.  Each new edge first sends its
        b units straight into its vertices' spare sink room, first come
        first served; `max_flow` augments the rest."""
        a, b, spare, incident = self.a, self.b, self.spare, self.incident
        spare += [a] * (n - len(spare))
        incident += [[] for _ in range(n - len(incident))]
        for i, e in enumerate(edges, len(self.edges)):
            row, left = [], b
            for j, x in enumerate(e):
                give = left if left < spare[x] else spare[x]
                spare[x] -= give
                left -= give
                row.append(give)
                incident[x].append((i, j))
            self.edges.append(e)
            self.sent.append(row)
            self.owed.append(left)
        return self.max_flow()

    def max_flow(self) -> int:
        """Augment to a maximum flow by Dinic's phases and return its
        value.  Each phase labels the residual graph by distance from the
        source, edge and vertex layers in turn, up to the first vertex
        layer with sink room, and pushes a whole blocking flow."""
        edges, sent, owed, spare, incident = (self.edges, self.sent, self.owed,
                                              self.spare, self.incident)
        while layer := [i for i, left in enumerate(owed) if left]:
            elevel, vlevel = [0 if left else -1 for left in owed], [-1] * len(spare)
            depth = 0
            while layer:
                depth += 1
                reached = []
                for i in layer:
                    for x in edges[i]:
                        if vlevel[x] < 0:
                            vlevel[x] = depth
                            reached.append(x)
                if any(spare[x] for x in reached):
                    break
                depth += 1
                layer = []
                for x in reached:
                    for i, j in incident[x]:
                        if sent[i][j] and elevel[i] < 0:
                            elevel[i] = depth
                            layer.append(i)
            else:
                break  # no vertex with sink room is in reach
            eit, vit = [0] * len(edges), [0] * len(spare)

            def from_edge(i: int, limit: int) -> int:
                # eit[i] is i's current arc: those before it lead nowhere in this phase
                e, row, up, pushed = edges[i], sent[i], elevel[i] + 1, 0
                for j in range(eit[i], len(e)):
                    x = e[j]
                    if vlevel[x] == up:
                        got = from_vertex(x, limit - pushed)
                        if got:
                            row[j] += got
                            pushed += got
                            if pushed == limit:
                                eit[i] = j  # the arc may have room left: keep it current
                                return pushed
                eit[i] = len(e)
                return pushed

            def from_vertex(x: int, limit: int) -> int:
                if vlevel[x] == depth:
                    give = limit if limit < spare[x] else spare[x]
                    spare[x] -= give
                    return give
                pairs, up, pushed = incident[x], vlevel[x] + 1, 0
                for k in range(vit[x], len(pairs)):
                    i, j = pairs[k]
                    have = sent[i][j]
                    if have and elevel[i] == up:
                        got = from_edge(i, limit - pushed if limit - pushed < have else have)
                        if got:
                            sent[i][j] = have - got
                            pushed += got
                            if pushed == limit:
                                vit[x] = k
                                return pushed
                vit[x] = len(pairs)
                return pushed

            for i, left in enumerate(owed):
                if left:
                    owed[i] = left - from_edge(i, left)
            del from_edge, from_vertex  # a cycle: free the phase's lists now, not at a gc pass
        return self.b * len(edges) - sum(owed)

    def _reach(self, etodo, vtodo, backward: bool = False) -> tuple[list[bool], list[bool]]:
        """Flags of the edge and vertex nodes reachable in the residual
        graph from the given ones; with backward, of those they are
        reachable from.  Forward an edge reaches all its vertices and a
        vertex the edges that send to it; backward the roles swap."""
        sent, edges, incident = self.sent, self.edges, self.incident
        eseen, vseen = [False] * len(edges), [False] * len(self.spare)
        for i in etodo:
            eseen[i] = True
        for x in vtodo:
            vseen[x] = True
        while etodo or vtodo:
            for i in etodo:
                for j, x in enumerate(edges[i]):
                    if not vseen[x] and (sent[i][j] or not backward):
                        vseen[x] = True
                        vtodo.append(x)
            etodo = []
            for x in vtodo:
                for i, j in incident[x]:
                    if not eseen[i] and (backward or sent[i][j]):
                        eseen[i] = True
                        etodo.append(i)
            vtodo = []
        return eseen, vseen

    def drains(self, vertices) -> bool:
        """True iff every given vertex reaches the sink in the residual graph."""
        vseen = self._reach([], [x for x, room in enumerate(self.spare) if room], backward=True)[1]
        return all(vseen[x] for x in vertices)

    def source_side(self) -> list[int]:
        """The vertices reachable from the source in the residual graph:
        after a maximum flow, those of the smallest minimum cut."""
        vseen = self._reach([i for i, left in enumerate(self.owed) if left], [])[1]
        return [x for x, seen in enumerate(vseen) if seen]

    def strongly_connected(self) -> bool:
        """True iff the edge and vertex nodes form one strongly connected
        piece of the residual graph, the source and the sink left out.
        Needs at least one edge."""
        return all(all(flags) for backward in (False, True)
                   for flags in self._reach([0], [], backward))
