"""Slow, independent recomputations of the workloads' answers.

They share no code with the package: hosts arrive as plain edge lists
and every answer is rebuilt from first principles, so a defect in the
package's matcher or counters shows as a disagreement here.
"""
from __future__ import annotations

from itertools import combinations, permutations


def contains(host_edges, pattern_edges) -> bool:
    """Whether some injective vertex map sends every pattern edge onto a host edge.

    Pattern edges are placed one at a time, each next to one already
    placed where possible, trying every host edge and every bijection
    onto it that agrees with the vertices mapped so far and sends no
    vertex onto one of smaller degree.
    """
    host = _peel({frozenset(e) for e in host_edges}, pattern_edges)
    pdeg = _degrees(pattern_edges)
    incident: dict[int, list[frozenset]] = {}
    for f in host:
        for x in f:
            incident.setdefault(x, []).append(f)
    left = [tuple(e) for e in pattern_edges]
    order, seen = [], set()
    while left:
        pick = next((e for e in left if seen & set(e)), left[0])
        left.remove(pick)
        order.append(pick)
        seen |= set(pick)
    image: dict[int, int] = {}

    def place(i: int) -> bool:
        if i == len(order):
            return True
        pe = order[i]
        mapped = [x for x in pe if x in image]
        free = [x for x in pe if x not in image]
        pool = incident.get(image[mapped[0]], []) if mapped else host
        used = set(image.values())
        for f in pool:
            if any(image[x] not in f for x in mapped):
                continue
            rest = [w for w in f if w not in {image[x] for x in mapped}]
            if len(rest) != len(free) or used & set(rest):
                continue
            for perm in permutations(rest):
                if any(len(incident[y]) < pdeg[x] for x, y in zip(free, perm)):
                    continue
                image.update(zip(free, perm))
                if place(i + 1):
                    return True
                for x in free:
                    del image[x]
        return False

    return place(0)


def _degrees(edges) -> dict[int, int]:
    deg: dict[int, int] = {}
    for e in edges:
        for x in e:
            deg[x] = deg.get(x, 0) + 1
    return deg


def _peel(host: set, pattern_edges) -> set:
    """Drop host edges that no copy of the pattern can use.

    A pattern vertex in two or more pattern edges lands on a host vertex
    in two or more host edges, so a host edge with more vertices of host
    degree <= 1 than any pattern edge has pattern-degree-1 vertices is in
    no copy; dropping one can expose more, so repeat until none is left.
    """
    pdeg = _degrees(pattern_edges)
    k = max(sum(pdeg[x] == 1 for x in e) for e in pattern_edges)
    host = set(host)
    while True:
        deg = _degrees(host)
        drop = {f for f in host if sum(deg[x] == 1 for x in f) > k}
        if not drop:
            return host
        host -= drop


def has_loose_two_path(host_edges) -> bool:
    """Two host edges that share exactly one vertex."""
    sets = [set(e) for e in host_edges]
    return any(len(a & b) == 1 for a, b in combinations(sets, 2))


def triangles_and_four_cycles(n: int, edges) -> tuple[int, int]:
    """Copies of K3 and C4 in a graph, from common-neighbour counts."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    tri = sum(len(nbrs[u] & nbrs[v]) for u, v in edges) // 3
    codegree: dict[tuple[int, int], int] = {}
    for v in range(n):
        for pair in combinations(sorted(nbrs[v]), 2):
            codegree[pair] = codegree.get(pair, 0) + 1
    # each 4-cycle has two diagonals, each a pair with two common neighbours
    c4 = sum(k * (k - 1) // 2 for k in codegree.values()) // 2
    return tri, c4
