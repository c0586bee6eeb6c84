"""Every enumeration cap goes through `errors.check_cap`: each site refuses
past its default and reads HYPERSPECTRA_BUDGET when no cap is given."""

import pytest

from hyperspectra.bounds import build_dense_witness, dense_witness_size, root_symmetry_counts
from hyperspectra.cyclic import m_decomposition
from hyperspectra.errors import (CapExceeded, DEFAULT_DECOMP_CAP, DEFAULT_ENUM_CAP,
                                 DEFAULT_EXTENSION_CAP, DEFAULT_PAIR_CAP)
from hyperspectra.extensions import RootedPair, pair_max_density, strict_extensions
from hyperspectra.hypergraph import Hypergraph, automorphism_count, count_embeddings


def loose_path(n):
    """3-uniform loose path through vertices 0..n-1 (n odd; else n-1 is isolated)."""
    return Hypergraph(3, n, [(i, i + 1, i + 2) for i in range(0, n - 2, 2)])


def loose_cycle(vs):
    """3-uniform loose cycle on the vertex list vs (even length)."""
    return [(vs[i], vs[i + 1], vs[(i + 2) % len(vs)]) for i in range(0, len(vs), 2)]


P13 = loose_path(13)
P11 = loose_path(11)
# a loose 5-cycle and a loose 6-cycle sharing vertex 0: a family member at m = 6
CYCLES21 = Hypergraph(3, 21, loose_cycle(list(range(10))) + loose_cycle([0, *range(10, 21)]))

# (call, vertices it enumerates, default cap); each call is cheap once the cap allows it
SITES = {
    "automorphism_count": (lambda: automorphism_count(P13), 13, DEFAULT_ENUM_CAP),
    "count_embeddings": (lambda: count_embeddings(P13, P13), 13, DEFAULT_ENUM_CAP),
    "root_symmetry_counts": (lambda: root_symmetry_counts(RootedPair(P13, 1)), 13,
                             DEFAULT_ENUM_CAP),
    "intermediate_sets": (lambda: pair_max_density(RootedPair(loose_path(18), 1)),
                          17, DEFAULT_PAIR_CAP),
    "strict_search": (lambda: strict_extensions(P11, (0, 1), RootedPair(P11, 2)),
                      9, DEFAULT_EXTENSION_CAP),
    "m_decomposition": (lambda: m_decomposition(CYCLES21, 6), 21, DEFAULT_DECOMP_CAP),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_cap_site(site, monkeypatch):
    call, size, default = SITES[site]
    assert size == default + 1
    with pytest.raises(CapExceeded, match=f"cap is {default}$"):
        call()
    monkeypatch.setenv("HYPERSPECTRA_BUDGET", str(size))
    call()


def test_env_budget_skips_the_witness_guard(monkeypatch):
    # the witness's default guard is 10^4 vertices, not an enumeration cap
    monkeypatch.setenv("HYPERSPECTRA_BUDGET", "20")
    assert dense_witness_size(3, 5)[0] == 111
    assert build_dense_witness(3, 5).n == 111
