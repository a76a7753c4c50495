from __future__ import annotations

import itertools
import random

from c4free.canon import _Canonizer, canonical_form, canonical_labeling
from c4free.graph import Graph, make_friendship, make_snk, make_star
from canon_reference import _Canonizer as _ReferenceCanonizer
from canon_reference import _mask, reference_canon
from conftest import random_graph, walk_from_k1
from enumeration_reference import reference_extend_by_edges, reference_extend_fixed_order


def test_p3_relabelings():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph.from_edges(3, [(1, 0), (0, 2)])
    assert canonical_form(a) == canonical_form(b)


def test_k3_differs_from_p3():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert canonical_form(k3) != canonical_form(p3)


def test_eleven_classes_on_four_vertices():
    pairs = list(itertools.combinations(range(4), 2))
    forms = {
        canonical_form(
            Graph.from_edges(4, [e for i, e in enumerate(pairs) if bits >> i & 1])
        )
        for bits in range(64)
    }
    assert len(forms) == 11


def test_invariance_under_permutation(rng):
    # 500 random graphs, 100 random relabelings spread over them
    graphs = [random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.8)) for _ in range(500)]
    for g in graphs:
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(tuple(perm))) == base


def test_labeling_realizes_form():
    g = make_snk(9, 1)
    perm = canonical_labeling(g)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_high_symmetry_graphs_fast(monkeypatch):
    # stars and matchings have huge automorphism groups; the twin and orbit
    # pruning must keep these cheap, counted in refinements: the star's
    # leaves are twins, so each level branches once
    calls = []
    refine = _Canonizer._refine

    def counted(self, *args):
        calls.append(1)
        return refine(self, *args)

    monkeypatch.setattr(_Canonizer, "_refine", counted)
    for n in (17, 33):
        calls.clear()
        canonical_form(make_star(n))
        assert len(calls) == n - 1
    assert canonical_form(make_star(17)) == canonical_form(make_star(17).relabel(tuple(range(16, -1, -1))))
    shuffled = list(range(33))
    random.Random(3).shuffle(shuffled)
    assert canonical_form(make_star(33)) == canonical_form(make_star(33).relabel(tuple(shuffled)))
    matching = Graph.from_edges(20, [(2 * i, 2 * i + 1) for i in range(10)])
    shuffled = list(range(20))
    random.Random(7).shuffle(shuffled)
    assert canonical_form(matching) == canonical_form(matching.relabel(tuple(shuffled)))


def test_distinguishes_same_degree_sequence():
    # C6 vs two triangles: both 2-regular on 6 vertices
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    tri2 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(c6) != canonical_form(tri2)


def test_friendship_vs_snk():
    assert canonical_form(make_friendship(2)) == canonical_form(make_snk(5, 2))
    assert canonical_form(make_friendship(2)) != canonical_form(make_snk(5, 1))


def _assert_matches_reference(g):
    assert (canonical_form(g), canonical_labeling(g)) == reference_canon(g)


def test_matches_reference_on_snk_and_matchings():
    # the extremal graphs carry the twin cells; the bytes and the labeling
    # must be those of the search without shortcuts
    rng = random.Random(12)
    for n in range(1, 17):
        for k in range((n - 1) // 2 + 1):
            g = make_snk(n, k)
            _assert_matches_reference(g)
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                _assert_matches_reference(g.relabel(tuple(perm)))
    for n in range(2, 21, 2):
        _assert_matches_reference(Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))


def _cycle_unions(n, smallest=3):
    """Every multiset of cycle lengths >= smallest, in ascending order,
    summing to n."""
    if n == 0:
        yield []
    for a in range(smallest, n + 1):
        for rest in _cycle_unions(n - a, a):
            yield [a] + rest


def test_matches_reference_on_cycle_unions():
    # 2-regular graphs are one cell at the root; a C_4 puts a twin pair in
    # it that the other vertices of the cell are not twins of
    rng = random.Random(13)
    for n in range(3, 13):
        for lengths in _cycle_unions(n):
            edges, start = [], 0
            for a in lengths:
                edges += [(start + i, start + (i + 1) % a) for i in range(a)]
                start += a
            g = Graph.from_edges(n, edges)
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                _assert_matches_reference(g.relabel(tuple(perm)))


def _assert_automorphisms(g):
    # each automorphism handed back maps rows onto rows
    found = []
    form = canonical_form(g, found)
    assert form == canonical_form(g)
    for p in found:
        assert sorted(p) == list(range(g.n))
        assert g.relabel(p) == g
    return found


def _enumeration_children(m):
    """Every child the edge augmentation of enumerate --m m makes without
    its parent-side prefilter (enumeration_reference): the graphs the
    canonizer meets in enumeration, and the graphs of the same sizes that
    the prefilter drops before they are built."""
    out = []
    for _, g, autos in walk_from_k1(1, m + 1, m - 1):
        made = reference_extend_fixed_order(g, 1, autos) + reference_extend_by_edges(g, m + 1, autos)
        out += [child for child, _ in made]
    return out


def test_automorphisms_of_enumerated_graphs():
    seen = _enumeration_children(9)
    assert len(seen) > 2000
    assert sum(len(_assert_automorphisms(g)) for g in seen) > len(seen)


def test_automorphisms_of_random_graphs(rng):
    for _ in range(300):
        _assert_automorphisms(random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.8)))


def test_automorphisms_include_twin_swaps():
    # the star's leaves are never branched on, so no leaf generator moves
    # them; the twin swaps make them one orbit
    found = _assert_automorphisms(make_star(9))
    orbit = {1}
    for _ in range(9):
        orbit |= {p[v] for p in found for v in orbit}
    assert orbit == set(range(1, 9))


def _transpositions(found):
    moved = [tuple(v for v, w in enumerate(p) if v != w) for p in found]
    return [pair for pair in moved if len(pair) == 2]


def test_twin_swaps_cut_to_a_spanning_forest():
    # K_{1,14}: its 14 leaves are twins, swapped in 91 pairs; 13
    # transpositions, a tree on the leaves, generate the same group
    found = _assert_automorphisms(make_star(15))
    swaps = _transpositions(found)
    assert len(found) == len(swaps) == 13
    assert {v for pair in swaps for v in pair} == set(range(1, 15))


def test_transpositions_form_a_forest(rng):
    # no transposition handed back closes a cycle of the ones before it
    seen = 0
    for _ in range(300):
        found = _assert_automorphisms(random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.8)))
        root = list(range(12))
        for a, b in _transpositions(found):
            seen += 1
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            assert a != b
            root[a] = b
    assert seen


def test_matches_reference_on_enumerated_graphs():
    # m = 9: with orbit pruning, m = 8 makes too few graphs for the bound
    seen = _enumeration_children(9)
    assert len(seen) > 1000
    for g in seen:
        _assert_matches_reference(g)


def test_matches_reference_on_random_graphs(rng):
    for _ in range(300):
        _assert_matches_reference(random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.8)))


def test_child_refined_from_its_two_new_cells(rng):
    # the cells of an equitable parent split nothing, so refining the child
    # from {v} and rest alone gives the partition the full queue gives
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.8))
        c = _Canonizer(g)
        part = c._refine([(1 << g.n) - 1])
        target = next((i for i, cell in enumerate(part) if cell & (cell - 1)), None)
        if target is None:
            continue
        cell = part[target]
        for v in (v for v in range(g.n) if cell >> v & 1):
            rest = cell ^ 1 << v
            child = part[:target] + [1 << v, rest] + part[target + 1:]
            assert c._refine(child, [1 << v, rest]) == c._refine(child)


def _assert_refines_as_reference(g, partition, queue=None):
    # the reference refiner takes list cells and always the full queue
    got = _Canonizer(g)._refine(list(partition), queue)
    cells = [[v for v in range(g.n) if c >> v & 1] for c in partition]
    assert got == [_mask(c) for c in _ReferenceCanonizer(g)._refine(cells)]


def _random_ordered_partition(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    return [_mask(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]


def test_refine_matches_reference_on_random_partitions(rng):
    for _ in range(500):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        _assert_refines_as_reference(g, [(1 << n) - 1])
        _assert_refines_as_reference(g, _random_ordered_partition(rng, n))


def test_refine_matches_reference_in_enumeration(monkeypatch):
    # every refinement the search makes for the graphs enumeration makes:
    # each unit partition, and each child with the queue of its two new
    # cells
    children = _enumeration_children(8)
    calls = []
    refine = _Canonizer._refine

    def capture(self, partition, queue=None):
        calls.append((self.n, self.rows, list(partition), None if queue is None else list(queue)))
        return refine(self, partition, queue)

    monkeypatch.setattr(_Canonizer, "_refine", capture)
    for g in children:
        canonical_form(g)
    monkeypatch.setattr(_Canonizer, "_refine", refine)
    assert sum(queue is None for *_, queue in calls) > 500
    assert sum(queue is not None for *_, queue in calls) > 1000
    for n, rows, partition, queue in calls:
        _assert_refines_as_reference(Graph._unchecked(n, rows), partition, queue)


def test_refine_returns_a_discrete_partition_unchanged(rng):
    for _ in range(100):
        n = rng.randint(1, 20)
        c = _Canonizer(random_graph(rng, n, rng.uniform(0.1, 0.8)))
        order = list(range(n))
        rng.shuffle(order)
        partition = [1 << v for v in order]
        assert c._refine(list(partition), [partition[0], (1 << n) - 1]) == partition
