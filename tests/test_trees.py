"""Enumeration, canonical forms, statistics, and restriction of trees."""

import gc
import itertools
import math
from collections import Counter

import pytest

import gregtrees.trees as trees_module
from gregtrees.polys import (
    FAMILIES,
    Poly,
    _family_recurrence,
    _row_step,
    census_family,
    gen_F,
    gen_G,
    gen_H,
    shift,
)
from gregtrees.suite import _restriction_expected
from gregtrees.trees import (
    VARIANTS,
    GregTree,
    Variant,
    _canonical,
    _census,
    _child_classes,
    _constrained_prufer,
    _greg_configs,
    _imp_by_root,
    _imp_polynomials,
    _normalize_edges,
    _prufer_encode,
    _prufer_pairs,
    _prufer_sequences,
    degree_filtered_count,
    enumerate_cayley,
    enumerate_greg,
    imp,
    imp_census,
    imp_polynomial,
    prufer_census,
    prufer_decode,
    restrict,
    restriction_census,
    restriction_fibers,
    u_bound,
    unl_polynomial,
)

ONE_PLUS_X = Poly((1, 1))


# ── Pruefer and Cayley enumeration ───────────────────────────────────────

def test_prufer_decode_basics():
    assert prufer_decode((), 1) == ()
    assert prufer_decode((), 2) == ((1, 2),)
    assert prufer_decode((1, 1), 4) == ((1, 2), (1, 3), (1, 4))
    assert prufer_decode((2, 3), 4) == ((1, 2), (2, 3), (3, 4))
    with pytest.raises(ValueError):
        prufer_decode((1,), 4)
    for bad in ((0, 0), (-1, 2), (5, 5), (1, 5)):
        with pytest.raises(ValueError, match="out of range"):
            prufer_decode(bad, 4)


def _quadratic_prufer_decode(seq, k):
    """Reference decode: scan for the smallest leaf at every step."""
    if k == 1:
        return ()
    degree = [1] * (k + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for w in range(1, k + 1):
            if degree[w] == 1:
                edges.append((min(v, w), max(v, w)))
                degree[w] -= 1
                degree[v] -= 1
                break
    a, b = (w for w in range(1, k + 1) if degree[w] == 1)
    edges.append((a, b))
    return tuple(sorted(edges))


def test_prufer_decode_matches_quadratic_reference():
    for k in range(1, 8):
        seqs = list(itertools.product(range(1, k + 1), repeat=max(k - 2, 0)))
        assert list(_prufer_sequences(k)) == seqs
        for seq in seqs:
            edges = prufer_decode(seq, k)
            assert edges == _quadratic_prufer_decode(seq, k), (seq, k)
            assert tuple(_prufer_encode(edges, k)) == seq, (seq, k)


def test_cayley_counts():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_cayley(n)) == max(1, n ** (n - 2))
        assert sum(1 for _ in enumerate_cayley(n, rooted=True)) == n ** (n - 1)


def test_cayley_enumeration_is_deterministic_and_distinct():
    trees = list(enumerate_cayley(4))
    assert len(set(trees)) == len(trees) == 16
    assert trees == list(enumerate_cayley(4))
    assert trees[0].edges == ((1, 2), (1, 3), (1, 4))  # sequence (1, 1)


def _constrained_cayley(n, rooted):
    """enumerate_cayley as first written: decode the unconstrained
    `_constrained_prufer` sequences."""
    if n == 1:
        yield GregTree(n=1, u=0, edges=(), roots=(1,) if rooted else ())
        return
    for seq in _constrained_prufer(n, 0, 0, 0):
        edges = _normalize_edges(_prufer_pairs(seq, n))
        if rooted:
            for r in range(1, n + 1):
                yield GregTree(n=n, u=0, edges=edges, roots=(r,))
        else:
            yield GregTree(n=n, u=0, edges=edges)


@pytest.mark.parametrize("rooted", [False, True])
def test_enumerate_cayley_matches_constrained_prufer_order(rooted):
    for n in range(1, 8):
        pairs = itertools.zip_longest(enumerate_cayley(n, rooted), _constrained_cayley(n, rooted))
        for i, (got, want) in enumerate(pairs):
            assert got == want, (n, i)


def test_cayley_build_validation():
    with pytest.raises(ValueError):
        GregTree.build(3, 0, [(1, 2)])  # too few edges
    with pytest.raises(ValueError):
        GregTree.build(3, 0, [(1, 2), (1, 2)])  # duplicate
    with pytest.raises(ValueError):
        GregTree.build(4, 0, [(1, 2), (3, 4), (1, 2)])  # disconnected + dup
    with pytest.raises(ValueError):
        GregTree.build(3, 0, [(1, 2), (2, 5)])  # vertex out of range
    with pytest.raises(ValueError):
        GregTree.build(2, 0, [(1, 2)], roots=(3,))


@pytest.mark.parametrize("rooted", [False, True])
def test_enumerate_cayley_yields_canonical_values(rooted):
    """Each tree equals its built canonical form, so it compares and
    hashes like the trees `restrict` and `GregTree.build` return."""
    for n in range(1, 7):
        for t in enumerate_cayley(n, rooted):
            assert t == GregTree.build(n, 0, t.edges, roots=t.roots), t
            assert t.u == 0 and len(t.roots) == rooted, t
            t.validate("rooted" if t.roots else "unrooted")


# ── Greg tree censuses ───────────────────────────────────────────────────

def test_size3_trees_are_three_paths_and_one_star():
    trees = list(enumerate_greg(3, "unrooted"))
    assert len(trees) == 4
    edge_sets = [t.edges for t in trees if t.u == 0]
    assert sorted(edge_sets) == [((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))]
    (star,) = [t for t in trees if t.u == 1]
    assert star.edges == ((1, 4), (2, 4), (3, 4))
    assert unl_polynomial(3, "unrooted") == Poly((3, 1))  # x + 3


def test_size2_rooted_trees():
    trees = list(enumerate_greg(2, "rooted"))
    assert len(trees) == 3
    assert {(t.u, t.roots) for t in trees} == {(0, (1,)), (0, (2,)), (1, (3,))}
    unl_root = [t for t in trees if t.u == 1][0]
    assert unl_root.edges == ((1, 3), (2, 3))  # degree-2 unlabeled root in the middle


@pytest.mark.parametrize("variant, expect", [
    ("unrooted", lambda n, F, G, H: H[n - 1]),
    ("rooted", lambda n, F, G, H: G[n - 1]),
    ("relaxed", lambda n, F, G, H: ONE_PLUS_X * G[n - 1]),
    ("birooted", lambda n, F, G, H: ONE_PLUS_X ** 3 * F[n - 1]),
])
def test_unl_census_matches_polynomials(variant, expect):
    n_max = 4 if variant == "birooted" else 6
    F, G, H = gen_F(n_max), gen_G(n_max), gen_H(n_max)
    for n in range(1, n_max + 1):
        assert unl_polynomial(n, variant) == expect(n, F, G, H), (variant, n)


def test_single_label_counts():
    assert [t.u for t in enumerate_greg(1, "unrooted")] == [0]
    assert [t.u for t in enumerate_greg(1, "rooted")] == [0]
    # relaxed: bare vertex, or an unlabeled degree-1 root attached to it
    assert sorted(t.u for t in enumerate_greg(1, "relaxed")) == [0, 1]
    # bi-rooted: coefficients of (1+x)^3 F_1 = 1 + 3x + 3x^2 + x^3
    census = Counter(t.u for t in enumerate_greg(1, "birooted"))
    assert census == {0: 1, 1: 3, 2: 3, 3: 1}


def test_birooted_roots_may_coincide():
    pair_kinds = Counter(t.roots[0] == t.roots[1] for t in enumerate_greg(1, "birooted"))
    assert pair_kinds[True] >= 2  # (1,1) and one unlabeled self-pair at least


def _u_bound_by_cases(n, variant):
    """The per-variant formulas the table-derived bound replaced."""
    if variant == "unrooted":
        return max(n - 2, 0)
    if variant == "rooted":
        return n - 1
    if variant == "relaxed":
        return n
    if variant == "birooted":
        return n + 2
    raise AssertionError(variant)


def test_u_bound_matches_per_variant_formulas():
    for variant in VARIANTS:
        for n in range(1, 51):
            assert u_bound(n, variant) == _u_bound_by_cases(n, variant), (variant, n)
    with pytest.raises(ValueError, match="unknown variant"):
        u_bound(3, "bogus")


def test_u_bound_rejects_no_labels():
    for variant in VARIANTS:
        for n in (0, -1):
            with pytest.raises(ValueError, match="labeled"):
                u_bound(n, variant)


def test_unl_polynomial_rejects_bad_input_before_walking(monkeypatch):
    def walk(*args):
        raise AssertionError("walk started")
    monkeypatch.setattr(trees_module, "enumerate_greg", walk)
    monkeypatch.setattr(trees_module, "_split_firsts", walk)
    for census in (unl_polynomial, prufer_census):
        for variant in VARIANTS:
            with pytest.raises(ValueError, match="labeled"):
                census(0, variant)
        with pytest.raises(ValueError, match="unknown variant"):
            census(2, "bogus")


def test_variant_table():
    assert list(VARIANTS) == ["unrooted", "rooted", "relaxed", "birooted"]
    assert [(v.roots, v.root_degree) for v in VARIANTS.values()] == \
        [(0, 3), (1, 2), (1, 1), (2, 1)]
    assert all(isinstance(v, Variant) and v.name == name for name, v in VARIANTS.items())


def test_every_variant_has_exactly_one_census_family():
    counted = [v for f in FAMILIES.values() for v, _ in f.census]
    assert sorted(counted) == sorted(VARIANTS)


def test_u_bound_is_sharp():
    for variant in VARIANTS:
        for n in (1, 2, 3):
            census = unl_polynomial(n, variant)
            assert census.degree == u_bound(n, variant), (variant, n)
            assert degree_filtered_count(n, u_bound(n, variant) + 1, variant) == 0


def test_degree_filtered_counts_are_factorial_multiples():
    for variant in VARIANTS:
        for n in (1, 2, 3):
            census = Counter(t.u for t in enumerate_greg(n, variant))
            for u in range(u_bound(n, variant) + 1):
                assert degree_filtered_count(n, u, variant) == \
                    math.factorial(u) * census.get(u, 0), (variant, n, u)


def _branched_greg_configs(n, u, rules):
    """`_greg_configs` as it stood with one hand-written root-choice branch
    per slot count and short-vertex count, kept as the oracle."""
    k = n + u
    slots = rules.roots
    if k == 1:
        yield (), (1,) * slots
        return
    everyone = range(1, k + 1)
    for seq in _constrained_prufer(n, u, slots, max(rules.root_degree - 1, 0)):
        pairs = _prufer_pairs(seq, k)
        if slots == 0:
            yield pairs, ()
            continue
        short = [v for v in range(n + 1, k + 1) if seq.count(v) < 2]
        if slots == 1:
            for r in short or everyone:
                yield pairs, (r,)
        elif not short:
            for r1 in everyone:
                for r2 in everyone:
                    yield pairs, (r1, r2)
        elif len(short) == 1:
            (s,) = short
            for r1 in everyone:
                if r1 == s:
                    for r2 in everyone:
                        yield pairs, (s, r2)
                else:
                    yield pairs, (r1, s)
        else:
            s1, s2 = short
            yield pairs, (s1, s2)
            yield pairs, (s2, s1)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_slot_rule_root_choices_match_branched_oracle(variant):
    """Root tuples read off the slot rule come out yield for yield, order
    included, as the per-case branches produced them."""
    rules = VARIANTS[variant]
    for n in range(1, (3 if variant == "birooted" else 5) + 1):
        for u in range(u_bound(n, variant) + 1):
            got = [(tuple(p), r) for p, r in _greg_configs(n, u, rules)]
            want = [(tuple(p), r) for p, r in _branched_greg_configs(n, u, rules)]
            assert got == want, (variant, n, u)


def test_one_vertex_tree_has_no_edges():
    assert _prufer_pairs((), 1) == []
    assert prufer_decode((), 1) == ()
    assert list(enumerate_cayley(1)) == [GregTree(n=1, u=0, edges=())]
    assert list(enumerate_cayley(1, rooted=True)) == [GregTree(n=1, u=0, edges=(), roots=(1,))]
    assert list(_constrained_prufer(1, 0, 0, 0)) == [()]
    for rules in VARIANTS.values():
        assert list(_greg_configs(1, 0, rules)) == [([], (1,) * rules.roots)]
    listed = {v: [(t.u, t.edges, t.roots) for t in enumerate_greg(1, v)] for v in VARIANTS}
    assert listed == {
        "unrooted": [(0, (), ())],
        "rooted": [(0, (), (1,))],
        "relaxed": [(0, (), (1,)), (1, ((1, 2),), (2,))],
        "birooted": [(0, (), (1, 1)), (1, ((1, 2),), (1, 2)), (1, ((1, 2),), (2, 1)),
                     (1, ((1, 2),), (2, 2)), (2, ((1, 2), (1, 3)), (2, 3)),
                     (2, ((1, 2), (2, 3)), (2, 3)), (2, ((1, 2), (2, 3)), (3, 2)),
                     (3, ((1, 2), (2, 3), (2, 4)), (3, 4))],
    }


def _greg_candidates(n, u, variant):
    """Every degree-valid configuration, put into canonical form."""
    ids = set(range(1, n + u + 1))
    for edges, roots in _greg_configs(n, u, VARIANTS[variant]):
        yield _canonical(n, ids, edges, roots)


SMALL_CASES = [("unrooted", 5), ("rooted", 4), ("relaxed", 4), ("birooted", 3)]


@pytest.mark.parametrize("variant, n_max", SMALL_CASES)
def test_split_key_dedup_matches_canonical_dedup(variant, n_max):
    """enumerate_greg keys on split systems; canonicalizing every candidate
    and keeping first occurrences must give the same trees in the same order."""
    for n in range(1, n_max + 1):
        want, seen = [], set()
        for u in range(u_bound(n, variant) + 1):
            for t in _greg_candidates(n, u, variant):
                if t not in seen:
                    seen.add(t)
                    want.append(t)
        assert list(enumerate_greg(n, variant)) == want, (variant, n)


# ── label insertion ──────────────────────────────────────────────────────
#
# The walk below is the witness of the move rule `_child_classes`, which
# is all `unl_polynomial` runs.  A tree in walk form is (edges, roots,
# unlabeled): labels keep their ids 1..n, unlabeled vertices have negative
# ids listed in `unlabeled`, and edges are unordered pairs in no particular
# order.  Inserting label n+1 renumbers nothing.
#
# The parent of a tree on n+1 labels: unlabel n+1, prune the unlabeled
# leaves no slot allows (a pruned vertex hands its slots to its
# neighbour), then smooth the unlabeled degree-2 vertices no slot
# protects.  `_children` lists the inverse moves, one child per move and
# place.  Each child's parent is unique, and a Greg tree has no nontrivial
# automorphism fixing its labels and slots (every leaf is labeled or in a
# slot), so distinct places give distinct children and the walk meets
# every tree exactly once.

def _children(n, edges, roots, unlabeled, rules):
    """Walk-form trees on n+1 labels whose parent is the given tree on n.

    Moves (5) and (6) apply when an unlabeled vertex in the (single) root
    slot needs degree 2 or more: the parent map then prunes n+1 as a leaf
    in the slot, or the degree-2 unlabeled root it hangs from, handing the
    slot on."""
    m = n + 1
    fresh = min(unlabeled, default=0) - 1
    grown = unlabeled + (fresh,)
    # (1) n+1 as a leaf on any vertex
    out = [(edges + ((w, m),), roots, unlabeled) for w in (*range(1, m), *unlabeled)]
    for i, (a, b) in enumerate(edges):
        rest = edges[:i] + edges[i + 1:]
        # (2) n+1 subdivides the edge
        out.append((rest + ((a, m), (m, b)), roots, unlabeled))
        # (3) n+1 hangs from a new unlabeled vertex that subdivides it
        out.append((rest + ((a, fresh), (fresh, b), (fresh, m)), roots, grown))
    # (4) n+1 labels an unlabeled vertex, which keeps its slots
    for x in unlabeled:
        out.append((tuple((m if a == x else a, m if b == x else b) for a, b in edges),
                    tuple(m if r == x else r for r in roots),
                    tuple(y for y in unlabeled if y != x)))
    if rules.roots and rules.root_degree >= 2:
        (r,) = roots
        # (5) a new unlabeled degree-2 root joined to the old root and n+1
        out.append((edges + ((r, fresh), (fresh, m)), (fresh,), grown))
        # (6) n+1 as a leaf on the root, taking the slot
        out.append((edges + ((r, m),), (m,), unlabeled))
    return out


def _inserted(n, rules):
    """Every Greg tree of the variant on n labels, in walk form, once each:
    depth first from the n = 1 trees of `enumerate_greg`, so only one
    children list per level is held at a time."""

    def walk_form(t):
        # label 1 keeps its id, unlabeled ids 2..u+1 become -1..-u
        def vid(v):
            return 1 if v == 1 else 1 - v
        return (tuple((vid(a), vid(b)) for a, b in t.edges), tuple(map(vid, t.roots)),
                tuple(range(-1, -t.u - 1, -1)))

    stack = [(1, walk_form(t)) for t in enumerate_greg(1, rules.name)]
    while stack:
        k, tree = stack.pop()
        if k == n:
            yield tree
        else:
            stack += [(k + 1, child) for child in _children(k, *tree, rules)]


def _walk_to_greg(n, tree):
    """A walk-form tree (negative unlabeled ids) as a `GregTree`."""
    edges, roots, unlabeled = tree
    ids = {x: n + 1 + i for i, x in enumerate(unlabeled)}
    ids.update((v, v) for v in range(1, n + 1))
    return GregTree.build(n, len(unlabeled), [(ids[a], ids[b]) for a, b in edges],
                          roots=[ids[r] for r in roots])


def _insertion_parent(m, tree, rules):
    """Unlabel m, prune the unlabeled leaves no slot allows (a pruned
    vertex hands its slots to its neighbour), then smooth the unlabeled
    degree-2 vertices no slot protects."""
    edges, roots, unlabeled = tree
    v = min(unlabeled, default=0) - 1
    adj = {}
    for a, b in edges:
        a, b = (v if a == m else a), (v if b == m else b)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    roots = [v if r == m else r for r in roots]
    unl = set(unlabeled) | {v}
    leaves = [x for x in unl if len(adj[x]) == 1]
    while leaves:
        x = leaves.pop()
        if x in roots and rules.root_degree <= 1:
            continue
        (w,) = adj.pop(x)
        adj[w].remove(x)
        unl.remove(x)
        roots = [w if r == x else r for r in roots]
        if w in unl and len(adj[w]) == 1:
            leaves.append(w)
    for x in [x for x in unl if len(adj[x]) == 2 and x not in roots]:
        a, b = adj.pop(x)
        adj[a] ^= {x, b}
        adj[b] ^= {x, a}
        unl.remove(x)
    return (tuple((a, b) for a in adj for b in adj[a] if a < b), tuple(roots),
            tuple(sorted(unl, reverse=True)))


INSERTION_CASES = [("unrooted", 5), ("rooted", 5), ("relaxed", 5), ("birooted", 3)]


@pytest.mark.parametrize("variant, n_max", INSERTION_CASES)
def test_insertion_walk_lists_every_greg_tree_once(variant, n_max):
    rules = VARIANTS[variant]
    for n in range(1, n_max + 1):
        built = [_walk_to_greg(n, t) for t in _inserted(n, rules)]
        assert len(set(built)) == len(built), (variant, n)
        assert set(built) == set(enumerate_greg(n, variant)), (variant, n)
        for t in built:
            t.validate(variant)


@pytest.mark.parametrize("variant, n_max", INSERTION_CASES)
def test_insertion_parent_map_inverts_every_move(variant, n_max):
    rules = VARIANTS[variant]
    for n in range(1, n_max):
        for tree in _inserted(n, rules):
            parent = _walk_to_greg(n, tree)
            for child in _children(n, *tree, rules):
                assert _walk_to_greg(n, _insertion_parent(n + 1, child, rules)) == parent, \
                    (variant, tree, child)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_child_classes_count_the_children_by_their_u(variant):
    """The class-size rule against the children `_children` builds, for
    every parent the walk reaches."""
    rules = VARIANTS[variant]
    for n in range(1, (2 if variant == "birooted" else 4) + 1):
        for parent in _inserted(n, rules):
            built = Counter(len(c[2]) - len(parent[2]) for c in _children(n, *parent, rules))
            assert Counter(_child_classes(n, len(parent[2]), rules)) == built, (variant, parent)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_unl_polynomial_matches_the_full_insertion_walk(variant):
    """The census counted from the parents on n - 1 labels, against the
    census that builds every tree on n labels (the former body)."""
    rules = VARIANTS[variant]
    for n in range(1, (4 if variant == "birooted" else 6) + 1):
        want = _census(Counter(len(unlabeled) for _, _, unlabeled in _inserted(n, rules)))
        assert unl_polynomial(n, variant) == want, (variant, n)


# ── the move rule is the row recurrence ─────────────────────────────────
#
# The census of each variant is (1+x)^a X_n, with (variant, a) read from
# FAMILIES[..].census.  (1+x)^a X_n follows the row recurrence of X_n with
# c replaced by c' = c - a, and the move rule is that recurrence with
# c' = slot - 1, slot = 1 exactly when moves (5) and (6) apply.

def _slot(rules):
    """1 when an unlabeled vertex in the variant's single root slot needs
    degree 2 or more, read off its VARIANTS entry; else 0."""
    return int(rules.roots == 1 and rules.root_degree >= 2)


def test_census_offsets_are_slot_minus_one():
    entries = [(family.c, variant, a) for family in FAMILIES.values()
               for variant, a in family.census]
    assert len(entries) == len(VARIANTS)
    for c, variant, a in entries:
        assert c - a == _slot(VARIANTS[variant]) - 1, (variant, c, a)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_child_classes_are_the_row_recurrence(variant):
    """The class sizes at (k, u) against the three coefficients one step
    of `_rows` gives x^u at row k, with offset c' = slot - 1."""
    rules = VARIANTS[variant]
    lin, mult = _family_recurrence(_slot(rules) - 1, shifted=False)
    for k in range(1, 60):
        for u in range(60):
            step = _row_step((0,) * u + (1,), *lin(k), mult)
            want = {du: step[u + du] for du in (-1, 0, 1) if u + du >= 0}
            got = _child_classes(k, u, rules)
            assert {du: m for du, m in got.items() if u + du >= 0} == want, (variant, k, u)


def test_seed_census_is_one_plus_x_to_the_a():
    for family in FAMILIES.values():
        for variant, a in family.census:
            assert unl_polynomial(1, variant) == ONE_PLUS_X ** a, variant


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_unl_polynomial_is_the_family_row_to_n_40(variant):
    family, a = census_family(variant)
    rows = {"F": gen_F, "G": gen_G, "H": gen_H}[family.name](40)
    for n in range(1, 41):
        census = unl_polynomial(n, variant)
        assert census == ONE_PLUS_X ** a * rows[n - 1], (variant, n)
        assert census.degree == u_bound(n, variant), (variant, n)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_prufer_census_matches_the_canonical_listing(variant):
    """The Pruefer census counts, without canonical forms, the trees
    `enumerate_greg` lists (the former body)."""
    for n in range(1, (2 if variant == "birooted" else 4) + 1):
        want = _census(Counter(t.u for t in enumerate_greg(n, variant)))
        assert prufer_census(n, variant) == want, (variant, n)


def test_degree_filtered_count_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown variant"):
        degree_filtered_count(2, 0, "bogus")
    with pytest.raises(ValueError):
        degree_filtered_count(0, 1, "unrooted")
    with pytest.raises(ValueError):
        degree_filtered_count(3, -1, "relaxed")


def test_enumeration_validates_and_is_distinct():
    for variant in VARIANTS:
        trees = list(enumerate_greg(3, variant))
        assert len(set(trees)) == len(trees)
        for t in trees:
            t.validate(variant)


def test_validate_rejects_wrong_shape():
    t = GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(3,))
    t.validate("rooted")
    with pytest.raises(ValueError):
        t.validate("unrooted")   # carries a root
    unrooted = GregTree.build(2, 1, [(1, 3), (2, 3)])
    with pytest.raises(ValueError):
        unrooted.validate("unrooted")  # unlabeled degree 2, no root exemption
    with pytest.raises(ValueError):
        unrooted.validate("rooted")    # no root at all


def test_validate_checks_the_root_slot_count():
    rooted = GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(3,))
    birooted = GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(3, 3))
    birooted.validate("birooted")
    with pytest.raises(ValueError, match="needs 2 root slot"):
        rooted.validate("birooted")
    for variant in ("rooted", "relaxed"):
        with pytest.raises(ValueError, match="needs 1 root slot"):
            birooted.validate(variant)
    with pytest.raises(ValueError, match="unknown variant"):
        rooted.validate("bogus")


def test_validate_reads_the_root_degree():
    leaf_root = GregTree.build(1, 1, [(1, 2)], roots=(2,))
    leaf_root.validate("relaxed")
    with pytest.raises(ValueError, match="degree 1 < 2"):
        leaf_root.validate("rooted")
    GregTree.build(1, 1, [(1, 2)], roots=(2, 1)).validate("birooted")


# ── canonical form ───────────────────────────────────────────────────────

def _two_pass_canonical_form(n, ids, edges, root, roots):
    """The canonical form as first written: encode every subtree, then walk
    the tree again, visiting children in the order of their encodings."""
    adj = {v: [] for v in ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    mark = {v: 0 for v in ids}
    if root is not None:
        mark[root] |= 1
    if roots is not None:
        mark[roots[0]] |= 1
        mark[roots[1]] |= 2
    enc = {}

    def encode(v, parent):
        subs = sorted(encode(w, v) for w in adj[v] if w != parent)
        color = (0, v, mark[v]) if v <= n else (1, 0, mark[v])
        enc[v] = (color, tuple(subs))
        return enc[v]

    encode(1, None)
    new_id = {}
    counter = [n]

    def assign(v, parent):
        if v <= n:
            new_id[v] = v
        else:
            counter[0] += 1
            new_id[v] = counter[0]
        for w in sorted((w for w in adj[v] if w != parent), key=lambda w: enc[w]):
            assign(w, v)

    assign(1, None)
    new_edges = _normalize_edges((new_id[a], new_id[b]) for a, b in edges)
    new_root = new_id[root] if root is not None else None
    new_roots = (new_id[roots[0]], new_id[roots[1]]) if roots is not None else None
    return new_edges, new_root, new_roots


def _two_pass_slots(n, ids, edges, slots):
    """Adapter: the two-pass form on a root-slot tuple, which it takes and
    gives as a root (one slot) or a root pair (two slots)."""
    root = slots[0] if len(slots) == 1 else None
    pair = slots if len(slots) == 2 else None
    new_edges, new_root, new_roots = _two_pass_canonical_form(n, ids, edges, root, pair)
    return new_edges, new_roots or ((new_root,) if new_root is not None else ())


@pytest.mark.parametrize("variant, n_max", SMALL_CASES)
def test_canonical_form_matches_two_pass_form(variant, n_max):
    for n in range(1, n_max + 1):
        for u in range(u_bound(n, variant) + 1):
            ids = set(range(1, n + u + 1))
            for edges, roots in _greg_configs(n, u, VARIANTS[variant]):
                want_edges, want_roots = _two_pass_slots(n, ids, edges, roots)
                assert _canonical(n, ids, edges, roots) == \
                    GregTree(n=n, u=u, edges=want_edges, roots=want_roots), (edges, roots)


def test_build_leaves_no_reference_cycles():
    # garbage from a build must be freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            GregTree.build(3, 1, [(1, 4), (2, 4), (3, 4)], roots=(1,))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _permuted_builds(t):
    """GregTree.build on every relabeling of t's unlabeled ids, with the
    edges reversed and listed backwards."""
    ids = list(range(t.n + 1, t.n + t.u + 1))
    for perm in itertools.permutations(ids):
        mapping = {v: v for v in range(1, t.n + 1)}
        mapping.update(zip(ids, perm))
        edges = [(mapping[b], mapping[a]) for a, b in reversed(t.edges)]
        yield GregTree.build(t.n, t.u, edges, roots=[mapping[r] for r in t.roots])


def test_build_is_invariant_under_unlabeled_permutation():
    """Relabeling the unlabeled ids must not change the built value."""
    for variant, n_max in (("unrooted", 4), ("rooted", 3), ("relaxed", 3), ("birooted", 2)):
        for n in range(1, n_max + 1):
            for t in enumerate_greg(n, variant):
                for built in _permuted_builds(t):
                    assert built == t, (variant, t)


def test_build_keeps_coincident_birooted_roots():
    trees = [t for t in enumerate_greg(2, "birooted") if t.roots[0] == t.roots[1]]
    assert {t.roots[0] > t.n for t in trees} == {False, True}
    for t in trees:
        assert all(built == t and built.roots[0] == built.roots[1]
                   for built in _permuted_builds(t))
    # the same unlabeled vertex as both roots, under either id
    a = GregTree.build(2, 2, [(1, 3), (3, 4), (2, 4)], roots=(3, 3))
    b = GregTree.build(2, 2, [(1, 4), (4, 3), (2, 3)], roots=(4, 4))
    assert a == b and a.roots == (3, 3)
    assert a != GregTree.build(2, 2, [(1, 3), (3, 4), (2, 4)], roots=(3, 4))

def test_build_separates_distinct_structures():
    a = GregTree.build(4, 1, [(1, 5), (2, 5), (3, 5), (3, 4)])
    b = GregTree.build(4, 1, [(1, 5), (2, 5), (4, 5), (3, 4)])
    assert a != b


def test_build_normalizes_unlabeled_ids_freshly():
    # same shape with scrambled edge orientation
    x = GregTree.build(2, 1, [(3, 1), (2, 3)])
    y = GregTree.build(2, 1, [(1, 3), (3, 2)])
    assert x == y
    assert x.edges == ((1, 3), (2, 3))
    # two interior unlabeled vertices, ids swapped between builds
    a = GregTree.build(4, 2, [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
    b = GregTree.build(4, 2, [(1, 6), (2, 6), (6, 5), (3, 5), (4, 5)])
    assert a == b


def test_greg_build_validation():
    with pytest.raises(ValueError):
        GregTree.build(2, 1, [(1, 2)])  # edge count off
    with pytest.raises(ValueError, match="at most 2 root slots"):
        GregTree.build(2, 0, [(1, 2)], roots=(1, 2, 1))
    with pytest.raises(ValueError, match="root 5 is not a vertex"):
        GregTree.build(2, 0, [(1, 2)], roots=(5,))
    with pytest.raises(ValueError, match="root 3 is not a vertex"):
        GregTree.build(2, 0, [(1, 2)], roots=(1, 3))


def test_build_keeps_one_entry_per_root_slot():
    assert GregTree.build(2, 0, [(1, 2)]).roots == ()
    assert GregTree.build(2, 0, [(1, 2)], roots=(2,)).roots == (2,)
    assert GregTree.build(2, 0, [(1, 2)], roots=[2, 1]).roots == (2, 1)
    # slot i of the input is slot i of the canonical form
    t = GregTree.build(2, 2, [(1, 4), (4, 3), (2, 3)], roots=(2, 4))
    assert t.roots == (2, 3)
    assert GregTree.build(2, 2, [(1, 4), (4, 3), (2, 3)], roots=(4, 2)).roots == (3, 2)


# ── improper edges ───────────────────────────────────────────────────────

def test_imp_requires_root_and_counts_inversions():
    chain = GregTree.build(3, 0, [(1, 2), (2, 3)], roots=(3,))
    # 3 -> 2 covers subtree {2, 1} with min 1 < 3; 2 -> 1 has 2 > 1
    assert imp(chain) == 2
    assert imp(GregTree.build(3, 0, [(1, 2), (2, 3)], roots=(1,))) == 0
    with pytest.raises(ValueError, match="imp needs"):
        imp(GregTree.build(2, 0, [(1, 2)]))


@pytest.mark.parametrize("tree", [
    GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(3,)),
    GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(1,)),
    GregTree.build(2, 0, [(1, 2)], roots=(1, 2)),
], ids=["unlabeled-root", "unlabeled-inner", "birooted"])
def test_imp_rejects_all_but_rooted_cayley_trees(tree):
    with pytest.raises(ValueError, match="imp needs"):
        imp(tree)


def _imp_from_root(t, root):
    """imp as first written: one walk from `root`, subtree minima bottom up."""
    adj = {v: [] for v in range(1, t.n + 1)}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {root: 0}
    order = [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    subtree_min = {v: v for v in order}
    for v in reversed(order):
        p = parent[v]
        if p:
            subtree_min[p] = min(subtree_min[p], subtree_min[v])
    return sum(1 for v in order if parent[v] and parent[v] > subtree_min[v])


def test_rerooted_imp_matches_imp_at_every_root():
    for n in range(1, 7):
        for t in enumerate_cayley(n):
            want = [_imp_from_root(t, r) for r in range(1, n + 1)]
            assert _imp_by_root(t) == want, t
            assert [imp(GregTree(n=n, u=0, edges=t.edges, roots=(r,)))
                    for r in range(1, n + 1)] == want, t


def test_imp_census_small():
    assert imp_census(2, True) == (1, 1)
    assert imp_census(3, True) == (2, 4, 3)
    assert imp_census(3, False) == (2, 1)


@pytest.mark.parametrize("rooted, family", [(True, gen_G), (False, gen_H)])
def test_imp_polynomial_equals_shifted_family(rooted, family):
    rows = family(7)
    for n in range(1, 8):
        assert imp_polynomial(n, rooted) == shift(rows[n - 1], -1), n


def test_imp_censuses_share_one_walk(monkeypatch):
    """The rooted and the unrooted census come from one pass over the
    unrooted Cayley trees, and each is still its shifted family row."""
    calls = []
    real = trees_module._prufer_sequences

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(trees_module, "_prufer_sequences", counted)
    _imp_polynomials.cache_clear()
    try:
        rooted, unrooted = imp_polynomial(5, True), imp_polynomial(5, False)
        assert calls == [5]
        assert imp_polynomial(5, rooted=1) == rooted and imp_polynomial(5, rooted=0) == unrooted
        assert rooted == shift(gen_G(5)[4], -1) and unrooted == shift(gen_H(5)[4], -1)
    finally:
        _imp_polynomials.cache_clear()


def test_imp_walk_matches_oracle_census():
    """The walk's censuses against `_imp_from_root` summed over the listed
    Cayley trees: every root for the rooted census, root 1 for the other."""
    for n in range(1, 7):
        rooted, unrooted = Counter(), Counter()
        for t in enumerate_cayley(n):
            rooted.update(_imp_from_root(t, r) for r in range(1, n + 1))
            unrooted[_imp_from_root(t, 1)] += 1
        want = [Poly([c[j] for j in range(n)]) for c in (unrooted, rooted)]
        assert list(_imp_polynomials(n)) == want, n


@pytest.mark.parametrize("n", [0, -1])
def test_imp_census_rejects_no_vertices_before_walking(monkeypatch, n):
    def walk(*args):
        raise AssertionError("walk started")
    monkeypatch.setattr(trees_module, "_prufer_sequences", walk)
    for rooted in (False, True):
        with pytest.raises(ValueError, match="need at least one vertex"):
            imp_polynomial(n, rooted)
        with pytest.raises(ValueError, match="need at least one vertex"):
            imp_census(n, rooted)


# ── restriction ──────────────────────────────────────────────────────────

def test_restrict_ten_vertex_example():
    big = GregTree.build(
        10, 0, [(7, 1), (7, 6), (7, 2), (2, 4), (4, 9), (7, 5), (5, 8), (8, 10), (8, 3)])
    got = restrict(big, 4)
    assert got == GregTree.build(4, 1, [(5, 1), (5, 2), (5, 3), (2, 4)])


def test_restrict_collapses_to_cayley():
    t = GregTree.build(5, 0, [(1, 2), (2, 3), (3, 4), (4, 5)])
    # unlabel 4, 5: the tail smooths and prunes away
    assert restrict(t, 3) == GregTree.build(3, 0, [(1, 2), (2, 3)])


def test_restrict_unlabeled_root_degree2_survives():
    t = GregTree.build(3, 0, [(1, 3), (2, 3)], roots=(3,))
    assert restrict(t, 2) == GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(3,))


def test_restrict_prunes_leaf_root_with_transfer():
    chain = GregTree.build(5, 0, [(1, 2), (2, 3), (3, 4), (4, 5)], roots=(5,))
    assert restrict(chain, 2) == GregTree.build(2, 0, [(1, 2)], roots=(2,))


def test_restrict_transfer_can_iterate_onto_labels():
    star = GregTree.build(4, 0, [(1, 2), (2, 3), (3, 4)], roots=(4,))
    assert restrict(star, 1) == GregTree.build(1, 0, (), roots=(1,))


def _rescanning_restrict(x, n):
    """restrict as first written: rescan the vertices in id order after
    every single smooth or prune step."""
    adj = {v: set() for v in range(1, x.n + 1)}
    for a, b in x.edges:
        adj[a].add(b)
        adj[b].add(a)
    root = x.roots[0] if x.roots else None
    while True:
        action = None
        for v in sorted(adj):
            if v <= n:
                continue
            d = len(adj[v])
            if v == root:
                if d == 1:
                    action = ("prune-root", v)
                    break
            elif d == 2:
                action = ("smooth", v)
                break
            elif d <= 1:
                action = ("prune", v)
                break
        if action is None:
            break
        kind, v = action
        if kind == "smooth":
            a, b = adj[v]
            adj[a].discard(v)
            adj[b].discard(v)
            adj[a].add(b)
            adj[b].add(a)
            del adj[v]
        else:
            if kind == "prune-root":
                (root,) = adj[v]
            for w in adj[v]:
                adj[w].discard(v)
            del adj[v]
    survivors = sorted(v for v in adj if v > n)
    rename = {v: v for v in adj if v <= n}
    rename.update({v: n + 1 + i for i, v in enumerate(survivors)})
    edges = {(rename[a], rename[b]) for a in adj for b in adj[a] if a < b}
    # adapter: the one root, if any, becomes the one root slot
    return GregTree.build(n, len(survivors), edges,
                          roots=(rename[root],) if root is not None else ())


@pytest.mark.parametrize("rooted, m_max", [(False, 7), (True, 6)])
def test_restrict_matches_rescanning_restrict(rooted, m_max):
    """Each restriction, and each fiber count of `restriction_fibers`."""
    for m in range(2, m_max + 1):
        fibers = {n: Counter() for n in range(1, m)}
        for x in enumerate_cayley(m, rooted=rooted):
            for n, fiber in fibers.items():
                want = _rescanning_restrict(x, n)
                assert restrict(x, n) == want, (x, n)
                fiber[want] += 1
        for n, fiber in fibers.items():
            assert restriction_fibers(m, n, rooted) == fiber, (m, n)


@pytest.mark.parametrize("m, n", [(4, 4), (4, 0), (1, 1)], ids=["n=m", "n=0", "m=1"])
def test_restriction_fibers_reject_bad_bounds_before_walking(monkeypatch, m, n):
    def walk(*args):
        raise AssertionError("walk started")
    monkeypatch.setattr(trees_module, "_cayley_pairs", walk)
    for rooted in (False, True):
        with pytest.raises(ValueError, match="1 <= n < m"):
            restriction_fibers(m, n, rooted)


def test_restriction_fibers_are_fresh_counters():
    want = restriction_fibers(4, 2, True)
    edge = GregTree.build(2, 0, [(1, 2)], roots=(1,))
    got = restriction_fibers(4, 2, True)
    got[edge] += 7
    got.clear()
    assert restriction_fibers(4, 2, True) == want
    assert restriction_census(edge, 4)[2] == want[edge]


def test_restrict_rejects_bad_index():
    t = GregTree.build(3, 0, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        restrict(t, 3)
    with pytest.raises(ValueError):
        restrict(t, 0)


@pytest.mark.parametrize("tree", [
    GregTree.build(3, 1, [(1, 4), (2, 4), (3, 4)]),
    GregTree.build(3, 1, [(1, 4), (2, 4), (3, 4)], roots=(4,)),
    GregTree.build(3, 0, [(1, 2), (2, 3)], roots=(1, 3)),
], ids=["unlabeled", "unlabeled-rooted", "birooted"])
def test_restrict_rejects_all_but_cayley_trees(tree):
    with pytest.raises(ValueError, match="restrict needs"):
        restrict(tree, 2)


def test_restriction_census_frozen_values():
    edge = GregTree.build(2, 0, [(1, 2)])
    assert restriction_census(edge, 4) == [1, 3, 16]
    assert restriction_census(edge, 2) == [1]  # m_max = n: the identity entry alone
    star = GregTree.build(3, 1, [(4, 1), (4, 2), (4, 3)])
    assert restriction_census(star, 4) == [0, 1]
    assert restriction_census(star, 3) == [0]
    rooted_mid = GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(3,))
    assert restriction_census(rooted_mid, 3) == [0, 1]


@pytest.mark.parametrize("m_max", [1, 0, -5])
def test_restriction_census_rejects_bound_below_n(m_max):
    edge = GregTree.build(2, 0, [(1, 2)])
    with pytest.raises(ValueError, match="m_max"):
        restriction_census(edge, m_max)


def test_restriction_census_rejects_relaxed_only_leaf_root():
    # an unlabeled leaf root passes the relaxed rules, not the rooted ones
    t = GregTree.build(1, 1, [(1, 2)], roots=(2,))
    t.validate("relaxed")
    with pytest.raises(ValueError, match="degree"):
        restriction_census(t, 4)


def test_restriction_census_rejects_unlabeled_degree_two():
    t = GregTree.build(2, 1, [(1, 3), (2, 3)])
    with pytest.raises(ValueError, match="degree"):
        restriction_census(t, 3)


def test_restriction_census_rejects_birooted():
    t = GregTree.build(1, 0, (), roots=(1, 1))
    with pytest.raises(ValueError):
        restriction_census(t, 3)


def test_rooted_restriction_fibers_cover_everything():
    # every rooted tree of size 3 restricts to exactly one class over n=2
    fibers = Counter(restrict(x, 2) for x in enumerate_cayley(3, rooted=True))
    assert sum(fibers.values()) == 9
    assert fibers[GregTree.build(2, 0, [(1, 2)], roots=(1,))] == 4
    assert fibers[GregTree.build(2, 0, [(1, 2)], roots=(2,))] == 4
    assert fibers[GregTree.build(2, 1, [(1, 3), (2, 3)], roots=(3,))] == 1


def test_rooted_root_cells_match_prediction_past_the_oracles():
    """n = 3 rooted at m = 7, past the rescanning oracle (m <= 6) and the
    suite's default reach (m <= n + 3): each fiber is the series'
    prediction, and the fibers cover all 7**6 rooted Cayley trees."""
    trees = list(enumerate_greg(3, "rooted"))
    for t in trees:
        assert restriction_census(t, 7)[-1] == _restriction_expected("rooted", 3, t.u, 7), t
    fibers = restriction_fibers(7, 3, True)
    assert set(fibers) == set(trees)
    assert sum(fibers.values()) == 7 ** 6 == 117_649


# ── serialization ────────────────────────────────────────────────────────

def test_tree_text_round_trip():
    for t in enumerate_greg(3, "rooted"):
        assert GregTree.from_text(t.to_text()) == t
    for variant, rules in VARIANTS.items():
        for t in enumerate_greg(2, variant):
            slots = t.to_text().splitlines()[0].split()[2]
            assert slots.count(",") == max(rules.roots - 1, 0), slots
            assert GregTree.from_text(t.to_text()) == t
    unrooted = GregTree.build(3, 1, [(1, 4), (2, 4), (3, 4)])
    assert unrooted.to_text() == "3 1 -\n1 4\n2 4\n3 4"
    birooted = GregTree.build(1, 1, [(1, 2)], roots=(1, 2))
    assert birooted.to_text().splitlines()[0] == "1 1 1,2"
    assert GregTree.from_text(birooted.to_text()) == birooted


def test_tree_json_round_trip():
    for variant in VARIANTS:
        for t in enumerate_greg(2, variant):
            assert GregTree.from_json_dict(t.to_json_dict()) == t


@pytest.mark.parametrize("text", ["", "\n  \n", "2 0\n1 2", "2 0 1 2\n1 2",
                                  "2 0 x\n1 2", "2 0 1,\n1 2", "2 0 1,2,1\n1 2",
                                  "2 0 -\n1 2 3"])
def test_from_text_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        GregTree.from_text(text)


@pytest.mark.parametrize("data", [
    {"n": 2},
    {"u": 0, "root": None, "edges": [[1, 2]]},
    {"n": 2, "u": 0, "root": 1},
    {"n": 2, "u": 0, "root": 1, "roots": [1, 2], "edges": [[1, 2]]},
    {"n": 2, "u": 0, "roots": [1], "edges": [[1, 2]]},
    {"n": 2, "u": 0, "roots": [1, 2, 1], "edges": [[1, 2]]},
], ids=["edges-and-u-missing", "n-missing", "edges-missing", "root-and-roots",
        "short-pair", "long-pair"])
def test_from_json_dict_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        GregTree.from_json_dict(data)


def test_from_json_dict_reads_null_roots_as_absent():
    edge = GregTree.build(2, 0, [(1, 2)])
    assert GregTree.from_json_dict({"n": 2, "u": 0, "root": None, "roots": None,
                                    "edges": [[1, 2]]}) == edge
    assert GregTree.from_json_dict({"n": 2, "u": 0, "edges": [[1, 2]]}) == edge


def test_cayley_json_shape():
    t = GregTree.build(3, 0, [(1, 2), (2, 3)], roots=(2,))
    assert t.to_json_dict() == {"n": 3, "u": 0, "root": 2, "edges": [[1, 2], [2, 3]]}
