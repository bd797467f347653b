"""Cayley and Greg trees: enumeration, statistics, restriction.

A Greg tree has n labeled vertices (ids 1..n) and u unlabeled vertices
(ids n+1..n+u, interchangeable), with every unlabeled vertex of degree at
least 3.  Root variants relax the degree rule at the root; ``VARIANTS``
states each variant's rules once, as its number of root slots and the
least degree of an unlabeled vertex in a slot:

* ``unrooted``  no root;
* ``rooted``    one root, an unlabeled root may have degree 2;
* ``relaxed``   one root, an unlabeled root may have degree 1 or 2;
* ``birooted``  an ordered pair of roots (coincidence allowed), each
                exempt from the degree rule.

A tree's ``roots`` tuple has its variant's number of root slots: entry i
is the vertex in slot i.  A Cayley (labeled) tree is a Greg tree with
u = 0 and roots () or (r,); ``imp`` and ``restrict`` take such trees.

Census polynomials by number of unlabeled vertices: H_n (unrooted),
G_n (rooted), (1+x) G_n (relaxed), (1+x)^3 F_n (bi-rooted).

Two Greg trees are equal when some relabeling of the unlabeled ids maps
one edge set (and root slots) onto the other; ``GregTree.build``,
``enumerate_greg`` and ``restrict`` store a canonical form (``_canonical``),
so dataclass equality is exactly this isomorphism.  The canonical form
takes one walk of the tree: the sorted encoding it builds lists every
vertex in the order that numbers the unlabeled ones.  With at most one
unlabeled vertex the relabeling is forced, and no encoding is built.

The census ``unl_polynomial`` is the move rule of label insertion: every
tree on k+1 labels comes from exactly one tree on k labels by one local
move of label k+1, and ``_child_classes`` counts a tree's moves by the
change in u from (k, u) alone.  So the census steps the u-counts of the
n = 1 trees n-1 times and builds no larger tree; the walk that makes every
move lives in the tests, as the rule's witness.  The oracle
``prufer_census`` and the listing ``enumerate_greg`` go through Pruefer
sequences generated under multiplicity constraints (a vertex of degree d
appears d-1 times), so only degree-feasible labeled trees are seen.  The
oracle decodes none: it counts each u's configurations, a sequence times
the root tuples the slot rule allows it, and divides by u!, as relabeling
the unlabeled ids acts freely.  The listing decodes each in linear time,
keeps the first candidate of each split system (``_split_firsts``) and
puts that into canonical form.

The improper-edge census and the restriction fibers build no per-tree
object.  `_prufer_pairs` is the one Pruefer decoder.  The census
(`_imp_polynomials`) walks the Cayley trees on n-1 labels, one fold each:
a tree whose first leaf is mu stands for the Pruefer suffixes on n labels
with smallest missing label a <= mu, each with all n first entries.
`_imp_fold` folds the (leaf, parent) pairs, each leaf into its parent,
counting improper edges at every root with no reroot pass, on each tree
relabeled i -> k+1-i on k labels; `imp` folds one tree's pairs, hung from
label 1 by `_hang`, the one search, pairs relabeled.  One walk per (m, n),
`_fiber_keys`, counts the Cayley trees by the split key of their
restriction, and each root by its code, read for every vertex in one pass
over the edges (`_inner_codes`) and tallied per split system.
`restriction_census` keys a Greg tree the same way (`_fiber_key`) and
looks its fiber up: keys and restrictions are one to one, so no tree is
restricted; `restrict` is the definition the keys are tested against.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import factorial
from typing import Iterator, Sequence

from .polys import Poly


@dataclass(frozen=True)
class Variant:
    """Root rules of one Greg tree variant: `roots` root slots (a pair may
    coincide), and `root_degree`, the least degree of an unlabeled vertex
    in a slot; every other unlabeled vertex has degree at least 3."""

    name: str
    roots: int
    root_degree: int


VARIANTS: dict[str, Variant] = {v.name: v for v in (
    Variant("unrooted", roots=0, root_degree=3),
    Variant("rooted", roots=1, root_degree=2),
    Variant("relaxed", roots=1, root_degree=1),
    Variant("birooted", roots=2, root_degree=1),
)}


def _variant(name: str) -> Variant:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}") from None


def _rules(n: int, variant: str) -> Variant:
    """The variant's rules, once n is a valid number of labels."""
    if not isinstance(n, int):
        raise TypeError(f"an int number of labels only, got {type(n).__name__}")
    if n < 1:
        raise ValueError("need at least one labeled vertex")
    return _variant(variant)


# ── data types ────────────────────────────────────────────────────────────

def _normalize_edges(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted((a, b))) for a, b in edges))


def _adjacency(ids, edges) -> dict[int, list[int]]:
    """Each vertex of `ids` with the list of its neighbours by `edges`."""
    adj: dict[int, list[int]] = {v: [] for v in ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _hang(adj: dict[int, list[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from `root` of the vertices `adj` (ids 1..k) joins
    to it, and parent[v] by id: the root is its own parent, 0 marks a vertex
    not reached.  Each vertex enters once, so a cycle cannot hold the walk."""
    parent = [0] * (len(adj) + 1)
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if not parent[w]:
                parent[w] = v
                order.append(w)
    return order, parent


def _check_tree(ids: set[int], edges: tuple[tuple[int, int], ...]) -> None:
    if len(edges) != len(ids) - 1:
        raise ValueError(f"{len(ids)} vertices need {len(ids) - 1} edges, got {len(edges)}")
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge")
    for a, b in edges:
        if a == b or a not in ids or b not in ids:
            raise ValueError(f"bad edge ({a}, {b})")
    if len(_hang(_adjacency(ids, edges), 1)[0]) != len(ids):
        raise ValueError("edge set is not connected")


@dataclass(frozen=True)
class GregTree:
    """Greg tree in canonical form; construct through ``build``."""

    n: int
    u: int
    edges: tuple[tuple[int, int], ...]
    roots: tuple[int, ...] = ()

    @classmethod
    def build(cls, n: int, u: int, edges, roots=()) -> "GregTree":
        if n < 1 or u < 0:
            raise ValueError("need n >= 1 labeled and u >= 0 unlabeled vertices")
        roots = tuple(roots)
        if len(roots) > 2:
            raise ValueError(f"a tree has at most 2 root slots, got {len(roots)}")
        ids = set(range(1, n + u + 1))
        es = _normalize_edges(edges)
        _check_tree(ids, es)
        for r in roots:
            if r not in ids:
                raise ValueError(f"root {r} is not a vertex")
        return _canonical(n, ids, es, roots)

    def degrees(self) -> dict[int, int]:
        d = {v: 0 for v in range(1, self.n + self.u + 1)}
        for a, b in self.edges:
            d[a] += 1
            d[b] += 1
        return d

    def validate(self, variant: str) -> None:
        """Raise ValueError unless the degree rules of `variant` hold."""
        rules = _variant(variant)
        if len(self.roots) != rules.roots:
            raise ValueError(f"{variant} tree needs {rules.roots} root slot(s), "
                             f"this one has {len(self.roots)}")
        least = dict.fromkeys(self.roots, rules.root_degree)
        deg = self.degrees()
        for v in range(self.n + 1, self.n + self.u + 1):
            minimum = least.get(v, 3)
            if deg[v] < minimum:
                raise ValueError(f"unlabeled vertex {v} has degree {deg[v]} < {minimum}")

    def to_json_dict(self) -> dict:
        """``"root": null`` or ``"root": r`` for up to one slot,
        ``"roots": [a, b]`` for a pair."""
        out: dict = {"n": self.n, "u": self.u}
        if len(self.roots) == 2:
            out["roots"] = list(self.roots)
        else:
            out["root"] = self.roots[0] if self.roots else None
        out["edges"] = [list(e) for e in self.edges]
        return out

    def to_text(self) -> str:
        """Header line "n u roots" (slots joined by commas, "-" for none)
        followed by one "a b" line per edge."""
        lines = [f"{self.n} {self.u} {','.join(map(str, self.roots)) or '-'}"]
        lines += [f"{a} {b}" for a, b in self.edges]
        return "\n".join(lines)


# ── canonical form ────────────────────────────────────────────────────────

def _canonical(n, ids, edges, roots) -> GregTree:
    """The tree on `ids` with labels 1..n, in canonical form: a
    deterministic relabeling of the unlabeled ids, anchored at vertex 1.

    Vertices are colored (label for ids <= n, a shared color above) plus
    root marks, and each subtree hanging off the anchor is encoded as a
    nested tuple with children sorted by encoding.  Every subtree of a
    valid Greg tree contains a labeled or root-marked vertex (unlabeled
    non-root leaves are forbidden), so sibling encodings never tie.  The
    encoding's preorder is the canonical order: labels keep their ids,
    unlabeled vertices take n+1, n+2, ... in turn, and mark bit i names
    root slot i.  The tree is not checked.

    With at most one unlabeled vertex the relabeling is forced: the lone
    unlabeled id, the only one above n, becomes n+1, and no encoding is
    built.
    """
    if len(ids) - n <= 1:
        top = n + 1
        new_edges = sorted([(a, min(b, top)) if a < b else (b, min(a, top)) for a, b in edges])
        return GregTree(n=n, u=len(ids) - n, edges=tuple(new_edges),
                        roots=tuple(min(r, top) for r in roots))
    adj = _adjacency(ids, edges)
    mark = {v: 0 for v in ids}
    for i, r in enumerate(roots):
        mark[r] |= 1 << i

    new_edges = []
    first = second = None
    counter = n
    stack = [(_encode(1, None, n, adj, mark), 0)]
    while stack:
        ((unlabeled, v, m), subs), parent = stack.pop()
        if unlabeled:
            counter += 1
            v = counter
        if parent:
            new_edges.append((parent, v) if parent < v else (v, parent))
        if m & 1:
            first = v
        if m & 2:
            second = v
        stack.extend((sub, v) for sub in reversed(subs))
    new_edges.sort()
    return GregTree(n=n, u=len(ids) - n, edges=tuple(new_edges),
                    roots=(first, second)[:len(roots)])


def _encode(v: int, parent: int | None, n: int, adj, mark) -> tuple:
    """The subtree below v as a nested tuple, children sorted.  At module
    level, not a closure, so a call leaves no reference cycle behind."""
    subs = sorted(_encode(w, v, n, adj, mark) for w in adj[v] if w != parent)
    return (0, v, mark[v]) if v <= n else (1, 0, mark[v]), tuple(subs)


# ── Pruefer machinery ─────────────────────────────────────────────────────

def _prufer_pairs(seq: Sequence[int], k: int) -> list[tuple[int, int]]:
    """Edges of the tree on 1..k encoded by `seq`, as (leaf, neighbour)
    pairs in removal order: hung from vertex k, every vertex appears as a
    leaf after all of its children.  Linear: the pointer to the smallest
    leaf only moves forward, and a neighbour that just became a leaf below
    the pointer is taken next.  Entries are not range-checked.  The one
    tree on a single vertex has no edge."""
    if k == 1:
        return []
    degree = [1] * (k + 1)
    for v in seq:
        degree[v] += 1
    ptr = degree.index(1, 1)
    leaf = ptr
    pairs = []
    for v in seq:
        pairs.append((leaf, v))
        degree[v] -= 1
        if v < ptr and degree[v] == 1:
            leaf = v
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    pairs.append((leaf, k))
    return pairs


def _constrained_prufer(n: int, u: int, slack: int, floor: int) -> Iterator[tuple[int, ...]]:
    """Pruefer sequences for trees on n+u vertices, lexicographic order.

    Ids n+1..n+u must appear at least twice (degree >= 3), except that up
    to `slack` of them may appear fewer times but at least `floor` times.
    Labeled ids 1..n are unconstrained.
    """
    k = n + u
    length = k - 2
    if length <= 0:
        if u == 0 or (u <= slack and floor == 0):
            yield ()
        return
    counts = [0] * (k + 1)
    seq = [0] * length
    forgivable = slack * (2 - floor)
    # over the unlabeled ids: the unmet deficit sum(2 - c for c < 2) and
    # the number with c < 2, kept up to date as ids enter and leave the
    # sequence; need == short exactly when no id has c == 0
    need = 2 * u
    short = u

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        nonlocal need, short
        left = length - pos - 1
        # labeled ids come first in the order and leave the deficit alone
        if need - forgivable <= left:
            for v in range(1, n + 1):
                seq[pos] = v
                if left:
                    yield from rec(pos + 1)
                elif short <= slack and (floor == 0 or need == short):
                    yield tuple(seq)
        for v in range(n + 1, k + 1):
            c = counts[v]
            counts[v] = c + 1
            if c < 2:
                need -= 1
                short -= c
            if need - forgivable <= left:
                seq[pos] = v
                if left:
                    yield from rec(pos + 1)
                elif short <= slack and (floor == 0 or need == short):
                    yield tuple(seq)
            counts[v] = c
            if c < 2:
                need += 1
                short += c

    yield from rec(0)


# ── enumeration ───────────────────────────────────────────────────────────

def _split_marks(pairs: list[tuple[int, int]], mark: list[int], full: int,
                 split: list[int], up: list[int]) -> None:
    """For each vertex v != 1 of the tree `pairs` hang: split[v], the marks
    on v's side of its edge toward vertex 1 (label 1 is bit 0), and up[v],
    that edge's other end.  The pairs hang leaves first, so a leaf's marks,
    OR-ed up into `mark`, are complete when its edge comes up; when they
    hold label 1 the parent is the far end, and its side's marks are their
    complement within `full`.  In pairs hung from label 1 (`_fiber_key`)
    no leaf's marks hold label 1, so up[v] is v's parent there.  Every
    entry but those of ids 0 and 1 is written anew, so the lists can serve
    tree after tree of one size."""
    for leaf, parent in pairs:
        m = mark[leaf]
        mark[parent] |= m
        if m & 1:
            split[parent] = m ^ full
            up[parent] = leaf
        else:
            split[leaf] = m
            up[leaf] = parent


def _prufer_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """The Pruefer sequence of every labeled tree on 1..n (the empty one on
    one vertex), lexicographic, each once."""
    return product(range(1, n + 1), repeat=max(n - 2, 0))


def _cayley_pairs(n: int) -> Iterator[list[tuple[int, int]]]:
    """The `_prufer_pairs` list of every labeled tree on 1..n, in
    lexicographic Pruefer order: hung from vertex n, children first."""
    for seq in _prufer_sequences(n):
        yield _prufer_pairs(seq, n)


def u_bound(n: int, variant: str) -> int:
    """Largest u with any Greg tree of the variant (census degree).

    The degree sum 2(n + u - 1) is at least n for the labels, 3 for each
    unlabeled vertex outside a root slot and `root_degree` for one in a
    slot."""
    rules = _rules(n, variant)
    return max(n - 2 + rules.roots * (3 - rules.root_degree), 0)


@cache
def _root_choices(k: int, slots: int, short: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """The slot rule: the root tuples on ids 1..k, lexicographic, that a
    configuration whose unlabeled ids in `short` are below degree 3 (appear
    fewer than twice in the Pruefer sequence) allows.  Such an id must fill
    a root slot, so a tuple is allowed iff it holds every short id."""
    return tuple(r for r in product(range(1, k + 1), repeat=slots) if short <= set(r))


def _greg_configs(n: int, u: int, rules: Variant):
    """Degree-valid (edges, roots) configurations, before dedup.

    Edges are the (leaf, neighbour) pairs of `_prufer_pairs`.  Order:
    lexicographic Pruefer, then the root tuples `_root_choices` allows.
    """
    k = n + u
    for seq in _constrained_prufer(n, u, rules.roots, max(rules.root_degree - 1, 0)):
        pairs = _prufer_pairs(seq, k)
        short = frozenset(v for v in range(n + 1, k + 1) if seq.count(v) < 2)
        for roots in _root_choices(k, rules.roots, short):
            yield pairs, roots


def _split_firsts(n: int, rules: Variant) -> Iterator[tuple[int, list, tuple]]:
    """(u, pairs, roots) of the first configuration (`_greg_configs`) of
    each Greg tree of the variant.  Order: u ascending, then lexicographic
    Pruefer, then root choices.

    A configuration is kept on the first occurrence of its split system.
    Marks are bits: label i is bit i - 1, root slot i bit n + i.  The key is
    the set of the marks on the side of each edge away from vertex 1
    (`_split_marks`, with the 0 of ids 0 and 1).  Every vertex of degree
    <= 2 carries a mark (an unlabeled one is a root), and such a tree is
    fixed up to isomorphism by its splits (Buneman 1971; Semple & Steel,
    Phylogenetics, 2003, ch. 3).  The set loses nothing: every side of an
    edge holds a leaf, so a mark, and no edge has split 0; two edges with
    one split would fence in a part with no mark, which holds an unmarked
    vertex of degree <= 2.
    """
    slot_bits = [1 << (n + i) for i in range(rules.roots)]
    full = (1 << (n + rules.roots)) - 1   # every mark the variant's trees carry
    for u in range(u_bound(n, rules.name) + 1):
        labels = [0] + [1 << i for i in range(n)] + [0] * u
        split = [0] * (n + u + 1)
        up = split[:]
        seen: set[frozenset[int]] = set()
        for pairs, roots in _greg_configs(n, u, rules):
            mark = labels[:]
            for r, bit in zip(roots, slot_bits):
                mark[r] |= bit
            _split_marks(pairs, mark, full, split, up)
            key = frozenset(split)
            if key not in seen:
                seen.add(key)
                yield u, pairs, roots


def enumerate_greg(n: int, variant: str = "unrooted") -> Iterator[GregTree]:
    """All Greg trees of the variant: the configurations `_split_firsts`
    yields, in its order, put into canonical form."""
    rules = _rules(n, variant)
    for u, pairs, roots in _split_firsts(n, rules):
        yield _canonical(n, range(1, n + u + 1), pairs, roots)


def degree_filtered_count(n: int, u: int, variant: str) -> int:
    """Number of degree-valid labeled configurations at (n, u), the ones
    `_greg_configs` lists, before the unlabeled ids are identified, counted
    without building any: each sequence of `_constrained_prufer` adds the
    number of root tuples `_root_choices` allows it, which depends only on
    k = n + u, the slot count and how many unlabeled ids are short, so the
    sequences are tallied by that number.  The relabeling action is free
    (`prufer_census`), so this equals u! times the number of Greg trees."""
    rules = _rules(n, variant)
    if not isinstance(u, int):
        raise TypeError(f"an int number of unlabeled vertices only, got {type(u).__name__}")
    if u < 0:
        raise ValueError("need u >= 0 unlabeled vertices")
    k = n + u
    unlabeled = range(n + 1, k + 1)
    shorts = Counter(sum(seq.count(v) < 2 for v in unlabeled) for seq in
                     _constrained_prufer(n, u, rules.roots, max(rules.root_degree - 1, 0)))
    return sum(c * len(_root_choices(k, rules.roots, frozenset(unlabeled[:s])))
               for s, c in shorts.items())


@cache
def _seed_counts(variant: str) -> Counter[int]:
    """The u-counts of the variant's n = 1 trees of `enumerate_greg`, listed
    once.  Cached, so shared by all callers, who must not mutate it."""
    return Counter(t.u for t in enumerate_greg(1, variant))


def unl_polynomial(n: int, variant: str = "unrooted") -> Poly:
    """Census polynomial: coefficient of x^u counts Greg trees with u
    unlabeled vertices.

    The u-counts of the n = 1 trees (`_seed_counts`), stepped n - 1
    times by the move rule: a tree on k labels with u unlabeled vertices
    has `_child_classes(k, u)` children on k + 1 labels, by their change
    in u, so no tree past n = 1 is built.  `prufer_census` counts the same
    trees another way, as the oracle."""
    rules = _rules(n, variant)
    counts = _seed_counts(rules.name)
    for k in range(1, n):
        step: Counter[int] = Counter()
        for u, c in counts.items():
            for du, m in _child_classes(k, u, rules).items():
                step[u + du] += c * m
        counts = step
    return _census(counts)


def prufer_census(n: int, variant: str = "unrooted") -> Poly:
    """The census of `unl_polynomial`, counted another way: the coefficient
    of x^u is `degree_filtered_count` at (n, u) divided by u!, with no tree
    decoded, deduplicated or put into canonical form.

    The division is exact and gives the number of Greg trees.  Each labeled
    form of a tree (its ids n+1..k in some order) is one configuration, one
    Pruefer sequence and root tuple, so the trees are the orbits of the u!
    relabelings of the unlabeled ids, and the lemma is that they act
    freely.  Let a relabeling fix a configuration.  It fixes every label
    and every root slot's vertex, so every mark, and maps each edge to an
    edge with the same split (`_split_firsts`: the marks on the side away
    from vertex 1).  Distinct edges have distinct splits, so it fixes every
    edge; a vertex of degree >= 2 is the one common end of two of its
    edges, and a leaf carries a mark, so it fixes every vertex: it is the
    identity.  A remainder means the walk lost or doubled a configuration,
    and raises ArithmeticError."""
    coeffs = []
    for u in range(u_bound(n, variant) + 1):
        count = degree_filtered_count(n, u, variant)
        trees, rest = divmod(count, factorial(u))
        if rest:
            raise ArithmeticError(f"{variant} census at n={n}, u={u}: {count} "
                                  f"configurations, not a multiple of {u}!")
        coeffs.append(trees)
    return Poly(coeffs)


def _census(counts: Counter[int]) -> Poly:
    """Polynomial with coefficient counts[j] at x^j, j >= 0."""
    return Poly(counts[j] for j in range(max(counts, default=-1) + 1))


# ── label insertion ───────────────────────────────────────────────────────

def _child_classes(n: int, u: int, rules: Variant) -> dict[int, int]:
    """How many trees on n+1 labels a tree on n labels with u unlabeled
    vertices (so n + u - 1 edges) is the parent of, by the change in u.

    The parent map unlabels n+1, prunes the unlabeled leaves no slot
    allows, then smooths the unlabeled degree-2 vertices no slot protects.
    Its inverse moves, one child per move and place: (1) n+1 as a leaf on
    any of the n + u vertices; (2) n+1 subdividing any edge; (3) n+1
    hanging from a new unlabeled vertex that subdivides any edge; (4) n+1
    labeling any unlabeled vertex, which keeps its slots; and, once each
    when an unlabeled vertex in the (single) root slot needs degree 2 or
    more, (5) a new unlabeled degree-2 root joined to the old root and
    n+1, and (6) n+1 as a leaf on the root, taking the slot.  Moves (1),
    (2) and (6) keep u, (3) and (5) add one unlabeled vertex, and (4)
    removes one."""
    edges = n + u - 1
    slot = int(rules.roots and rules.root_degree >= 2)
    return {-1: u, 0: n + u + edges + slot, 1: edges + slot}


# ── improper edges ────────────────────────────────────────────────────────

def imp(t: GregTree) -> int:
    """Number of improper edges of a rooted Cayley tree (u = 0, one root
    slot): parent -> child is improper when the parent's label exceeds the
    smallest label in the child's subtree.

    `_imp_fold` reads a tree relabeled i -> n + 1 - i and hung from n, so
    this tree is hung from label 1 by one breadth-first walk, children
    last; reversed and relabeled, its (child, parent) pairs are a
    (leaf, parent) list to fold, and the root r is vertex n + 1 - r."""
    if t.u or len(t.roots) != 1:
        raise ValueError("imp needs a Cayley tree (u = 0) with one root")
    n = t.n
    order, parent = _hang(_adjacency(range(1, n + 1), t.edges), 1)
    j, _, high, up = _imp_fold([(n + 1 - v, n + 1 - parent[v]) for v in reversed(order[1:])], n, 0)
    return _rerooted(n + 1 - t.roots[0], n, j, high, up)


def _imp_fold(pairs, n: int, k: int) -> tuple[int, int, list[int], list[int]]:
    """Fold the tree on 1..n that the (leaf, parent) `pairs` hang from n,
    children first as `_prufer_pairs` lists them: each leaf goes into its
    parent as its pair comes.  Returns, for the tree read relabeled
    i -> n + 1 - i: imp at root n; sum_r x^imp(r), packed k bits a
    coefficient; high[v], the largest vertex in v's subtree; and up[v].

    p -> v is improper when p < high[v], and only then can it raise
    high[p] >= p; an edge onto n is always proper.  Rerooting from p to its child v turns p -> v into
    v -> p, improper as p's side holds n > v; so imp(r) - imp(n) counts the
    proper edges from r up to n, and S[p] = 1 + sum_v S[v] x^[p -> v proper]."""
    high = list(range(n + 1))
    up = [0] * (n + 1)
    S = [1] * (n + 1)
    improper = 0
    for leaf, p in pairs:
        up[leaf] = p
        h = high[leaf]
        if p < h:
            improper += 1
            if high[p] < h:
                high[p] = h
            S[p] += S[leaf]
        else:
            S[p] += S[leaf] << k
    return improper, S[n] << k * improper, high, up


def _rerooted(v: int, n: int, j: int, high: list[int], up: list[int]) -> int:
    """imp at root v of the tree `_imp_fold` left in (high, up), imp j at n."""
    while v != n:
        p = up[v]
        j += p > high[v]
        v = p
    return j


@cache
def _imp_polynomials(n: int) -> tuple[Poly, Poly]:
    """The unrooted and the rooted improper-edge census, from one walk of
    `_imp_fold` over the Cayley trees T' on 1..n-1, one fold each.  A fold
    reads its tree relabeled i -> m + 1 - i on m labels, a bijection of the
    labeled trees; the unrooted census is imp at root n, the relabeled 1.
    Both are packed k bits a coefficient, as every coefficient is below
    n^(n-1) < 2^k.

    Lemma (n >= 3).  Write a Pruefer sequence on 1..n as (y, Q).  Let
    a < a' be the two smallest labels missing from Q, and T_a the tree Q
    decodes on the labels other than a, with j = imp(T_a, n) and
    R_a = sum_r x^imp(T_a, r).  Below n, every subtree of T_a holds a leaf,
    a label missing from Q other than a, so high[v] >= a' > a at every
    vertex v of T_a: a hung anywhere in T_a changes no high[], and no edge
    of T_a changes kind.
    * y != a: a is the first leaf, as every label below a is in Q, and
      hangs from y; the rest decodes T_a.  y -> a is improper iff y < a,
      so imp at r != a is imp(T_a, r) + [y < a].  At a, a -> y is
      improper (high[y] = n > a) and the path on from y is T_a's, so imp
      is 1 + imp(T_a, y).
    * y = a: a' is the first leaf, hung from a, which is then the smallest
      leaf and hangs where a' hangs in T_a (from q_1, or from n if Q is
      empty); the rest decodes T_a past a'.  So a sits on T_a's edge to
      a', with high[a] = high[a'] > a: a -> a' is improper and the edge
      above a keeps its kind, so imp is 1 + imp(T_a, a' if r = a else r).
    The roots y != a run over T_a once, so Q adds (n - a) x^j + a x^(j+1)
    unrooted and (n - a) R_a + x ((a + 1) R_a + x^imp(T_a, a')) rooted.

    Merge.  Let phi_a map 1..n-1 onto the labels other than a, keeping
    order, and Q' = phi_a^-1(Q): any n - 3 labels on 1..n-1, a full
    Pruefer sequence, and T_a = phi_a(T') for the tree T' it decodes.
    phi_a fixes the labels below a, so "every label below a is in Q" reads
    a <= mu, the smallest label missing from Q', which is T''s first leaf,
    its first pair's; then a' = phi_a(mu) = mu + 1.  So the suffixes Q are
    the pairs (T', a), a = 1..mu, each once.  imp reads only the order of
    the labels, which phi_a keeps, sending the root n - 1 to n, so T_a has
    T''s j and R, and imp(T_a, a') = imp(T', mu).  Summed over a = 1..mu,
    with A = mu (mu + 1) / 2, T' adds (mu n - A) x^j + A x^(j+1) unrooted
    and (mu n - A) R + x ((A + mu) R + mu x^imp(T', mu)) rooted: one fold
    and one walk up from mu, (n - 1)^(n - 3) folds in all.  Every packed
    term is a count times a sum of counts, so no coefficient borrows."""
    k = (n ** (n - 1)).bit_length() + 1
    if n < 3:     # one tree, imp 0 at n; its empty sequence has no first entry
        unrooted, rooted = 1, _imp_fold(_prufer_pairs((), n), n, k)[1]
    else:
        unrooted = rooted = 0
        for pairs in _cayley_pairs(n - 1):
            mu = pairs[0][0]
            j, s, high, up = _imp_fold(pairs, n - 1, k)
            top = 1 << k * _rerooted(mu, n - 1, j, high, up)
            up_to = mu * (mu + 1) // 2     # A: the (a, y) with y <= a
            above = mu * n - up_to
            unrooted += (above << k * j) + (up_to << k * (j + 1))
            rooted += above * s + (((up_to + mu) * s + mu * top) << k)
    mask = (1 << k) - 1
    return tuple(Poly((c >> k * j) & mask for j in range(n)) for c in (unrooted, rooted))


def imp_polynomial(n: int, rooted: bool = True) -> Poly:
    """Improper-edge census: sum of x^imp over rooted Cayley trees, or over
    unrooted trees rooted at label 1.  Equals G_n(x-1) resp. H_n(x-1)."""
    if not isinstance(n, int):
        raise TypeError(f"an int number of vertices only, got {type(n).__name__}")
    if n < 1:
        raise ValueError("need at least one vertex")
    return _imp_polynomials(n)[bool(rooted)]


# ── restriction ───────────────────────────────────────────────────────────

def restrict(x: GregTree, n: int) -> GregTree:
    """Unlabel the vertices above n of the Cayley tree x (u = 0, at most
    one root slot), prune unlabeled leaves until none is left, then smooth
    the unlabeled degree-2 vertices.

    If x is rooted the root survives: pruning an unlabeled leaf root hands
    the root to its neighbour, and an unlabeled degree-2 root is not
    smoothed.  The result is a Greg tree (rooted iff x is).
    """
    if x.u or len(x.roots) > 1:
        raise ValueError("restrict needs a Cayley tree (u = 0) with at most one root")
    if not 1 <= n < x.n:
        raise ValueError(f"need 1 <= n < {x.n}")
    adj = _adjacency(range(1, x.n + 1), x.edges)
    root = x.roots[0] if x.roots else None
    # labels are never pruned, so no two unlabeled leaves are adjacent and
    # every vertex on the worklist is still a leaf when it is popped
    leaves = [v for v in range(n + 1, x.n + 1) if len(adj[v]) == 1]
    while leaves:
        v = leaves.pop()
        (w,) = adj.pop(v)
        adj[w].remove(v)
        if v == root:
            root = w
        if w > n and len(adj[w]) == 1:
            leaves.append(w)
    # smoothing leaves every other degree unchanged
    for v in [v for v in adj if v > n and v != root and len(adj[v]) == 2]:
        a, b = adj.pop(v)
        adj[a].remove(v)
        adj[b].remove(v)
        adj[a].append(b)
        adj[b].append(a)
    # the canonical form renumbers the surviving unlabeled ids
    edges = [(a, b) for a in adj for b in adj[a] if a < b]
    return _canonical(n, adj, edges, (root,) if root else ())


def _inner_codes(split: list[int], up: list[int], n: int) -> list[int]:
    """2 split[v] + inner for each vertex v of the tree `_split_marks` left
    in (split, up): inner is 1 when v is unlabeled (v > n) and has a child
    edge of its own split, some w with up[w] = v and split[w] = split[v].
    One pass over the edges, each the edge from w != 1 up to up[w]."""
    codes = [2 * s for s in split]
    for w in range(2, len(split)):
        v = up[w]
        if v > n and split[w] == split[v]:
            codes[v] |= 1
    return codes


def _fiber_key(t: GregTree) -> frozenset[int] | tuple[frozenset[int], int]:
    """The key under which `_fiber_keys` counts the Cayley trees that
    restrict to the unrooted or rooted Greg tree t: S, the set of the marks
    on the side of each edge away from label 1 (label i is bit i - 1), the
    key `_split_firsts` gives a configuration, paired for a rooted t with
    the root's code of `_inner_codes`.  t is hung from label 1 by `_hang`.

    Lemma: for a Cayley tree X of size m > n, the walk's key of X is
    `_fiber_key(restrict(X, n))`, and keys and restrictions are one to one.
    The walk keys X on S, and X at root r on (S, 2 s + inner): v is the
    first vertex on r's path to label 1 with a nonzero split s, else label
    1 (s = 0), and inner says v is unlabeled with a child edge of split s.
    S is the split system of restrict(X, n): pruning removes the edges of
    split 0, smoothing joins edges of one split, and every vertex of degree
    <= 2 of the restriction is a label or its root, so its splits fix it
    (see `_split_firsts`).  Pruning hands r up to v, which keeps its edge
    of split s toward label 1; an inner v keeps just one child edge, of
    split s, so it is the unlabeled degree-2 root, and any other v keeps a
    label or two child edges of other splits: the root's code in the
    restriction is X's.  With the root as one more mark R the rooted
    restriction's splits are S if s = 0, else those of S not holding s,
    x|R for each x of S holding s (s included), and s again if inner.  The
    least marked split gives s back and an unmarked s gives inner, so the
    key fixes the restriction.
    """
    k = t.n + t.u
    order, parent = _hang(_adjacency(range(1, k + 1), t.edges), 1)
    split, up = [0] * (k + 1), [0] * (k + 1)
    _split_marks([(v, parent[v]) for v in reversed(order[1:])],
                 [0] + [1 << i for i in range(t.n)] + [0] * t.u, (1 << t.n) - 1, split, up)
    system = frozenset(split)
    return (system, _inner_codes(split, up, t.n)[t.roots[0]]) if t.roots else system


@cache
def _fiber_keys(m: int, n: int) -> tuple[Counter, Counter]:
    """One walk of the Cayley trees of size m, for 1 <= n < m: how many
    have each unrooted key, and how many (tree, root) each rooted key, of
    `_fiber_key` on the labels 1..n.  Each tree's m root codes go into its
    split system's own tally of codes with one update, and the tallies are
    keyed (system, code) once, after the walk.  Cached, so shared by all
    callers, who must not mutate it; bounds are checked before the walk."""
    if not 1 <= n < m:
        raise ValueError(f"need 1 <= n < m = {m}, got n = {n}")
    base = [0] + [1 << i for i in range(n)] + [0] * (m - n)
    split, up = [0] * (m + 1), [0] * (m + 1)
    unrooted, tallies = Counter(), defaultdict(Counter)
    roots = range(1, m + 1)
    for pairs in _cayley_pairs(m):
        _split_marks(pairs, base[:], (1 << n) - 1, split, up)
        system = frozenset(split)
        unrooted[system] += 1
        inner = _inner_codes(split, up, n)
        codes = []
        for v in roots:   # v goes from the root r up to where pruning lands it
            while not split[v] and v != 1:
                v = up[v]
            codes.append(inner[v])
        tallies[system].update(codes)
    rooted = Counter({(system, code): count for system, tally in tallies.items()
                      for code, count in tally.items()})
    return unrooted, rooted


def restriction_census(t: GregTree, m_max: int) -> list[int]:
    """Entry for each m = t.n..m_max: how many Cayley trees of size m
    (rooted iff t is) restrict to t.  The m = t.n entry uses the identity
    convention restrict(X, n) = X, so it is 1 exactly when t.u = 0.  Each
    later entry is t's key (`_fiber_key`) looked up in the walk of size m
    (`_fiber_keys`), so no tree is restricted.  A tree that breaks the
    unrooted or rooted degree rules, or m_max < t.n, raises ValueError."""
    if m_max < t.n:
        raise ValueError(f"need m_max >= n = {t.n}, got {m_max}")
    if len(t.roots) > 1:
        raise ValueError("restriction fibers are defined for unrooted and rooted trees")
    t.validate("rooted" if t.roots else "unrooted")
    key = _fiber_key(t)
    return [int(t.u == 0)] + [_fiber_keys(m, t.n)[bool(t.roots)][key]
                              for m in range(t.n + 1, m_max + 1)]
