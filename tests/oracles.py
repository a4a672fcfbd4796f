"""Definition-level reference implementations used to cross-check the
package.  Everything here works on plain frozensets of integers and
never touches the bitset code paths, so agreement is meaningful.  The
exceptions are the oracles at the end: the previous, slower
implementations of engine helpers whose output order the comparability
table's witness tie-breaks depend on, of the labeling codec and of the
annealer's comparability component."""

from itertools import combinations, permutations
from math import prod

from sperner.lattice import Family, FamilyTuple, bit_positions, bits_of


def subsets(n):
    """All subsets of {1..n} as frozensets, in mask order."""
    out = []
    for mask in range(1 << n):
        out.append(frozenset(e for e in range(1, n + 1) if mask >> (e - 1) & 1))
    return out


def comparable_sets(x, y):
    return x <= y or y <= x


def comparability_of(family, n):
    """Sets of [n] comparable to at least one member."""
    return {s for s in subsets(n) if any(comparable_sets(s, f) for f in family)}


def up_closure(family, n):
    return {s for s in subsets(n) if any(f <= s for f in family)}


def down_closure(family, n):
    return {s for s in subsets(n) if any(s <= f for f in family)}


def is_antichain_sets(family):
    return all(
        not comparable_sets(x, y) for x, y in combinations(family, 2)
    )


def cross_sperner_sets(families):
    """families: sequence of collections of frozensets, all non-empty."""
    if any(not f for f in families):
        return False
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            for x in families[i]:
                for y in families[j]:
                    if comparable_sets(x, y):
                        return False
    return True


def min_comparability_exact(n, m):
    """Brute minimum of |comparability| over all size-m families."""
    best = None
    for family in combinations(subsets(n), m):
        c = len(comparability_of(family, n))
        if best is None or c < best:
            best = c
    return best


def _max_over_labelings(n, k, score):
    """Assign each proper non-empty subset to one of k families or none,
    keep assignments whose families are non-empty and cross-Sperner,
    return the best score.  Exponential; n <= 3 only."""
    usable = [s for s in subsets(n) if s and len(s) < n]
    best = 0
    total = (k + 1) ** len(usable)
    for code in range(total):
        fams = [[] for _ in range(k)]
        c = code
        for s in usable:
            c, r = divmod(c, k + 1)
            if r:
                fams[r - 1].append(s)
        if any(not f for f in fams):
            continue
        if cross_sperner_sets(fams):
            v = score([len(f) for f in fams])
            if v > best:
                best = v
    return best


def max_product_exact(n, k):
    return _max_over_labelings(n, k, prod)


def max_sum_exact(n, k):
    return _max_over_labelings(n, k, sum)


def count_upsets(n):
    """Dedekind-style count of upward-closed families, empty included.
    Checks every family of subsets; n <= 3 only."""
    all_sets = subsets(n)
    count = 0
    for code in range(1 << len(all_sets)):
        fam = {s for i, s in enumerate(all_sets) if code >> i & 1}
        if all(
            s | {e} in fam for s in fam for e in range(1, n + 1) if e not in s
        ):
            count += 1
    return count


def upset_bits_recursive(n):
    """Upset bitsets in the engine's enumeration order: masks by
    descending popcount, include branch first, a mask joining only when
    all its immediate supersets are in."""
    total = 1 << n
    order = sorted(range(total), key=lambda m: (-(m.bit_count()), m))
    missing = [[m | (1 << b) for b in range(n) if not m >> b & 1] for m in order]
    out = []

    def rec(i, bits):
        if i == len(order):
            out.append(bits)
            return
        if all(bits >> s & 1 for s in missing[i]):
            rec(i + 1, bits | (1 << order[i]))
        rec(i + 1, bits)

    rec(0, 0)
    return out


def reflect_bits_by_positions(bits, total):
    """The bitset whose members are total - 1 - p for each member p."""
    return bits_of([total - 1 - p for p in bit_positions(bits)])


def orbit_firsts_brute(ups, n):
    """Indices, ascending, of the upsets in ups that come first among all
    their images under permutations of the ground set."""
    index = {u: i for i, u in enumerate(ups)}
    firsts = set()
    for u in ups:
        members = [m for m in range(1 << n) if u >> m & 1]
        images = []
        for perm in permutations(range(n)):
            image = 0
            for m in members:
                image |= 1 << sum(1 << perm[e] for e in range(n) if m >> e & 1)
            images.append(index[image])
        firsts.add(min(images))
    return sorted(firsts)


def labels_by_masks(t, total):
    """The labeling of a tuple as a list: entry m is the 1-based index of
    the family holding mask m, 0 for none."""
    arr = [0] * total
    for j, fam in enumerate(t.families, start=1):
        for m in fam.masks():
            arr[m] = j
    return arr


def tuple_from_order_labels(n, k, labels, masks):
    """The k-tuple in which labels[i] in 1..k puts masks[i] into that
    family; 0 leaves it out."""
    fams = [[] for _ in range(k)]
    for i, lab in enumerate(labels):
        if lab:
            fams[lab - 1].append(masks[i])
    return FamilyTuple(n, tuple(Family.from_masks(n, f) for f in fams))


def component_by_frontier(st, m):
    """The comparability component of m inside the support of an
    annealer state st, walked one member at a time from a frontier."""
    comp = 1 << m
    frontier = [m]
    while frontier:
        x = frontier.pop()
        near = st.one(x) & st.support & ~comp
        comp |= near
        frontier += bit_positions(near)
    return comp
