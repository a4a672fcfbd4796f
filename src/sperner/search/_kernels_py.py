"""Pure Python search kernels.

Reference implementations of the four hot loops: the upset enumeration
and its S_n orbits, the monotone-pair scan behind the comparability
table, the exact label-assignment DFS, and the annealing chain.  The
compiled module mirrors these semantics (same RNG draws, placements,
tie-breaks and float expressions), so a given seed walks the same
trajectory on either backend.  Both annealers look at the clock
before every step, and both DFS kernels every 4096 nodes.  On both
backends a labeling is bytes, one label per mask.
"""

from __future__ import annotations

import math
import time

from ..lattice import (_comparable_bits, _label_bits, _positions_with_bit,
                       bit_positions, bits_of, family_universe)

BACKEND = "pure"

_INF = 1 << 60
_MASK64 = (1 << 64) - 1


# -- splitmix64, mirrored bit for bit by the compiled kernel ----------------


def sm64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rand_below(state: int, bound: int) -> tuple[int, int]:
    # Lemire multiply-shift; bound 0 is the caller's bug
    state, z = sm64_next(state)
    return state, (z * bound) >> 64


def _rand_unit(state: int) -> tuple[int, float]:
    state, z = sm64_next(state)
    return state, (z >> 11) * (2.0**-53)


# -- upsets of P([n]) and their S_n orbits ---------------------------------


def upset_orbits(n):
    """Every upset bitset of P([n]), in enumeration order, and the
    ascending indices of the first upset of each S_n orbit.

    The order is a depth-first walk over the masks sorted by (-popcount,
    mask), include branch first, so upsets come in descending order of
    their bits read in that mask order.  The compiled kernel uses this to
    test each upset on its own; here a seen set marks whole orbits.
    """
    ups = _upset_bits(n)
    return ups, _orbit_firsts(ups, n)


def _upset_bits(n: int) -> list[int]:
    total = 1 << n
    order = sorted(range(total), key=lambda m: (-(m.bit_count()), m))
    # the immediate supersets of each mask, as one bitset over masks
    need = [sum(1 << (m | 1 << b) for b in range(n) if not m >> b & 1)
            for m in order]
    out: list[int] = []

    def rec(i: int, bits: int) -> None:
        # masks missing an immediate superset can only be left out
        while i < total and bits & need[i] != need[i]:
            i += 1
        if i == total:
            out.append(bits)
            return
        rec(i + 1, bits | (1 << order[i]))
        rec(i + 1, bits)

    rec(0, 0)
    return out


def _heap_swaps(n: int) -> list[tuple[int, int]]:
    """The n! - 1 transpositions (a, b), a < b, of Heap's algorithm:
    applied one after another they visit every permutation of [n] once."""
    swaps = []
    c = [0] * n
    i = 1
    while i < n:
        if c[i] < i:
            swaps.append((0 if i % 2 == 0 else c[i], i))
            c[i] += 1
            i = 1
        else:
            c[i] = 0
            i += 1
    return swaps


def _orbit_firsts(ups: list[int], n: int) -> list[int]:
    """The index of the first upset of each S_n orbit in ups, ascending.

    Swapping elements a < b of the ground set exchanges mask m, which has
    a and not b, with m + 2**b - 2**a, so it acts on a bitset over the
    2**n masks as one delta swap.  Walking Heap's transpositions from a
    new upset visits its whole orbit.
    """
    total = 1 << n
    swaps = []
    for a, b in _heap_swaps(n):
        moved = bits_of([m for m in range(total) if m >> a & 1 and not m >> b & 1])
        swaps.append((moved, (1 << b) - (1 << a)))
    seen: set[int] = set()
    firsts = []
    for i, u in enumerate(ups):
        if u in seen:
            continue
        firsts.append(i)
        seen.add(u)
        for moved, delta in swaps:
            x = (u >> delta ^ u) & moved
            u ^= x ^ x << delta
            seen.add(u)
    return firsts


# -- monotone pair scan ------------------------------------------------------


def comp_scan(upsets, usizes, downsets, dsizes, total):
    """For each intersection size t, the minimum of |U| + |D| - t over all
    (upset, downset) pairs with |U & D| = t, plus the first pair in scan
    order attaining that minimum."""
    best = [_INF] * (total + 1)
    bu = [-1] * (total + 1)
    bd = [-1] * (total + 1)
    for i, u in enumerate(upsets):
        su = usizes[i]
        for j, d in enumerate(downsets):
            t = (u & d).bit_count()
            v = su + dsizes[j] - t
            if v < best[t]:
                best[t], bu[t], bd[t] = v, i, j
    return best, bu, bd


# -- exact label-assignment DFS ---------------------------------------------


def _canonical_key(labels, masks, k):
    fams = [[] for _ in range(k)]
    for i, lab in enumerate(labels):
        if lab:
            fams[lab - 1].append(masks[i])
    for f in fams:
        f.sort()
    fams.sort()
    return tuple(tuple(f) for f in fams)


def _waterfill_product(pots, units):
    """Max of prod(v_i + x_i) over x >= 0 with sum(x) = units, for the
    values v in ascending order: raise the lowest entries first, to a
    common level of (their sum + units) / cnt, spread as evenly as
    integers allow."""
    k = len(pots)
    low, cnt = pots[0], 1  # the sum of the cnt lowest values
    while cnt < k and pots[cnt] * cnt - low <= units:
        low += pots[cnt]
        cnt += 1
    base, r = divmod(low + units, cnt)
    bound = (base + 1) ** r * base ** (cnt - r)
    for i in range(cnt, k):
        bound *= pots[i]
    return bound


def exact_search(k, product, masks, cmp_fwd, floor_value, target,
                 node_budget, deadline):
    """Exhaustive search over labelings of the usable masks.

    Index i gets a label in {0 = unused, 1..k}; assigning a positive label
    pins every comparable later index to that label (or kills it if it was
    pinned elsewhere), which is exactly the cross-Sperner constraint.
    Label numbers open in first-use order, cutting the k! symmetry.
    Each node's pin row is words over the indices, bit i for index i:
    `free` (no label forced), `dead` (no label possible) and `pinned[j]`
    (label j forced), so a node counts its remaining indices with two
    popcounts and a child costs a few word operations per family.
    A mask pinned to family j can only ever join j, so the product bound
    gives each family the potential of its count plus the masks from d on
    pinned to it (0 for a family not yet opened), and waterfills only the
    free masks onto those potentials.
    Pruning is by an admissible completion bound and is strict (only
    branches that cannot reach the best value are cut), so every optimal
    labeling is visited and the canonically least witness survives.
    A positive target stops the search once best reaches it, giving up
    both optimality and the canonical-minimum guarantee.

    Returns (best_value, best_labels or None, nodes, completed), where
    byte i of best_labels is the label of masks[i].
    """
    m_count = len(masks)
    labels = bytearray(m_count)
    counts = [0] * (k + 1)
    best = floor_value
    best_labels = None
    best_key = None
    nodes = 0
    aborted = False

    def rec(d, used, cur_sum, free, dead, pinned):
        nonlocal best, best_labels, best_key, nodes, aborted
        nodes += 1
        if aborted or (node_budget and nodes > node_budget):
            aborted = True
            return
        if target and best >= target:
            aborted = True
            return
        if deadline and not nodes % 4096 and time.monotonic() > deadline:
            aborted = True
            return
        if d == m_count:
            if used != k:
                return
            if product:
                v = 1
                for j in range(1, k + 1):
                    v *= counts[j]
            else:
                v = cur_sum
            if v < best:
                return
            key = _canonical_key(labels, masks, k)
            if v == best and best_key is not None and key >= best_key:
                return
            best, best_labels, best_key = v, bytes(labels), key
            return
        free_rem = (free >> d).bit_count()
        if used < k and free_rem < k - used:
            return
        if product:
            # unopened families have count 0 and no pins
            pots = sorted([counts[j] + (pinned[j] >> d).bit_count()
                           for j in range(1, k + 1)])
            bound = _waterfill_product(pots, free_rem)
        else:
            bound = cur_sum + m_count - d - (dead >> d).bit_count()
        if bound < best:
            return
        if free >> d & 1:
            choices = range(1, used + 2) if used < k else range(1, k + 1)
        elif dead >> d & 1:
            choices = ()
        else:
            for j in range(1, used + 1):
                if pinned[j] >> d & 1:
                    choices = (j,)
                    break
        fwd = cmp_fwd[d]
        take = fwd & free
        for c in choices:
            labels[d] = c
            counts[c] += 1
            # comparable later indices: free ones join family c, those
            # pinned to another family die
            kill = fwd & ~free & ~dead & ~pinned[c]
            child = [p & ~kill for p in pinned]
            child[c] |= take
            rec(d + 1, used + (1 if c > used else 0), cur_sum + 1,
                free & ~fwd, dead | kill, child)
            counts[c] -= 1
            if aborted:
                labels[d] = 0
                return
        labels[d] = 0
        rec(d + 1, used, cur_sum, free, dead, pinned)

    rec(0, 0, 0, (1 << m_count) - 1, 0, [0] * (k + 1))
    return best, best_labels, nodes, not aborted


# -- annealing chain ---------------------------------------------------------


class _AnnealState:
    __slots__ = ("n", "k", "total", "universe", "hi", "labels", "fams", "near",
                 "stale", "counts", "support", "support_count")

    def __init__(self, n, k):
        self.n = n
        self.k = k
        self.total = 1 << n
        self.universe = (1 << self.total) - 1
        self.hi = [_positions_with_bit(n, b) for b in range(n)]
        self.labels = bytearray(self.total)
        self.fams = [0] * (k + 1)
        self.near = [0] * (k + 1)  # masks comparable to a member of each family
        self.stale = set()  # families whose near awaits refresh()
        self.counts = [0] * (k + 1)
        self.support = 0
        self.support_count = 0

    def load(self, labels):
        self.labels = bytearray(labels)
        self.fams = [0] + [_label_bits(self.labels, j) for j in range(1, self.k + 1)]
        self.counts = [f.bit_count() for f in self.fams]
        self.support = sum(self.fams)  # disjoint, so the sum is the union
        self.support_count = self.support.bit_count()
        for j in range(1, self.k + 1):
            self._reclose(j)
        self.stale.clear()

    def _reclose(self, j):
        self.near[j] = _comparable_bits(self.fams[j], self.n)

    def refresh(self):
        """Reclose each stale family; runs only at the top of a fill, the
        one reader of near, so the fill sees near as a function of fams
        alone."""
        for j in self.stale:
            self._reclose(j)
        self.stale.clear()

    def snapshot(self):
        return (self.labels.copy(), self.fams.copy(), self.near.copy(),
                self.counts.copy(), self.support, self.support_count)

    def restore(self, snap):
        # snapshots are taken between steps, when no family is stale
        (self.labels, self.fams, self.near, self.counts, self.support,
         self.support_count) = (snap[0].copy(), snap[1].copy(), snap[2].copy(),
                                snap[3].copy(), snap[4], snap[5])
        self.stale.clear()

    def owner(self, m):
        """The placement rule: family j may take the unlabeled mask m exactly
        when owner(m) is 0 or j.  Returns the only family whose comparable
        set holds m, 0 when none does and -1 when two or more do."""
        bit = 1 << m
        found = 0
        for j in range(1, self.k + 1):
            if self.near[j] & bit:
                if found:
                    return -1
                found = j
        return found

    def contested(self):
        """The masks near two or more families: an unlabeled one among them
        has owner -1."""
        once = twice = 0
        for near in self.near[1:]:
            twice |= once & near
            once |= near
        return twice

    def one(self, m):
        """The masks comparable to m alone: its supersets, which have every
        element of m, and its subsets, which lack every element outside m."""
        sup = sub = self.universe
        for b, hi in enumerate(self.hi):
            if m >> b & 1:
                sup &= hi
            else:
                sub &= ~hi
        return sup | sub

    def add(self, m, j):
        # near grows by one(m) when m joins a family that is not stale
        self.labels[m] = j
        self.fams[j] |= 1 << m
        if j not in self.stale:
            self.near[j] |= self.one(m)
        self.counts[j] += 1
        self.support |= 1 << m
        self.support_count += 1

    def remove(self, m):
        j = self.labels[m]
        self.labels[m] = 0
        self.fams[j] &= ~(1 << m)
        self.counts[j] -= 1
        self.support &= ~(1 << m)
        self.support_count -= 1
        self.stale.add(j)

    def value(self, product):
        if product:
            v = 1
            for j in range(1, self.k + 1):
                v *= self.counts[j]
            return v
        return self.support_count

    def component(self, m):
        """Comparability component of m inside the support, by closures."""
        comp, grown = 0, 1 << m
        while grown != comp:
            comp = grown
            grown = _comparable_bits(comp, self.n) & self.support
        return comp


def anneal_chain(n, k, product, variants, seed, steps, t0, alpha,
                 restart_interval, stop_value, deadline):
    """One annealing chain: perturb (remove / move / recolor a component /
    add / ruin / dig a hole), greedily refill to a maximal labeling, and
    Metropolis-accept on the measure with geometric cooling.  Every step
    starts from a fill's maximal labeling (a rejected move restores the one
    it began from), whose unlabeled usable masks are each near two
    families, so the add move places nothing and only draws its mask.
    The pool's labelings must be cross-Sperner, so each start is too and
    its support is not empty: the remove, move and recolor moves draw their
    member once, and as a member is near no family but its own, the move
    to another family tests it before it acts.  Restarts cycle through the
    given construction variants.  Fully determined by the seed (wall-clock
    deadline aside); a start that meets stop_value takes no step.
    best_labels is a labeling, 2**n bytes where
    byte m is the family of mask m, and variants is one bytes buffer of
    whole labelings, the restart pool.  The chain places the proper masks
    of its ground, 1..2**n - 2: with k >= 2 families a cross-Sperner tuple
    holds neither the empty set nor the whole ground, as both are
    comparable to every set.  So it needs n >= 2.

    Returns (best_value, best_labels, steps_done, final_state), where
    final_state is the generator state after the chain's last draw, so a
    drift in the draws shows even after the chain's last improvement.
    """
    st = _AnnealState(n, k)
    state = seed & _MASK64
    variant_idx = 0
    total = 1 << n
    n_var = len(variants) // total
    usable = range(1, total - 1)
    usable_bits = family_universe(n) ^ 1 ^ 1 << (total - 1)

    def fill(state):
        st.refresh()
        order = list(usable)
        for i in range(len(order) - 1, 0, -1):
            state, j = _rand_below(state, i + 1)
            order[i], order[j] = order[j], order[i]
        # a mask near two families has owner -1 until the fill ends, since
        # near only grows here; the open masks, usable, unlabeled and near
        # at most one family, keep their shuffled order
        opened = set(bit_positions(usable_bits & ~st.support & ~st.contested()))
        order = [m for m in order if m in opened]
        # first pass: only masks one family already owns, so ruined
        # structure snaps back before foreign placements; the second pass
        # gives each unowned mask to the first family with the least count
        for enclosed_only in (True, False):
            for m in order:
                if st.labels[m]:
                    continue
                j = st.owner(m)
                if j == 0 and not enclosed_only:
                    j = min(range(1, k + 1), key=st.counts.__getitem__)
                if j > 0:
                    st.add(m, j)
        return state

    st.load(variants[:total])
    state = fill(state)
    cur = st.value(product)
    best = cur
    best_labels = bytes(st.labels)
    if stop_value and best >= stop_value:
        return best, best_labels, 0, state
    temp = t0
    last_improve = 0
    done = 0
    for step in range(steps):
        if deadline and time.monotonic() > deadline:
            break
        done = step + 1
        state, r = _rand_unit(state)
        snap = st.snapshot()
        moved = False
        if r < 0.55:  # remove, move or recolor one member of the support
            state, idx = _rand_below(state, st.support_count)
            m = bit_positions(st.support)[idx]
            j = st.labels[m]
            if r < 0.20:  # remove
                if st.counts[j] > 1:
                    st.remove(m)
                    moved = True
            elif r < 0.40:  # move to another family
                if st.counts[j] > 1:
                    state, pick = _rand_below(state, k - 1)
                    jj = pick + 1 + (1 if pick + 1 >= j else 0)
                    # m may go when no other member of j is comparable to it
                    if st.one(m) & st.fams[j] == 1 << m:
                        st.remove(m)
                        st.add(m, jj)
                        moved = True
            else:  # recolor a whole component
                comp = bit_positions(st.component(m))
                if len(comp) < st.counts[j]:
                    state, pick = _rand_below(state, k - 1)
                    jj = pick + 1 + (1 if pick + 1 >= j else 0)
                    st.stale.add(jj)  # the fill recloses it once
                    for x in comp:
                        st.remove(x)
                        st.add(x, jj)
                    moved = True
        elif r < 0.70:  # add: only the draw of an unlabeled mask
            if usable_bits & ~st.support:
                state, _ = sm64_next(state)
        elif r < 0.85:  # ruin a random chunk of the support and rebuild
            state, z = _rand_unit(state)
            p_ruin = 0.1 + 0.3 * z
            for m in bit_positions(st.support):
                state, u = _rand_unit(state)
                if u < p_ruin and st.counts[st.labels[m]] > 1:
                    st.remove(m)
                    moved = True
        else:  # dig a coordinated hole: drop everything comparable to a pivot
            state, idx = _rand_below(state, len(usable))
            near = st.one(usable[idx]) & st.support
            for m in bit_positions(near):
                if st.counts[st.labels[m]] > 1:
                    st.remove(m)
                    moved = True
        if moved:
            state = fill(state)
            new = st.value(product)
            accept = new >= cur
            if not accept:
                if product:
                    p = math.pow(new / cur, 1.0 / temp) if cur else 0.0
                else:
                    p = math.exp((new - cur) / temp)
                state, u = _rand_unit(state)
                accept = u < p
            if accept:
                cur = new
                if new > best:
                    best = new
                    best_labels = bytes(st.labels)
                    last_improve = step
                    if stop_value and best >= stop_value:
                        break
            else:
                st.restore(snap)
        temp *= alpha
        if temp < 1e-6:
            temp = 1e-6
        if step - last_improve > restart_interval:
            variant_idx += 1
            i = variant_idx % n_var
            st.load(variants[i * total:(i + 1) * total])
            state = fill(state)
            cur = st.value(product)
            temp = t0
            last_improve = step
    return best, best_labels, done, state
