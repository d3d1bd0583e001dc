"""The workloads: inputs made from the seed, set-up through the public API,
one round of timed operations, and the checks on a round's outputs.

Operations name their function as (module, attribute) and look it up at
call time, so the traced run's wrappers are seen without rebuilding them.
"""

from __future__ import annotations

import random
from math import comb

from rackforge import classify, constructions, groups, homology, rack
from rackforge.perm import Permutation

import checks


class Op:
    __slots__ = ("module", "name", "args", "label")

    def __init__(self, module, name, args, label):
        self.module = module
        self.name = name
        self.args = args
        self.label = label

    def __call__(self):
        return getattr(self.module, self.name)(*self.args)


def random_even(m, rng):
    """Uniform element of A_m as a 0-based image list: a uniform shuffle,
    with the first two images swapped when it is odd."""
    images = list(range(m))
    rng.shuffle(images)
    seen = [False] * m
    cycles = 0
    for start in range(m):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = images[j]
    if (m - cycles) % 2:
        images[0], images[1] = images[1], images[0]
    return images


# -- alt-identify -------------------------------------------------------------

ALT_PAIR_COUNTS = ((11, 40), (13, 20))  # (p, conjugates of the standard p-cycle)
ALT_FW_COUNTS = ((7, 40), (11, 20), (13, 20))  # (p, random p-cycle pairs on 2p points)
WALK = (7, 8)
# walk pairs that generate AGL(3,2), which the case table lacks; all of them
# fail while row (xi) skips k = 3, and none once it covers it
WALK_GAP_PAIRS = 252


def overlap_counts(p, count):
    """How many of `count` random pairs of p-subsets of 2p points share k
    points, for each k: the hypergeometric shares rounded by largest
    remainder, so every seed draws the same mix of support-union sizes,
    which is what a pair's identification time mostly depends on.

    k >= p - 1 is left out: supports covering p + 1 points are the walk's
    case, and there the case table's AGL(3,2) gap at p = 7 would make the
    failure count depend on the seed.
    """
    weights = {k: comb(p, k) * comb(p, p - k) for k in range(p - 1)}
    total = sum(weights.values())
    exact = {k: count * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[: count - sum(counts.values())]:
        counts[k] += 1
    return {k: c for k, c in counts.items() if c}


def alt_identify_setup(seed):
    rng = random.Random(seed)
    ops = []
    for p, count in ALT_PAIR_COUNTS:
        sigma = constructions.natural_class(p, p).sigma
        for _ in range(count):
            g = random_even(p, rng)
            tau = Permutation(checks.compose(checks.compose(g, sigma.images), checks.inverse(g)))
            ops.append(Op(rack, "type_d_pair", (sigma, tau), ("pair", p)))
    for p, count in ALT_FW_COUNTS:
        for shared, pairs in overlap_counts(p, count).items():
            for _ in range(pairs):
                points = rng.sample(range(1, 2 * p + 1), 2 * p)
                s_points = points[:p]
                t_points = rng.sample(s_points, shared) + rng.sample(points[p:], p - shared)
                rng.shuffle(t_points)
                s = Permutation.cycle(s_points, 2 * p)
                t = Permutation.cycle(t_points, 2 * p)
                ops.append(Op(classify, "fw_identify", (s, t), ("fw", p)))
    p, m = WALK
    sigma = constructions.natural_class(p, m).sigma
    walk = [Op(classify, "fw_identify", (sigma, tau), ("walk", p)) for tau in constructions.class_elements(p, m)]
    # the walk keeps class order; the seeded calls are shuffled and spread
    # evenly through it, so a slow spell of the host hits every kind alike
    rng.shuffle(ops)
    step = len(walk) // (len(ops) + 1)
    out = []
    for i, op in enumerate(ops):
        out.extend(walk[i * step : (i + 1) * step])
        out.append(op)
    out.extend(walk[len(ops) * step :])
    return out


def summarize(op, result):
    """A comparable record of one operation's output."""
    if isinstance(result, Exception):
        return ("error", str(result))
    if op.name == "type_d_pair":
        return (result.verdict, result.subgroup_order)
    if op.name == "fw_identify":
        return (result.tag, result.m, result.order)
    return (result.free_rank, tuple(result.torsion))


def alt_identify_check(ops, summaries, seed):
    problems = []
    closure_candidates = []
    gap_failures = 0
    for op, out in zip(ops, summaries):
        kind, p = op.label
        s, t = op.args[0].images, op.args[1].images
        if out[0] == "error":
            if kind != "walk":
                problems.append("%s p=%d failed: %s" % (kind, p, out[1]))
            else:
                gap_failures += 1
                problems.extend(checks.check_no_row_failure(p, s, t, out[1]))
            continue
        if kind == "pair":
            problems.extend(checks.check_pair(p, s, t, out[0], out[1], witness_expected=(p != 11)))
        else:
            problems.extend(checks.check_identification(p, s, t, *out))
            if kind == "walk" or p == 7:
                closure_candidates.append((s, t, out[2]))
    if gap_failures not in (0, WALK_GAP_PAIRS):
        problems.append("%d walk failures a round, not the %d AGL(3,2) pairs" % (gap_failures, WALK_GAP_PAIRS))
    for s, t, order in checks.seeded_subset(closure_candidates, 10, seed):
        problems.extend(checks.check_order_by_closure([s, t], order))
    return problems


# -- linear-search ------------------------------------------------------------

# (k, r, p): PSL_k(r) on its (r^k - 1)/(r - 1) = p projective points
LINEAR_GROUPS = ((3, 3, 13), (2, 16, 17))


def linear_search_setup(seed):
    rng = random.Random(seed)
    ops = []
    for k, r, p in LINEAR_GROUPS:
        group = constructions.psl_permutation_group(k, r)
        reps = constructions.order_p_class_reps(group, p, seed=rng.randrange(2**31))
        first = reps[0]
        for second in reps[1:]:
            if not groups.alternating_conjugate(first, second, p):
                continue
            for tau in groups.conjugacy_class_list(group, second):
                ops.append(Op(rack, "type_d_pair", (first, tau), ("linear", p, group.order)))
    return ops


def linear_search_check(ops, summaries, seed):
    problems = []
    closure_candidates = []
    for op, out in zip(ops, summaries):
        _, p, group_order = op.label
        s, t = op.args[0].images, op.args[1].images
        if out[0] == "error":
            problems.append("type_d_pair p=%d failed: %s" % (p, out[1]))
            continue
        problems.extend(checks.check_pair(p, s, t, out[0], out[1], group_order=group_order, decide_ax2=True))
        if out[0] != "Ax1Fail":
            closure_candidates.append((s, t, out[1]))
    for s, t, order in checks.seeded_subset(closure_candidates, 6, seed):
        problems.extend(checks.check_order_by_closure([s, t], order))
    return problems


# -- cohomology ---------------------------------------------------------------

H2_REPEATS = 20  # H_2 of the 12-element rack per round, about 4 s


def cohomology_setup(seed):
    """The subrack of the (5,5) class closed from sigma and a seeded tau,
    with its elements in a seeded order. A tau that is not sigma^-1
    generates A_5 with sigma, so the subrack is the whole 12-element class,
    as criterion 8 closes its 24-element subrack of the (7,7) class from a
    pair."""
    rng = random.Random(seed)
    five = rack.class_rack(5, 5)
    members = ()
    while len(members) != five.size:
        members = rack.subrack_closure(five, {0, rng.randrange(1, five.size)})
    elements = [five.elements[i] for i in sorted(members)]
    rng.shuffle(elements)
    h2_rack = rack.conjugation_rack(elements)
    return [Op(homology, "second_homology", (h2_rack,), ("h2", 12)) for _ in range(H2_REPEATS)]


def cohomology_check(ops, summaries, seed):
    problems = []
    references = {}
    for op, out in zip(ops, summaries):
        table = op.args[0].table
        if out[0] == "error":
            problems.append("second_homology on %d elements failed: %s" % (len(table), out[1]))
            continue
        if id(table) not in references:
            references[id(table)] = checks.H2Reference(table, seed=seed)
        problems.extend(references[id(table)].check(*out))
    return problems


WORKLOADS = {
    "alt-identify": (alt_identify_setup, alt_identify_check),
    "linear-search": (linear_search_setup, linear_search_check),
    "cohomology": (cohomology_setup, cohomology_check),
}
