"""Space-filling designs: random and maximin Latin hypercubes, domain scaling.

A Latin hypercube design puts exactly one point in each of the n equal strata
of [0, 1] per dimension.  The maximin variant improves the minimum pairwise
distance of a random start by within-column swaps, which preserve the
stratification by construction.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import integer

KINDS = ("maximin-lhd", "random-lhd")


@dataclass(frozen=True)
class Design:
    """A set of points in the unit hypercube, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(integer("seed", seed, 0))


def random_lhd(n: int, d: int, seed) -> Design:
    """Random Latin hypercube: coordinate k of point i is (perm_k(i) - u)/n.

    perm_k is a uniform random permutation of 1..n and u ~ U(0,1), so each
    column lands exactly once in each stratum [(i-1)/n, i/n).  seed is a
    non-negative integer or a Generator, which the design advances.
    """
    n, d = integer("n", n, 1), integer("d", d, 1)
    rng = _as_rng(seed)
    pts = np.empty((n, d))
    for k in range(d):
        perm = rng.permutation(n) + 1
        pts[:, k] = (perm - rng.uniform(size=n)) / n
    return Design(pts)


def _min_dist_and_crit(d2):
    # Criterion pair from pdist's squared distances: (min pairwise distance,
    # sum of inverse squared distances).  The second breaks ties among
    # equal-min configurations.
    return float(np.sqrt(d2.min())), float(np.sum(1.0 / d2))


# Candidate swaps screened at a time by maximin_lhd.
_SCREEN_BATCH = 32


def _screen_slack(d: int) -> float:
    # Coordinates lie in [0, 1], so a squared distance is a sum of d terms
    # in [0, 1], and both the sweep's sum and the screen's update of a
    # stored one lie within (d + 3)^2 2^-53 of the true value.  The slack is
    # four times the sum of the two bounds.
    return (d + 3) ** 2 * 2.0**-50


def _screen_floor(best_d2: float, d: int) -> float:
    # A screened minimum below this floor belongs to a swap that the sweep
    # rejects early: its own sum is then below best_d2 (1 - 2^-48), and the
    # rounded square root of such a sum is below that of best_d2.
    return best_d2 * (1.0 - 2.0**-48) - _screen_slack(d)


def _lemire(halves, bound: int):
    # numpy's bounded 32-bit draw in [0, bound) from each 32-bit word h, by
    # Lemire's multiply-shift (Lemire 2019, ACM TOMACS 29(1)): (h bound) >> 32,
    # unless the low half of h bound lies below (2^32 - bound) % bound, where
    # numpy rejects h and draws again.  Returns (values, no word rejected).
    m = halves * np.uint64(bound)
    return m >> 32, bool(((m & 0xFFFFFFFF) >= (2**32 - bound) % bound).all())


def _decode_sweeps(words, carry, n: int, d: int):
    # The sweeps' draws decoded from 2 * sweeps raw PCG64 words, as the
    # per-call search makes them: word 2s gives sweep s's double
    # (w >> 11) 2^-53, and the odd words' 32-bit halves, low half first,
    # feed the two bounded draws, after the buffered half `carry` when there
    # is one (None otherwise).  Each sweep takes two halves, so the search
    # ends with the buffer in the state it started in, holding the last
    # word's high half.  Returns (first, partner, coord, that high half), or
    # None when a bounded draw would have rejected its word.
    odd = words[1::2]
    low, high = odd & 0xFFFFFFFF, odd >> 32
    if carry is None:
        to_partner, to_coord = low, high
    else:
        to_partner, to_coord = np.concatenate(([np.uint64(carry)], high[:-1])), low
    partner, partner_ok = _lemire(to_partner, n - 1)
    coord, coord_ok = _lemire(to_coord, d)
    if not (partner_ok and coord_ok):
        return None
    first = (words[0::2] >> 11) * 2.0**-53 < 0.5
    return first.astype(np.intp), partner.astype(np.intp), coord.astype(np.intp), int(high[-1])


def _sweep_draws(rng, n: int, d: int, sweeps: int):
    # Each sweep's draws, in the search's order, as three intp arrays:
    # whether a is the first end of the closest pair, the partner before it
    # skips a, and the column (see maximin_lhd for when they are decoded).
    bitgen = rng.bit_generator
    if isinstance(bitgen, np.random.PCG64) and n >= 3 and d >= 2 and sweeps:
        saved = bitgen.state
        carry = saved["uinteger"] if saved["has_uint32"] else None
        decoded = _decode_sweeps(bitgen.random_raw(2 * sweeps), carry, n, d)
        if decoded is not None:
            first, partner, coord, buffered = decoded
            state = bitgen.state
            state["uinteger"] = buffered
            bitgen.state = state
            return first, partner, coord
        bitgen.state = saved
    # Below 2^31, an int32 draw takes the same 32-bit words as the default
    # int64 one, at half the call's cost.
    random, integers, i32 = rng.random, rng.integers, np.int32
    draws = ((random() < 0.5, integers(n - 1, dtype=i32), integers(d, dtype=i32)) for _ in range(sweeps))
    return np.fromiter(draws, dtype=(np.intp, 3), count=sweeps).T


def maximin_lhd(n: int, d: int, seed, sweeps: int | None = None) -> Design:
    """Maximin Latin hypercube via within-column pair-swap hill climbing.

    Starts from random_lhd and tries `sweeps` (default 100*n, at least 0)
    candidate swaps, each exchanging two entries of one column.  A swap is
    kept when it raises the minimum pairwise distance, or leaves it
    unchanged while lowering the inverse-squared-distance sum.  Swaps always involve one of
    the two currently closest points, the pair that limits the criterion.

    A swap moves only points a and b, so each sweep recomputes only their
    distances to the others, in the same order of summation over the
    coordinates as pdist (Jin, Chen & Sudjianto 2005).  A swap that brings
    a or b closer to some point than the current minimum is rejected
    without the inverse-square sum: the other distances cannot raise the
    minimum back.

    Most sweeps end at that early reject, so the sweeps are screened in
    batches first.  A sweep's draws (which end of the closest pair is a,
    the partner b, the column k) never depend on the design, so all are
    drawn up front in the search's order (see below), and the generator
    ends where the search leaves it.  Up to _SCREEN_BATCH candidate swaps
    at a time are screened against the current design: a's squared
    distances after the swap are d2(a, p) - (x_ak - x_pk)^2 +
    (x_bk - x_pk)^2, and b's likewise.
    A candidate is passed over only when its lowest screened distance lies
    below the current minimum by more than the rounding bound
    _screen_slack(d), so that the sweep would reject it early.  The first
    candidate not passed over runs the sweep in full, and screening resumes
    after it.  The screen never accepts a swap, so the design is bitwise
    the one the sweep-by-sweep search makes.

    The draws are the per-call draws random() < 0.5, integers(n - 1) and
    integers(d) of each sweep in turn, but a PCG64 generator's are decoded
    from one block of 2 * sweeps raw words (bit_generator.random_raw): a
    double is (w >> 11) 2^-53, and each bounded draw takes one 32-bit half
    of a word by Lemire's multiply-shift, as numpy makes them.  PCG64's
    buffered half-word is used first when the search starts with one, and
    the generator's full state is left as the per-call draws leave it.
    The per-call draws are made instead for any other bit generator, for
    n < 3 or d < 2 (numpy draws nothing for a one-value range), and when a
    word would be rejected by Lemire's method, after restoring the saved
    state.  Either way the design and the generator's state are the same.
    """
    n, d = integer("n", n, 2), integer("d", d, 1)
    sweeps = 100 * n if sweeps is None else integer("sweeps", sweeps, 0)
    rng = _as_rng(seed)
    design = random_lhd(n, d, rng)
    # One row per coordinate, so the axis-0 sum below adds coordinate by
    # coordinate, as pdist does.
    cols = design.points.T.copy()
    first, partner, coord = _sweep_draws(rng, n, d, sweeps)

    # d2 holds the squared distances in pdist order, plus a spare last slot
    # that pos[p, p] points at: pos[p, q] is the slot of pair {p, q}, so a
    # point's whole row of distances is scattered by d2[pos[p]] = row, and
    # gathered into the n x n matrix dist = d2[pos].
    i, j = np.triu_indices(n, k=1)
    npairs = len(i)
    pos = np.full((n, n), npairs)
    pos[i, j] = pos[j, i] = np.arange(npairs)
    d2 = np.append(pdist(design.points, "sqeuclidean"), np.inf)
    best_min, best_crit = _min_dist_and_crit(d2[:npairs])
    closest = int(np.argmin(d2[:npairs]))
    dist, floor = d2[pos], _screen_floor(d2[closest], d)
    sweep = 0
    while sweep < sweeps:
        stop = min(sweep + _SCREEN_BATCH, sweeps)
        t = np.arange(stop - sweep)
        a = np.array([j[closest], i[closest]]).take(first[sweep:stop])
        b = partner[sweep:stop]
        b = b + (b >= a)
        ends, k = np.array([a, b]), coord[sweep:stop]
        # sq[0] holds (x_ak - x_pk)^2 for every p, sq[1] the same for b, and
        # the swap trades them: row 0 of `screened` is a's squared distances
        # after it, row 1 b's.
        sq = cols[k, ends][:, :, None] - cols[k]
        sq *= sq
        screened = dist[ends]
        screened -= sq
        screened += sq[::-1]
        # a's distance to b does not change; a point's to itself is no pair.
        screened[0, t, b] = screened[1, t, a] = np.inf
        low = screened.min(axis=2)
        survivors = np.flatnonzero(np.minimum(low[0], low[1]) >= floor)
        if not survivors.size:
            sweep = stop
            continue
        sweep += int(survivors[0])
        a, b, k = int(a[survivors[0]]), int(b[survivors[0]]), int(coord[sweep])
        sweep += 1
        cols[k, a], cols[k, b] = cols[k, b], cols[k, a]
        diff = cols.take((a, b), axis=1)[:, :, None] - cols[:, None, :]
        diff *= diff
        rows = diff.sum(axis=0)
        # A point's distance to itself is no pair; it lands in the spare slot.
        rows[0, a] = rows[1, b] = np.inf
        if math.sqrt(rows.min()) < best_min:
            cols[k, a], cols[k, b] = cols[k, b], cols[k, a]
            continue
        new_d2 = d2.copy()
        new_d2[pos[a]] = rows[0]
        new_d2[pos[b]] = rows[1]
        new_min, new_crit = _min_dist_and_crit(new_d2[:npairs])
        if new_min > best_min or (new_min == best_min and new_crit < best_crit):
            best_min, best_crit, d2 = new_min, new_crit, new_d2
            closest = int(np.argmin(d2[:npairs]))
            dist, floor = d2[pos], _screen_floor(d2[closest], d)
        else:
            cols[k, a], cols[k, b] = cols[k, b], cols[k, a]
    return Design(cols.T.copy())


def scale_points(points, ranges, direction: str = "from_unit") -> np.ndarray:
    """Affine map between the unit hypercube and the original domain.

    direction "from_unit" maps [0,1]^d onto the ranges; "to_unit" inverts it.
    Ranges are (min, max) pairs with max > min.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rng_arr = np.asarray(ranges, dtype=float)
    if rng_arr.ndim != 2 or rng_arr.shape[1] != 2:
        raise ValueError(f"ranges must be a (d, 2) array, got shape {rng_arr.shape}")
    if pts.shape[1] != rng_arr.shape[0]:
        raise ValueError(
            f"dimension mismatch: points have {pts.shape[1]} columns, ranges {rng_arr.shape[0]}"
        )
    lo, hi = rng_arr[:, 0], rng_arr[:, 1]
    width = hi - lo
    if np.any(width <= 0):
        bad = int(np.argmax(width <= 0)) + 1
        raise ValueError(f"zero-width range in dimension {bad}")
    if direction == "from_unit":
        return lo + pts * width
    if direction == "to_unit":
        return (pts - lo) / width
    raise ValueError(f"direction must be 'from_unit' or 'to_unit', got {direction!r}")
