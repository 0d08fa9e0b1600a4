"""Nested mass-carrying interval hierarchies: selection, construction,
exact masses, separation, and local-dimension reports."""

import json
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from billiardlab import cantor, fixedpoint
from billiardlab.cantor import (DEFAULT_MATERIALIZE_CAP, DEFAULT_SCAN_CAP,
                                LevelInterval, _Builder, build_hierarchy,
                                local_dimension_report, select_sequence,
                                separation_report)
from billiardlab.circle import CirclePoint, continued_fraction
from billiardlab.dimension import dim_lb_estimate
from billiardlab.errors import CapTooSmall, DepthUnreachable, EmptyLevel
from billiardlab.fixedpoint import (count_arc, count_arcs, from_fixed,
                                    index_range)

BITS = 192


def golden(bits=BITS):
    return CirclePoint.make("(sqrt(5)-1)/2", bits)


@pytest.fixture(scope="module")
def golden_cf():
    return continued_fraction(golden(), max_depth=256)


@pytest.fixture(scope="module")
def golden_h3():
    return build_hierarchy(golden(), 2, 1, [1, -2, 1597])


# ---------------------------------------------------------------------------
# independent oracle: direct mpf enumeration, no fixed point, no floor sums
# ---------------------------------------------------------------------------

def _naive_chain(omega_cp, mu, m, depth, margin):
    """Reimplements selection and construction by brute enumeration:
    candidate magnitudes are scanned in convergent order and accepted on
    the same published conditions (growth margin, separation certificate
    over the full index-difference range, per-parent density bounds,
    no childless parent), and children are classified by direct mpf
    center-distance comparisons."""
    bits = omega_cp.precision_bits
    cf = continued_fraction(omega_cp, max_depth=256)
    with mp.workprec(bits + 32):
        om = omega_cp.value
        mu_m = mpf(mu)
        seq, levels = [], []
        parents = None
        parent_half = None
        log_prod = mpf(0)
        r_next = 1
        for k in range(1, depth + 1):
            sign = 1 if ((k - 1) % (2 * m)) <= m - 1 else -1
            res = k % m
            chosen = None
            for r in range(r_next, cf.validated_depth + 1):
                q = cf.denominator(r)
                if seq and q <= abs(seq[-1]):
                    continue
                if k > 1 and log_prod > margin * mp.log(q):
                    continue
                half = mp.power(2 * q, -mu_m) / 2
                sep = min(min((d * om) % 1, 1 - (d * om) % 1)
                          for d in range(1, q + 1))
                if sep <= 2 * half:
                    continue
                j_lo, j_hi = (q, 2 * q) if sign > 0 else (-2 * q, -q)
                pts = [(j, (j * om) % 1) for j in range(j_lo, j_hi + 1)
                       if j % m == res]
                if parents is None:
                    if not (Fraction(1, 2) <= Fraction(len(pts), q) <= 2):
                        continue
                    children = sorted((v, Fraction(1, len(pts)))
                                      for _, v in pts)
                else:
                    buckets = [[] for _ in parents]
                    counts_in = [0] * len(parents)
                    for _, v in pts:
                        for i, (cen, _) in enumerate(parents):
                            d = abs(v - cen)
                            d = min(d, 1 - d)
                            if d <= parent_half:
                                counts_in[i] += 1
                            if d <= parent_half - half:
                                buckets[i].append(v)
                    length = 2 * parent_half
                    if not all(length / 2 <= mpf(c) / q <= 2 * length
                               for c in counts_in):
                        continue
                    if any(not b for b in buckets):
                        continue
                    children = sorted(
                        (v, parents[i][1] / len(buckets[i]))
                        for i, b in enumerate(buckets) for v in b)
                chosen = sign * q
                r_next = r + 1
                break
            assert chosen is not None, f"oracle exhausted at step {k}"
            seq.append(chosen)
            log_prod += mp.log(abs(chosen))
            parents = children
            parent_half = half
            levels.append(children)
        return seq, levels


def _assert_matches_oracle(omega_cp, mu, m, depth, margin):
    oracle_seq, oracle_levels = _naive_chain(omega_cp, mu, m, depth, margin)
    cf = continued_fraction(omega_cp, max_depth=256)
    h = select_sequence(cf, mu, m, depth, margin)
    assert list(h.sequence) == oracle_seq
    assert h.levels == build_hierarchy(omega_cp, mu, m, h.sequence).levels
    bits = omega_cp.precision_bits
    with mp.workprec(bits + 32):
        tol = mpf(2) ** (-bits + 48)
        for lev, olev in zip(h.levels, oracle_levels):
            assert lev.count == len(lev.intervals) == len(olev)
            assert lev.ambiguous == 0
            for iv, (oc, omass) in zip(lev.intervals, olev):
                assert abs(from_fixed(iv.center_fp, bits) - oc) < tol
                assert lev.child_mass[iv.parent] == omass
    return h


def test_matches_oracle_golden():
    h = _assert_matches_oracle(golden(), 2, 1, 4, 0.5)
    assert h.sequence == (1, -2, 13, -987)


def test_matches_oracle_residue_two():
    h = _assert_matches_oracle(golden(), 2, 2, 4, 1.0)
    assert h.sequence == (1, 3, -34, -2584)
    assert h.residue_schedule == ((1, 1), (0, 1), (1, -1), (0, -1))


def test_matches_oracle_silver_fractional_exponent():
    om = CirclePoint.make("sqrt(2)-1", BITS)
    h = _assert_matches_oracle(om, 1.5, 1, 3, 1.0)
    assert h.sequence == (2, -5, 70)


def test_matches_oracle_skips_empty_level():
    # At step 2 the candidate -4 passes the density check but leaves a
    # level-1 parent without a certified child, so selection moves on.
    om = CirclePoint.make("sqrt(3)-1", BITS)
    h = _assert_matches_oracle(om, 2, 1, 3, 0.6)
    assert h.sequence == (1, -11, 571)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_small_margin_forces_sparse_jump(golden_cf):
    # log 2 <= 0.1 log q forces q >= 1023.6; the next convergent
    # denominator past that is 1597.
    assert select_sequence(golden_cf, 2, 1, 3, 0.1).sequence == (1, -2, 1597)


def test_selected_sequences_satisfy_growth_margin(golden_cf):
    for margin in (0.1, 0.5):
        seq = select_sequence(golden_cf, 2, 1, 3, margin).sequence
        log_prod = 0.0
        for k, n in enumerate(seq, 1):
            if k > 1:
                assert log_prod <= margin * math.log(abs(n))
            log_prod += math.log(abs(n))


def test_selected_magnitudes_are_increasing_convergents(golden_cf):
    seq = select_sequence(golden_cf, 2, 1, 4, 0.5).sequence
    denoms = {q for _, q in golden_cf.convergents}
    assert all(abs(n) in denoms for n in seq)
    assert all(abs(b) > abs(a) for a, b in zip(seq, seq[1:]))


def test_select_validates_arguments(golden_cf):
    with pytest.raises(ValueError):
        select_sequence(golden_cf, 2, 1, 0, 0.5)
    with pytest.raises(ValueError):
        select_sequence(golden_cf, 2, 1, 2, 0.0)
    with pytest.raises(ValueError):
        select_sequence(golden_cf, 1, 1, 2, 0.5)   # mu must exceed 1


def test_select_depth_unreachable_on_truncated_expansion():
    cf = continued_fraction(golden(), max_depth=6)
    with pytest.raises(DepthUnreachable):
        select_sequence(cf, 2, 1, 3, 0.1)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def _tally(lev):
    """Per-parent count of a stored level's intervals."""
    out = [0] * len(lev.child_counts)
    for iv in lev.intervals:
        out[iv.parent] += 1
    return tuple(out)


def _check_invariants(h):
    # Level by level: each parent's mass splits evenly among its children,
    # a stored level's intervals tally to its counts and lie inside their
    # parents, and only the deepest level may be counted.
    scale = 1 << h.precision_bits
    parent_mass = [Fraction(1)]   # level 1's one parent is the whole circle
    for k, lev in enumerate(h.levels, 1):
        counts = lev.child_counts
        assert len(counts) == len(lev.child_mass) == len(parent_mass)
        assert all(c >= 1 for c in counts)
        for c, w, pm in zip(counts, lev.child_mass, parent_mass):
            assert c * w == pm
        assert lev.mass_total() == 1
        if lev.intervals is None:
            assert k == h.depth
            continue
        assert _tally(lev) == counts
        if k > 1:
            par = h.levels[k - 2]
            for iv in lev.intervals:
                d = (iv.center_fp - par.intervals[iv.parent].center_fp) % scale
                assert min(d, scale - d) <= par.half_fp - lev.half_fp
        parent_mass = [lev.child_mass[iv.parent] for iv in lev.intervals]
    materialized = [k for k in range(1, h.depth + 1)
                    if h.levels[k - 1].intervals is not None]
    for a, b in zip(materialized, materialized[1:]):
        assert h.level_union(b).is_subset_of(h.level_union(a))


def test_two_level_structure_exact(golden_h3):
    # Level 1: centers at omega and 2*omega, each of mass 1/2; level 2:
    # the single certified child of each, at -4*omega and -3*omega.
    h = golden_h3
    bits = h.precision_bits
    with mp.workprec(bits + 16):
        om = h.cf.omega.value
        tol = mpf(2) ** (-bits + 48)
        lv1, lv2 = h.levels[0], h.levels[1]
        assert [iv.j for iv in lv1.intervals] == [2, 1]
        assert [iv.j for iv in lv2.intervals] == [-3, -4]
        for lev, js in ((lv1, (2, 1)), (lv2, (-3, -4))):
            for iv, j in zip(lev.intervals, js):
                assert abs(from_fixed(iv.center_fp, bits) - (j * om) % 1) < tol
                assert lev.child_mass[iv.parent] == Fraction(1, 2)


def test_hierarchy_invariants_hold(golden_h3):
    _check_invariants(golden_h3)
    assert [lev.count for lev in golden_h3.levels] == [2, 2, 200]
    assert [lev.ambiguous for lev in golden_h3.levels] == [0, 0, 0]


def test_interval_lengths_are_exact_powers(golden_h3):
    h = golden_h3
    with mp.workprec(h.precision_bits + 64):
        scale = 1 << h.precision_bits
        for lev in h.levels:
            exact = mp.power(2 * abs(lev.n_k), -h.mu) * scale
            assert abs(2 * lev.half_fp - exact) <= 2


def test_index_ranges_follow_schedule(golden_h3):
    for lev, (res, sign) in zip(golden_h3.levels, golden_h3.residue_schedule):
        n_abs = abs(lev.n_k)
        for iv in lev.intervals:
            assert iv.j % golden_h3.m == res
            assert (1 if iv.j > 0 else -1) == sign
            assert n_abs <= abs(iv.j) <= 2 * n_abs


def test_density_condition_post_hoc(golden_h3):
    # Recount by direct enumeration: level-3 candidates against level-2
    # parents must satisfy |I|/2 <= count/|n_3| <= 2|I|.
    h = golden_h3
    bits = h.precision_bits
    with mp.workprec(bits + 32):
        om = h.cf.omega.value
        pts = [(j * om) % 1 for j in range(1597, 3195)]
        par = h.levels[1]
        half = from_fixed(par.half_fp, bits)
        length = 2 * half
        for iv in par.intervals:
            cen = from_fixed(iv.center_fp, bits)
            count = sum(1 for v in pts
                        if min(abs(v - cen), 1 - abs(v - cen)) <= half)
            assert length / 2 <= mpf(count) / 1597 <= 2 * length


def test_mass_upper_bound_chain(golden_cf):
    # For mu = 2 the level-(k+1) maximum mass is bounded by
    # 2^(3k) * |n_1|^2 / |n_(k+1)| * prod_(i=2..k) |n_i|.
    h = build_hierarchy(golden(), 2, 1, [1, -2, 13, -987])
    seq = [abs(n) for n in h.sequence]
    for k in range(1, h.depth):
        bound = Fraction(2 ** (3 * k) * seq[0] ** 2, seq[k])
        for i in range(1, k):
            bound *= seq[i]
        assert h.levels[k].max_mass() <= bound


def test_empty_level_witness():
    # For [1, -2, 3] the candidate centers 4*omega and 5*omega each land
    # about 0.056 from the nearest level-2 center, outside the 1/32-wide
    # parents, so both parents lose all children.
    with pytest.raises(EmptyLevel):
        build_hierarchy(golden(), 2, 1, [1, -2, 3])
    # the message names the first empty parent, and the failed extension
    # leaves the builder's levels as they were
    b = _Builder(continued_fraction(golden(), max_depth=256), 2, 1,
                 DEFAULT_SCAN_CAP, DEFAULT_MATERIALIZE_CAP)
    b.extend(1, 1, final=False)
    b.extend(-2, 2, final=False)
    with pytest.raises(EmptyLevel) as err:
        b.extend(3, 3, final=True)
    assert str(err.value) == "parent 0 at level 3 keeps no certified children"
    assert len(b.levels) == 2


def test_build_validates_sequences():
    om = golden()
    with pytest.raises(ValueError):
        build_hierarchy(om, 2, 1, [])
    with pytest.raises(ValueError):
        build_hierarchy(om, 2, 1, [-1])            # sign schedule
    with pytest.raises(ValueError):
        build_hierarchy(om, 2, 1, [1, 2])          # sign schedule at k=2
    with pytest.raises(ValueError):
        build_hierarchy(om, 2, 1, [1, -2, 2])      # not increasing
    with pytest.raises(ValueError):
        build_hierarchy(om, 2, 1, [1, -4])         # 4 is not a denominator
    with pytest.raises(ValueError):
        build_hierarchy(om, 2, 1, [1, 0])
    with pytest.raises(ValueError):
        build_hierarchy(om, 1, 1, [1])             # mu must exceed 1
    with pytest.raises(ValueError):
        build_hierarchy(om, 2, 0, [1])             # m must be positive


def test_build_rejects_uncertified_separation():
    # At mu = 1.2 the level-1 interval length 2^(-1.2) ~ 0.435 exceeds
    # the worst orbit gap ||omega|| ~ 0.382, so adjacent intervals
    # could overlap and construction refuses.
    with pytest.raises(ValueError):
        build_hierarchy(golden(), "1.2", 1, [1])


# ---------------------------------------------------------------------------
# counted levels and caps
# ---------------------------------------------------------------------------

def test_counted_final_level_matches_enumerated():
    om = golden()
    seq = [1, -2, 13, -987]
    h_full = build_hierarchy(om, 2, 1, seq)
    h_cnt = build_hierarchy(om, 2, 1, seq, scan_cap=500)
    assert [lev.materialized for lev in h_full.levels] == [True] * 4
    assert [lev.materialized for lev in h_cnt.levels] == [True] * 3 + [False]
    for lev_f, lev_c in zip(h_full.levels, h_cnt.levels):
        assert _tally(lev_f) == lev_c.child_counts
    last_f, last_c = h_full.levels[-1], h_cnt.levels[-1]
    assert last_c.ambiguous == 0
    assert last_f.child_mass == last_c.child_mass
    _check_invariants(h_cnt)


def test_scan_walks_exactly_the_points_a_full_scan_keeps():
    # level 3 of [1, -3, 4181]: 4182 lattice points under three parents;
    # the hit walk must give the tuple a point-by-point scan gives
    b = _Builder(continued_fraction(golden(), max_depth=256), 2, 1,
                 DEFAULT_SCAN_CAP, DEFAULT_MATERIALIZE_CAP)
    b.extend(1, 1, final=False)
    b.extend(-3, 2, final=False)
    res, p_lo, p_hi = b._lattice(4181, 3)
    parent = b.levels[-1]
    centers = [iv.center_fp for iv in parent.intervals]
    allow = parent.half_fp - b.half_fp(4181) - b.guard(4181)
    got = b._scan(res, p_lo, p_hi, centers, allow)

    scale = b.scale
    expected = []
    for p in range(p_lo, p_hi + 1):
        j = p + res
        c = j * b.w % scale
        owners = [i for i, pc in enumerate(centers)
                  if min((c - pc) % scale, (pc - c) % scale) <= allow]
        assert len(owners) <= 1
        if owners:
            expected.append(LevelInterval(j, c, owners[0]))
    expected.sort(key=lambda iv: iv.center_fp)
    assert p_hi - p_lo + 1 == 4182 and len(centers) == 3
    assert got == tuple(expected)
    assert len({iv.parent for iv in got}) == 3


def test_materialize_cap_collapses_to_counts():
    om = golden()
    h_ref = build_hierarchy(om, 2, 1, [1, -2, 1597])
    h_cnt = build_hierarchy(om, 2, 1, [1, -2, 1597], materialize_cap=100)
    assert not h_cnt.levels[-1].materialized
    assert h_cnt.levels[-1].count == 200
    assert h_cnt.levels[2].child_counts == _tally(h_ref.levels[2])
    _check_invariants(h_cnt)


def test_intermediate_level_beyond_caps_is_refused():
    with pytest.raises(CapTooSmall, match="level 3 needs"):
        build_hierarchy(golden(), 2, 1, [1, -2, 13, -987], scan_cap=5)
    # 200 certified children at level 3 fit the scan but not the store
    with pytest.raises(CapTooSmall, match="level 3 retains 200"):
        build_hierarchy(golden(), 2, 1, [1, -2, 1597, -121393],
                        materialize_cap=100)


@pytest.mark.parametrize("caps", [{"scan_cap": 5}, {"materialize_cap": 5}])
def test_root_level_obeys_both_caps(caps):
    # Level 1 of [13] has 14 lattice points, above either cap: as the final
    # level it is counted, its one parent being the whole circle, and below
    # it no level can be built.
    h = build_hierarchy(golden(), 2, 1, [13], **caps)
    root = h.levels[0]
    assert not root.materialized and root.count == 14
    assert root.child_counts == (14,)
    assert root.child_mass == (Fraction(1, 14),)
    assert h.to_json_obj()["levels"][0]["per_parent"] == [
        {"parent_center": None, "child_count": 14, "child_mass": "1/14"}]
    with pytest.raises(CapTooSmall):
        build_hierarchy(golden(), 2, 1, [13, -987], **caps)


# ---------------------------------------------------------------------------
# per-parent child counts at Cantor scale
# ---------------------------------------------------------------------------

DEEP = {  # name: (omega, bits, the sequence select_sequence picks at depth 4)
    "golden512": ("(sqrt(5)-1)/2", 512,
                  (1, -2, 1597, -150804340016807970735635273952047185)),
    "e1024": ("e-2", 1024,
              (1, -3, 190435,
               -5085525453460186301777867529962655859538011626631066055111)),
}


@pytest.fixture(scope="module", params=sorted(DEEP))
def deep_builder(request):
    """A builder holding levels 1-3 of a depth-4 sequence, and that
    sequence's level-4 entry."""
    omega, bits, seq = DEEP[request.param]
    b = _Builder(continued_fraction(CirclePoint.make(omega, bits),
                                    max_depth=2048),
                 2, 1, DEFAULT_SCAN_CAP, DEFAULT_MATERIALIZE_CAP)
    for k, n in enumerate(seq[:3], 1):
        b.extend(n, k, final=False)
    return b, seq[3]


def _per_parent(b, m, res, p_lo, p_hi, js, allow):
    return [count_arc(b.w, b.scale, m, res, p_lo, p_hi, j * b.w % b.scale,
                      allow) for j in js]


def test_count_arcs_is_count_arc_at_cantor_scale(deep_builder):
    # the 200 (golden ratio, 512 bits) or 10,580 (e - 2, 1,024 bits)
    # level-3 parents against level-4 index ranges near 10^35 or 10^58, at
    # the allowances extend and well_holds pass and at a wider one whose
    # windows hold hits.  An oracle count in the deep case is two floor
    # sums on 10^58-sized ranges, so there it checks every twentieth parent
    # and the two that set the window ends, at fewer classes and
    # allowances.
    b, n = deep_builder
    js = [iv.j for iv in b.levels[-1].intervals]
    assert len(js) in (200, 10580)
    q = abs(n)
    half, g, parent_half = b.half_fp(q), b.guard(q), b.levels[-1].half_fp
    if len(js) == 200:
        checked = range(len(js))
        classes = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
        allows = (parent_half - half - g, parent_half - half + g, half + g,
                  half - g, b.scale >> 14)
    else:
        checked = sorted({*range(0, len(js), 20), js.index(min(js)),
                          js.index(max(js))})
        classes = ((1, 0), (2, 1), (3, 2))
        allows = (parent_half - half - g, b.scale >> 14)
    lo, hi = sorted((n, 2 * n))
    for m, res in classes:
        p_lo, p_hi = index_range(lo, hi, m, res)
        assert 10**34 < abs(p_lo) < 10**59
        for allow in allows:
            got = count_arcs(b.w, b.scale, m, res, p_lo, p_hi, js, allow)
            assert [got[i] for i in checked] == _per_parent(
                b, m, res, p_lo, p_hi, [js[i] for i in checked], allow)


def test_count_arcs_at_cantor_scale_counts_hits_on_window_ends(deep_builder):
    # Parents j = m*e + res + x, for e one of the range ends and x a
    # level-3 index or 0: the parent x = 0 sees the point p = e itself
    # exactly at its centre, so the hit falls on the first or last index
    # of a window or of the reference range, and one index outside them.
    b, n = deep_builder
    xs = [0] + [iv.j for iv in b.levels[-1].intervals][:100]
    allow = b.levels[-1].half_fp - b.half_fp(abs(n)) - b.guard(abs(n))
    lo, hi = sorted((n, 2 * n))
    for m, res in ((1, 0), (2, 1), (3, 2)):
        p_lo, p_hi = index_range(lo, hi, m, res)
        for end in (p_lo - 1, p_lo, p_hi, p_hi + 1):
            for xs_ in (xs, [-x for x in xs]):
                js = [m * end + res + x for x in xs_]
                got = count_arcs(b.w, b.scale, m, res, p_lo, p_hi, js, allow)
                assert got == _per_parent(b, m, res, p_lo, p_hi, js, allow)


def test_count_arcs_edges_at_cantor_scale(deep_builder, monkeypatch):
    # the whole circle counts every index without a window walk, which
    # for parents 10^40 apart would list 10^40 indices; a negative
    # allowance or an empty range counts nothing, and no parents give no
    # counts
    b, n = deep_builder
    w, scale = b.w, b.scale
    js = [iv.j for iv in b.levels[-1].intervals][:50] + [10**40, -10**40]
    lo, hi = sorted((n, 2 * n))
    p_lo, p_hi = index_range(lo, hi, 2, 1)
    with monkeypatch.context() as mp_:
        mp_.setattr(fixedpoint, "arc_hits", None)
        for allow in (scale // 2, scale):
            assert count_arcs(w, scale, 2, 1, p_lo, p_hi, js, allow) == [
                p_hi - p_lo + 1] * len(js)
    assert count_arcs(w, scale, 2, 1, p_lo, p_hi, js, -1) == [0] * len(js)
    assert count_arcs(w, scale, 2, 1, p_lo, p_lo - 1, js, scale) == [0] * len(js)
    assert count_arcs(w, scale, 2, 1, p_lo, p_lo - 1, js, 0) == [0] * len(js)
    assert count_arcs(w, scale, 2, 1, p_lo, p_hi, [], 0) == []


@pytest.mark.parametrize("name", sorted(DEEP))
def test_every_level_keeps_its_per_parent_counts_and_masses(name):
    # golden512 is the cantor_dim default run.  Stored or counted, every
    # level splits its parents' masses over its per-parent counts, and a
    # stored level's intervals tally to those counts (_check_invariants).
    omega, bits, seq = DEEP[name]
    cf = continued_fraction(CirclePoint.make(omega, bits), max_depth=2048)
    h = select_sequence(cf, 2, 1, 4, 0.1)
    assert h.sequence == seq
    assert [lev.materialized for lev in h.levels] == [True] * 3 + [False]
    _check_invariants(h)


PINNED_WORK = {  # name: (floor_sum calls, first_hit calls) of select_sequence
    "golden512": (24, 230),
    "e1024": (24, 10610),
}


@pytest.mark.parametrize("name", sorted(PINNED_WORK))
def test_select_sequence_work_is_pinned(name, monkeypatch):
    # two floor sums per residue class in each count_arcs call, and window
    # hits in place of per-parent counts; the same on a second run
    omega, bits, seq = DEEP[name]
    calls = {"floor_sum": 0, "first_hit": 0}
    for fn in calls:
        def counted(*args, _fn=getattr(fixedpoint, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(fixedpoint, fn, counted)
    cf = continued_fraction(CirclePoint.make(omega, bits), max_depth=2048)
    for _ in range(2):
        calls.update(floor_sum=0, first_hit=0)
        assert select_sequence(cf, 2, 1, 4, 0.1).sequence == seq
        assert (calls["floor_sum"], calls["first_hit"]) == PINNED_WORK[name]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_local_dimension_report_values(golden_h3):
    report = local_dimension_report(golden_h3)
    assert [k for k, _ in report] == [1, 2, 3]
    with mp.workprec(golden_h3.precision_bits + 16):
        # level 1: two children of mass 1/2 at length 1/4 give exactly
        # log(2) / (2 log 2) = 1/2
        assert abs(report[0][1] - mpf(1) / 2) < mpf(2) ** -100
        assert abs(report[1][1] - mpf(1) / 4) < mpf(2) ** -100
        assert abs(report[2][1] - mpf("0.328312")) < mpf("1e-5")


def test_local_dimension_report_needs_two_levels():
    h = build_hierarchy(golden(), 2, 1, [1])
    with pytest.raises(ValueError):
        local_dimension_report(h)


def test_separation_report_flags_reciprocal_bound(golden_h3):
    rows = separation_report(golden_h3)
    assert [row["level"] for row in rows] == [1, 2, 3]
    lv1, lv2, lv3 = rows
    assert lv1["claimed_ok"] and lv1["companion_ok"]
    # ||2 omega|| = 0.23606... sits below 1/(2+2) but above 1/(3+2):
    # the reciprocal comparison bound fails while the companion holds.
    assert abs(lv2["orbit_min_distance"] - mpf("0.2360679")) < mpf("1e-6")
    assert not lv2["claimed_ok"]
    assert lv2["companion_ok"]
    assert abs(lv2["measured_min_distance"] - mpf("0.3819660")) < mpf("1e-6")
    assert not lv3["claimed_ok"]
    assert lv3["companion_ok"]
    # retained centers are always at least the orbit gap apart
    for row in rows:
        if row["measured_min_distance"] is not None:
            assert row["measured_min_distance"] >= row["orbit_min_distance"]


def test_reports_read_the_hierarchy_expansion(golden_h3, monkeypatch):
    # The hierarchy keeps the continued fraction it was built from, so the
    # separation report expands omega no second time.
    sep = separation_report(golden_h3)

    def no_expansion(*args, **kwargs):
        raise AssertionError("continued_fraction called by a report")

    monkeypatch.setattr(cantor, "continued_fraction", no_expansion)
    assert separation_report(golden_h3) == sep


def test_box_dimension_consistency(golden_h3):
    # The deepest materialized level's ratio report must not exceed the
    # box-count slope of its union over the level-length ladder by more
    # than 0.05.
    h = golden_h3
    union = h.level_union(3)
    fit = dim_lb_estimate([(h.nominal_length(k), union) for k in (1, 2, 3)])
    deepest = local_dimension_report(h)[-1][1]
    assert deepest <= fit.slope + mpf("0.05")


# ---------------------------------------------------------------------------
# deep high-precision run and determinism
# ---------------------------------------------------------------------------

def test_deep_golden_hierarchy_dimension_floor():
    om = golden(512)
    cf = continued_fraction(om, max_depth=2048)
    h = select_sequence(cf, 2, 1, 4, 0.1)
    seq = h.sequence
    assert seq[:3] == (1, -2, 1597)
    assert abs(seq[3]) > 10 ** 34
    assert h.levels == build_hierarchy(om, 2, 1, seq).levels
    assert h.depth == 4
    assert [lev.materialized for lev in h.levels] == [True, True, True, False]
    assert all(lev.ambiguous == 0 for lev in h.levels)
    for lev in h.levels:
        assert lev.mass_total() == 1
    report = local_dimension_report(h)
    deepest = report[-1][1]
    assert deepest >= mpf("0.4")
    assert deepest <= 1
    _check_invariants(h)


def test_json_export_is_deterministic(golden_h3):
    h2 = build_hierarchy(golden(), 2, 1, [1, -2, 1597])
    s1 = json.dumps(golden_h3.to_json_obj(), sort_keys=True)
    s2 = json.dumps(h2.to_json_obj(), sort_keys=True)
    assert s1 == s2
    obj = json.loads(s1)
    assert obj["m"] == 1 and obj["sequence"] == [1, -2, 1597]
    assert len(obj["levels"]) == 3
    assert len(obj["levels"][2]["intervals"]) == 200
    assert obj["levels"][2]["ambiguous_discarded"] == 0


def test_json_export_counted_level():
    h = build_hierarchy(golden(), 2, 1, [1, -2, 1597], materialize_cap=100)
    obj = h.to_json_obj()
    deep = obj["levels"][2]
    assert "per_parent" in deep
    assert len(deep["per_parent"]) == 2
    assert sum(row["child_count"] for row in deep["per_parent"]) == 200
    with pytest.raises(ValueError):
        h.level_union(3)
