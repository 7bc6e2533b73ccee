import itertools
import math

import numpy as np
import pytest

import oracles
from conftest import as_pairs, make_dataset, random_dataset
from distclust import Dataset, InputError, Point, RepresentativeRecord, SelectionState, StopCriterion
from distclust.datagen import CLUSTER_PARAMS, dataset_spec, generate
from distclust.pipeline import partition
from distclust.representatives import read_records_jsonl, write_records_jsonl


def run_selection(ds, eps, stop, site=0):
    state = SelectionState(ds, eps, site=site)
    return list(state.run(stop)), state


def stat_rep_q(ds, eps):
    """Every object's static representation quality by id: the scores before any pick."""
    return SelectionState(ds, eps).candidate_scores()


# ---------------------------------------------------------------- stat_rep_q

def test_stat_rep_q_isolated_point_is_epsilon():
    ds = make_dataset([(0.0, 0.0), (100.0, 100.0)])
    assert stat_rep_q(ds, 2.0) == {0: 2.0, 1: 2.0}


def test_stat_rep_q_sums_margins_of_all_neighbors():
    # Center object with four neighbors inside the range: the score is the sum
    # of the four (eps - d) margins plus the center's own eps term.
    eps = 2.0
    dists = [0.5, 0.8, 1.2, 1.9]
    coords = [(0.0, 0.0)] + [(d, 0.0) for d in dists]
    ds = make_dataset(coords)
    expected = sum(eps - d for d in dists) + eps
    assert stat_rep_q(ds, eps)[0] == pytest.approx(expected, rel=1e-12)


def test_stat_rep_q_matches_brute_force(rng):
    ds = random_dataset(rng, 100)
    span = ds.coords.max(axis=0) - ds.coords.min(axis=0)
    eps = 0.2 * float(np.sqrt((span * span).sum()))
    pairs = as_pairs(ds)
    assert stat_rep_q(ds, eps) == {pid: oracles.stat_rep_q_brute(pairs, pid, eps) for pid, _ in pairs}


def test_stat_rep_q_rejects_bad_epsilon():
    ds = make_dataset([(0.0, 0.0)])
    for eps in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            SelectionState(ds, eps)


# ----------------------------------------------------------------- dyn_rep_q

def test_dyn_rep_q_equals_stat_when_nothing_chosen(rng):
    ds = random_dataset(rng, 60)
    eps = 1.5
    pairs = as_pairs(ds)
    scores = SelectionState(ds, eps).candidate_scores()
    assert scores == {pid: oracles.dyn_rep_q_brute(pairs, pid, eps, []) for pid, _ in pairs}
    assert scores == {pid: oracles.stat_rep_q_brute(pairs, pid, eps) for pid, _ in pairs}


def test_dyn_rep_q_drops_when_neighbors_get_covered():
    # B (id 0) has neighbors at 0.5, 0.8, 0.9; the first pick, in the group around
    # x = 1.7, covers the two far ones, leaving B its 0.5-neighbor and its own term.
    eps = 1.0
    ds = make_dataset([(0.0, 0.0), (-0.5, 0.0), (0.9, 0.0), (0.8, 0.0), (1.7, 0.0), (1.75, 0.0), (1.65, 0.0)])
    state = SelectionState(ds, eps)
    assert state.candidate_scores()[0] == pytest.approx((1 - 0.5) + (1 - 0.8) + (1 - 0.9) + 1.0)
    list(state.run(StopCriterion.size(1)))
    assert state.coverage_owner.keys() == {2, 3, 4, 5, 6}
    assert state.candidate_scores()[0] == pytest.approx((1 - 0.5) + 1.0)


def test_dyn_rep_q_matches_recompute_after_picks(rng):
    ds = random_dataset(rng, 100)
    eps = 1.2
    records, state = run_selection(ds, eps, StopCriterion.size(5))
    chosen_ids = [r.point.id for r in records]
    pairs = as_pairs(ds)
    assert state.candidate_scores() == {
        pid: oracles.dyn_rep_q_brute(pairs, pid, eps, chosen_ids) for pid, _ in pairs if pid not in chosen_ids}


@pytest.mark.parametrize("dim", [2, 5])
def test_scores_equal_the_loop_sums_bit_for_bit(rng, dim):
    # Same terms in the same ascending-id order as the oracles' plain loops,
    # so the vectorized sums must agree exactly, not just approximately.
    ds = random_dataset(rng, 80, dim=dim, spread=4.0)
    eps = 1.5
    pairs = as_pairs(ds)
    state = SelectionState(ds, eps)
    assert state.candidate_scores() == {pid: oracles.stat_rep_q_brute(pairs, pid, eps) for pid, _ in pairs}
    chosen_ids = [r.point.id for r in state.run(StopCriterion.size(4))]
    assert state.candidate_scores() == {
        pid: oracles.dyn_rep_q_brute(pairs, pid, eps, chosen_ids) for pid, _ in pairs if pid not in chosen_ids}


@pytest.mark.parametrize("dim", [2, 5])
def test_initial_scores_equal_stat_rep_q_bit_for_bit(rng, dim):
    # The constructor takes every row's first score from the graph build, and it must
    # be the very float the definition gives, or tie-breaks could flip. No score reaches
    # 1e300, so nothing is emitted.
    ds = random_dataset(rng, 150, dim=dim, spread=4.0)
    ds = Dataset(ds.ids[::-1], ds.coords[::-1])  # input order unrelated to ids
    pairs = as_pairs(ds)
    for eps in (0.4, 1.5, 3.0):
        state = SelectionState(ds, eps)
        assert list(state.run(StopCriterion.error_bound(1e300))) == []
        assert state.rows_rescored == len(ds)
        assert state.candidate_scores() == {pid: oracles.stat_rep_q_brute(pairs, pid, eps) for pid, _ in pairs}


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_maintained_scores_equal_fresh_scores_bit_for_bit(rng, dim):
    # Each commit re-scores only the rows it touched; every other score must still
    # be the very float the definition gives after every pick.
    n, eps = 200, math.sqrt(dim)
    ds = Dataset(rng.permutation(n), rng.normal(0, 2, size=(n, dim)))
    nbrs = oracles.neighbor_table(as_pairs(ds), eps)
    state = SelectionState(ds, eps)
    assert (state.rows_rescored, state.rescore_passes) == (n, 0)  # first scores come with the graph

    def check():
        chosen = {r.point.id for r in state.chosen}
        covered = {q for c in chosen for q, _ in nbrs[c]}
        assert state.candidate_scores() == oracles.def3_scores_fast(nbrs, eps, covered, set(nbrs) - chosen)

    check()
    for _ in state.run(StopCriterion.size(n + 3)):
        check()
    assert len(state.chosen) == n
    assert state.candidate_scores() == {}


@pytest.mark.parametrize("dim", range(1, 7))
def test_selection_graph_is_symmetric(rng, dim):
    # A commit re-scores only the newly covered objects' own rows, which is
    # right only if b's row lists a whenever a's row lists b. Lattice points put
    # many pairs at exactly eps; shuffled ids keep rows unrelated to the lattice.
    side = max(2, round(120 ** (1 / dim)))
    lattice = np.array(list(itertools.product(range(side), repeat=dim)), dtype=float)
    coords = np.vstack([lattice, 0.1 * lattice, rng.uniform(0, side, size=(40, dim))])
    ds = Dataset(rng.permutation(len(coords)), coords)
    for eps in (1.0, 0.1, float(np.sqrt(2.0)), 1.7):
        state = SelectionState(ds, eps)
        rows = np.repeat(np.arange(len(ds)), np.diff(state._indptr))
        edges = set(zip(rows.tolist(), state._cols.tolist()))
        assert edges == {(b, a) for a, b in edges}
        if eps == 1.0:
            assert (state.index.distances(state._cols, state.index.coords[rows]) == eps).any()


@pytest.mark.parametrize("dim", [2, 5])
def test_batched_scores_equal_row_scores_bit_for_bit(rng, dim):
    # One pass over many rows must give the very floats of one-row passes,
    # before and after objects get covered.
    ds = random_dataset(rng, 120, dim=dim, spread=4.0)
    state = SelectionState(ds, 1.5)
    everything = np.arange(len(ds))
    for _ in range(3):
        row_scores = [state._scores(np.array([pos]))[0] for pos in everything.tolist()]
        assert state._scores(everything) == row_scores
        assert state._scores(everything[::7]) == row_scores[::7]
        list(state.run(StopCriterion.size(len(state.chosen) + 4)))


# ------------------------------------------------------------------- selection

def test_single_point_selection():
    ds = make_dataset([(3.0, 4.0)])
    records, _ = run_selection(ds, 1.0, StopCriterion.error_bound(0.0))
    assert len(records) == 1
    rec = records[0]
    assert (rec.point.id, rec.cov_rad, rec.cov_cnt, rec.seq) == (0, 0.0, 1, 0)


def test_collinear_middle_point_wins():
    # x = 0, 1, 2 with eps 1.5: the middle scores (1.5-1)+(1.5-1)+1.5 = 2.5,
    # the ends only 0.5 + 1.5 = 2.0.
    ds = make_dataset([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert stat_rep_q(ds, 1.5) == {0: 2.0, 1: 2.5, 2: 2.0}
    records, _ = run_selection(ds, 1.5, StopCriterion.size(1))
    assert [r.point.id for r in records] == [1]
    assert records[0].cov_cnt == 3
    assert records[0].cov_rad == 1.0


def test_first_pick_attains_max_stat_rep_q(rng):
    ds = random_dataset(rng, 80)
    eps = 1.4
    pairs = as_pairs(ds)
    best = max((pid for pid, _ in pairs), key=lambda pid: (oracles.stat_rep_q_brute(pairs, pid, eps), -pid))
    records, _ = run_selection(ds, eps, StopCriterion.size(1))
    assert records[0].point.id == best


def test_exact_score_ties_break_to_lowest_id():
    # Two isolated points score exactly eps each; the lower id must come first.
    ds = make_dataset([(50.0, 50.0), (0.0, 0.0)])
    records, _ = run_selection(ds, 1.0, StopCriterion.size(2))
    assert [r.point.id for r in records] == [0, 1]


@pytest.mark.parametrize("shape, eps", [
    ((40,), 1.0), ((40,), 1.5), ((9, 9), 1.0), ((9, 9), 1.5), ((9, 9), 2.3),
    ((5, 5, 5), 1.8), ((5, 5, 5), 3.0),
], ids=["1d-1.0", "1d-1.5", "2d-1.0", "2d-1.5", "2d-2.3", "3d-1.8", "3d-3.0"])
@pytest.mark.parametrize("stop", [StopCriterion.error_bound(0.0), StopCriterion.size(7)],
                         ids=["error_bound", "size"])
def test_selection_matches_naive_greedy_on_tied_lattices(shape, eps, stop):
    # Integer lattices: all points with the same neighbourhood shape score
    # exactly alike, so many rounds are decided by the lowest-id tie-break.
    # Shuffled ids keep that order unrelated to the lattice order. The eps
    # values 1.5 (1-D), 2.3 and 3.0 catch a lazy pick that stops once its
    # re-score reaches the next key, where a lower id may hold the same score.
    lattice = list(itertools.product(*(range(n) for n in shape)))
    ids = np.random.default_rng(len(lattice)).permutation(len(lattice)).tolist()
    ds = Dataset(ids, lattice)
    records, state = run_selection(ds, eps, stop)
    expected, expected_owner = oracles.naive_select(
        as_pairs(ds), eps, size_bound=stop.resolve_count(len(ds)), theta=stop.theta,
    )
    assert [(r.point.id, r.cov_rad, r.cov_cnt) for r in records] == expected
    assert state.coverage_owner == expected_owner


@pytest.mark.parametrize("stop", [
    StopCriterion.size(4),
    StopCriterion.size(10_000),
    StopCriterion.fraction(0.25),
    StopCriterion.fraction(1.0),
    StopCriterion.error_bound(0.0),
    StopCriterion.error_bound(1.0),
])
def test_selection_matches_naive_greedy(rng, stop):
    for n in (17, 60):
        ds = random_dataset(rng, n)
        eps = 1.3
        records, state = run_selection(ds, eps, stop)
        expected, expected_owner = oracles.naive_select(
            as_pairs(ds), eps,
            size_bound=stop.resolve_count(n), theta=stop.theta,
        )
        got = [(r.point.id, r.cov_rad, r.cov_cnt) for r in records]
        assert [(i, c) for i, _, c in got] == [(i, c) for i, _, c in expected]
        for (_, rad_got, _), (_, rad_exp, _) in zip(got, expected):
            assert rad_got == pytest.approx(rad_exp, rel=1e-9, abs=1e-12)
        assert state.coverage_owner == expected_owner


@pytest.mark.parametrize("dim", [1, 3, 6])
@pytest.mark.parametrize("stop", [StopCriterion.error_bound(0.0), StopCriterion.size(9)],
                         ids=["error_bound", "size"])
def test_selection_matches_naive_greedy_in_other_dims(rng, dim, stop):
    for n, eps in ((25, 0.25 * dim + 0.2), (70, 0.4 * dim + 0.3)):
        ds = random_dataset(rng, n, dim=dim, spread=3.0 + dim)
        records, state = run_selection(ds, eps, stop)
        expected, expected_owner = oracles.naive_select(
            as_pairs(ds), eps, size_bound=stop.resolve_count(n), theta=stop.theta,
        )
        assert [(r.point.id, r.cov_rad, r.cov_cnt) for r in records] == expected
        assert state.coverage_owner == expected_owner


@pytest.mark.parametrize("dim", range(1, 7))
def test_selection_does_not_depend_on_row_order(rng, dim):
    # A site is visited in id order, so listing its rows in another order changes
    # no record, owner, score or count of work. The copies at equal coordinates tie.
    base = random_dataset(rng, 120, dim=dim, spread=3.0 + dim)
    coords = np.vstack([base.coords, base.coords[:15]])
    ds = Dataset(rng.permutation(3 * len(coords))[:len(coords)], coords)
    rows = rng.permutation(len(ds))
    shuffled = Dataset(ds.ids[rows], ds.coords[rows])
    eps = 0.4 * dim + 0.3
    theta = float(np.median(list(SelectionState(ds, eps).candidate_scores().values())))
    for stop in (StopCriterion.size(40), StopCriterion.error_bound(theta)):
        (records, state), (got, shuffled_state) = (run_selection(d, eps, stop, site=2) for d in (ds, shuffled))
        assert got == records
        assert shuffled_state.coverage_owner == state.coverage_owner
        assert list(shuffled_state.candidate_scores().items()) == list(state.candidate_scores().items())
        assert (shuffled_state.rows_rescored, shuffled_state.rescore_passes) == (
            state.rows_rescored, state.rescore_passes)


def test_maintained_scores_match_from_scratch_each_round(rng):
    ds = random_dataset(rng, 60)
    eps = 1.5
    pairs = as_pairs(ds)
    state = SelectionState(ds, eps)
    chosen = []
    for rec in state.run(StopCriterion.size(12)):
        chosen.append(rec.point.id)
        maintained = state.candidate_scores()
        assert maintained == oracles.def3_scores(pairs, eps, chosen, maintained.keys())


def test_dyn_rep_q_monotone_over_rounds(rng):
    ds = random_dataset(rng, 70)
    eps = 1.5
    state = SelectionState(ds, eps)
    previous = dict(state.candidate_scores())
    for _ in state.run(StopCriterion.size(15)):
        current = state.candidate_scores()
        for oid, score in current.items():
            assert score <= previous[oid] + 1e-12
        previous = current


def test_prefix_stability(rng):
    ds = random_dataset(rng, 60)
    eps = 1.3
    full, _ = run_selection(ds, eps, StopCriterion.size(20))
    short, _ = run_selection(ds, eps, StopCriterion.size(7))
    assert [r.point.id for r in short] == [r.point.id for r in full[:7]]
    assert short == full[:7]


def test_coverage_partition_and_cov_cnt_bound(rng):
    ds = random_dataset(rng, 90)
    eps = 1.2
    records, state = run_selection(ds, eps, StopCriterion.error_bound(0.0))
    # Exhaustive run: everything covered, newly-covered sets partition the ids.
    assert state.coverage_owner.keys() == {p.id for p in ds}
    assert sum(r.cov_cnt for r in records) == len(ds)
    assert all(r.cov_rad <= eps for r in records)
    # Truncated run: sum of cov_cnt can only fall short.
    short, short_state = run_selection(ds, eps, StopCriterion.size(5))
    assert sum(r.cov_cnt for r in short) == len(short_state.coverage_owner) <= len(ds)


def test_seq_values_consecutive(rng):
    ds = random_dataset(rng, 40)
    records, _ = run_selection(ds, 1.4, StopCriterion.size(9))
    assert [r.seq for r in records] == list(range(len(records)))


def test_size_bound_beyond_dataset_ends_at_dataset(rng):
    ds = random_dataset(rng, 12)
    records, _ = run_selection(ds, 1.0, StopCriterion.size(50))
    assert len(records) == 12
    assert sorted(r.point.id for r in records) == [p.id for p in ds]


def test_zero_score_candidates_emitted_inert_under_size_bound():
    # One dense pair: the second pick has nothing left to cover.
    ds = make_dataset([(0.0, 0.0), (0.1, 0.0)])
    records, _ = run_selection(ds, 1.0, StopCriterion.size(2))
    assert records[0].cov_cnt == 2
    assert records[1].cov_cnt == 0
    assert records[1].cov_rad == 0.0


def test_size_bound_past_full_coverage_yields_the_rest_in_id_order(rng):
    # Once every object is covered every score is 0.0, so greedy takes the rest by id.
    ds = random_dataset(rng, 60)
    ds = Dataset(rng.permutation(len(ds)), ds.coords)  # ids unrelated to row order
    records, _ = run_selection(ds, 1.5, StopCriterion.size(len(ds) + 5))
    first = next(i for i, r in enumerate(records) if r.cov_cnt == 0)
    head, tail = records[:first], records[first:]
    assert sum(r.cov_cnt for r in head) == len(ds)
    assert [r.point.id for r in tail] == sorted(set(ds.ids.tolist()) - {r.point.id for r in head})
    assert {(r.cov_rad, r.cov_cnt) for r in tail} == {(0.0, 0)}
    assert [r.seq for r in records] == list(range(len(ds)))


def test_closing_mid_tail_leaves_the_rest_candidates_at_zero(rng):
    ds = random_dataset(rng, 60)
    ds = Dataset(rng.permutation(len(ds)), ds.coords)
    state = SelectionState(ds, 1.5)
    gen = state.run(StopCriterion.size(len(ds)))
    while next(gen).cov_cnt:
        pass
    next(gen)
    gen.close()
    rest = sorted(set(ds.ids.tolist()) - {r.point.id for r in state.chosen})
    assert rest and state.candidate_scores() == dict.fromkeys(rest, 0.0)
    assert [r.point.id for r in state.run(StopCriterion.size(len(ds)))] == rest


def test_error_bound_zero_stops_before_inert_records(rng):
    ds = random_dataset(rng, 50)
    records, _ = run_selection(ds, 1.5, StopCriterion.error_bound(0.0))
    assert all(r.cov_cnt >= 1 for r in records)


def test_empty_dataset_yields_empty_stream():
    ds = Dataset([], np.empty((0, 2)))
    records, _ = run_selection(ds, 1.0, StopCriterion.size(3))
    assert records == []


def test_generator_cancellation_stops_work(rng):
    ds = random_dataset(rng, 60)
    state = SelectionState(ds, 1.3)
    gen = state.run(StopCriterion.error_bound(0.0))
    consumed = [next(gen), next(gen)]
    gen.close()
    assert len(state.chosen) == 2
    assert state.chosen == consumed


@pytest.mark.parametrize("dim", [2, 3])
def test_resumed_and_interleaved_runs_match_naive_greedy(rng, dim):
    # One state driven every way a caller may drive it: a run closed early, a paused
    # and resumed size bound, a theta stop, then a size bound past the site. The
    # maintained scores must outlive each run, or a stale score is taken for an exact one.
    ds = random_dataset(rng, 90, dim=dim, spread=4.0 + dim)
    eps = 1.3
    state, naive = SelectionState(ds, eps), oracles.NaiveGreedy(as_pairs(ds), eps)

    def picks(records):
        return [(r.point.id, r.cov_rad, r.cov_cnt, r.seq) for r in records]

    gen = state.run(StopCriterion.error_bound(0.0))
    first = [next(gen) for _ in range(3)]
    gen.close()
    assert picks(first) == naive.select(size_bound=3)
    gen = state.run(StopCriterion.size(9))
    assert picks([next(gen), next(gen)]) == naive.select(size_bound=5)
    assert picks(gen) == naive.select(size_bound=9)
    assert picks(state.run(StopCriterion.error_bound(2.0))) == naive.select(theta=2.0)
    assert picks(state.run(StopCriterion.size(len(ds) + 5))) == naive.select(size_bound=len(ds) + 5)
    assert state.coverage_owner == naive.owner
    assert len(state.chosen) == len(ds)


def test_no_row_is_rescored_after_the_first_zero_count_record():
    # Once the best score is 0 every score is 0, and a commit that covers nothing
    # re-scores nothing: a size bound's inert tail costs no re-score.
    ds = generate(dataset_spec("C", 1))
    state = SelectionState(ds, CLUSTER_PARAMS["C"].epsilon)
    at_first_zero = None
    for record in state.run(StopCriterion.size(len(ds) + 1)):
        if at_first_zero is None and record.cov_cnt == 0:
            at_first_zero = (state.rows_rescored, state.rescore_passes)
    assert len(state.chosen) == len(ds)
    assert at_first_zero is not None and at_first_zero[0] > 0
    assert (state.rows_rescored, state.rescore_passes) == at_first_zero


def test_kind_a_site_rescores_in_fewer_passes_than_picks():
    # Re-scoring a row at a time makes one pass per re-scored row, about 16 per pick
    # on this site; batching each commit's rows makes fewer passes than picks.
    seed = 20260809
    site = partition(generate(dataset_spec("A", seed)), 4, seed)[0]
    state = SelectionState(site, CLUSTER_PARAMS["A"].epsilon)
    records = list(state.run(StopCriterion.fraction(0.2)))
    assert state.rescore_passes < len(records) < state.rows_rescored


# -------------------------------------------------------------- covering_stats

def test_covering_stats_first_then_second_representative():
    # The star's center covers all ten star objects, the farthest defining its
    # radius; the next pick only covers the far pair.
    eps = 2.0
    star = [(0.0, 0.0)] + [(s * 0.25 * k, 0.0) for s in (1, -1) for k in range(1, 5)] + [(0.0, 1.9)]
    far = [(5.0, 0.0), (5.3, 0.0)]
    ds = make_dataset(star + far)
    records, state = run_selection(ds, eps, StopCriterion.size(2))
    assert [(r.point.id, r.cov_cnt) for r in records] == [(0, 10), (10, 2)]
    assert records[0].cov_rad == max(oracles.dist(c, (0.0, 0.0)) for c in star)
    assert records[1].cov_rad == oracles.dist((5.3, 0.0), (5.0, 0.0))
    assert state.coverage_owner == {**dict.fromkeys(range(10), 0), 10: 1, 11: 1}


def test_covering_stats_fully_covered_representative_is_inert():
    ds = make_dataset([(0.0, 0.0), (0.2, 0.0)])
    records, state = run_selection(ds, 1.0, StopCriterion.size(2))
    assert [(r.cov_rad, r.cov_cnt) for r in records] == [(0.2, 2), (0.0, 0)]
    assert state.coverage_owner == {0: 0, 1: 0}


def test_covering_stats_records_first_owner():
    # Id 0 covers 0, 1 and 2; id 3's ball also holds 1, but it newly covers only 3.
    ds = make_dataset([(0.0, 0.0), (0.5, 0.0), (-0.3, 0.0), (1.4, 0.0)])
    records, state = run_selection(ds, 1.0, StopCriterion.size(2))
    assert [(r.point.id, r.cov_cnt) for r in records] == [(0, 3), (3, 1)]
    assert state.coverage_owner == {0: 0, 1: 0, 2: 0, 3: 1}


@pytest.mark.parametrize("site", [2.7, "x", True, -1])
def test_site_must_be_an_integer_at_least_zero(site):
    with pytest.raises(InputError, match="site must be an integer >= 0"):
        SelectionState(make_dataset([(0.0, 0.0)]), 1.0, site=site)


def test_site_accepts_numpy_integers():
    (rec,), _ = run_selection(make_dataset([(0.0, 0.0)]), 1.0, StopCriterion.size(1), site=np.int64(3))
    assert rec.site == 3 and type(rec.site) is int


# -------------------------------------------------------------- stop criteria

def test_stop_criterion_validation():
    with pytest.raises(InputError):
        StopCriterion()
    with pytest.raises(InputError):
        StopCriterion(max_count=3, theta=0.0)
    with pytest.raises(InputError):
        StopCriterion.size(0)
    for count in (2.5, 1.2, True):
        with pytest.raises(InputError, match="size bound must be an integer"):
            StopCriterion.size(count)
    assert StopCriterion.size(np.int64(2)).resolve_count(10) == 2
    with pytest.raises(InputError):
        StopCriterion.fraction(0.0)
    with pytest.raises(InputError):
        StopCriterion.fraction(1.5)
    for frac in (True, "0.5"):
        with pytest.raises(InputError, match="fraction bound"):
            StopCriterion.fraction(frac)
    with pytest.raises(InputError):
        StopCriterion.error_bound(-1.0)
    for theta in (True, False, "1"):
        with pytest.raises(InputError, match="theta"):
            StopCriterion.error_bound(theta)
    for theta in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="finite"):
            StopCriterion.error_bound(theta)


def test_fraction_resolution():
    assert StopCriterion.fraction(1.0).resolve_count(7) == 7
    assert StopCriterion.fraction(0.05).resolve_count(10) == 1  # clamped to >= 1
    assert StopCriterion.fraction(0.29).resolve_count(100) == 29
    assert StopCriterion.size(3).resolve_count(100) == 3
    assert StopCriterion.error_bound().resolve_count(100) is None


# -------------------------------------------------------------------- records

@pytest.mark.parametrize("field, value", [
    *(pytest.param(field, value, id=f"{field}={value}")
      for field in ("site", "seq", "cov_cnt") for value in (-1, True, 2.5)),
    *(pytest.param("cov_rad", value, id=f"cov_rad={value!r}")
      for value in (math.nan, math.inf, -0.5, True, "0.5")),
    pytest.param("id", True, id="id=True"),
    pytest.param("coords", ("2.5", 0.0), id="coords=('2.5', 0.0)"),
    pytest.param("coords", (False, 0.0), id="coords=(False, 0.0)"),
    pytest.param("coords", (10**400, 0.0), id="coords=(10**400, 0.0)"),
])
def test_record_rejects_a_bad_field(field, value):
    f = {"id": 1, "coords": (1.0, 0.0), "cov_rad": 0.5, "cov_cnt": 2, "site": 0, "seq": 1, field: value}
    with pytest.raises(InputError, match="point id" if field == "id" else field):
        RepresentativeRecord(Point(f["id"], f["coords"]), f["cov_rad"], f["cov_cnt"], f["site"], f["seq"])


def test_record_stores_its_numbers_as_floats():
    rec = RepresentativeRecord(Point(0, (1, np.float32(0.5))), 0, 1, 0, 0)
    assert rec.point.coords == (1.0, 0.5) and rec.cov_rad == 0.0
    assert all(type(x) is float for x in (*rec.point.coords, rec.cov_rad))


# ---------------------------------------------------------------- wire format

def test_jsonl_roundtrip(tmp_path, rng):
    ds = random_dataset(rng, 40)
    records, _ = run_selection(ds, 1.3, StopCriterion.size(10), site=3)
    path = tmp_path / "reps.jsonl"
    assert write_records_jsonl(records, path) == 10
    back = read_records_jsonl(path)
    assert [(r.site, r.seq, r.point.coords, r.cov_rad, r.cov_cnt) for r in back] == [
        (r.site, r.seq, r.point.coords, r.cov_rad, r.cov_cnt) for r in records
    ]
    first = path.read_text().splitlines()[0]
    assert first.startswith('{"site": 3, "seq": 0, "coords": [')


def test_jsonl_roundtrip_of_numpy_integer_fields(tmp_path):
    # The wire format has no point ids; each point comes back with its seq as its id.
    records = [RepresentativeRecord(Point(seq, (float(seq), 0.5)), 0.25, np.int32(3 - seq),
                                    np.int64(2), np.int64(seq)) for seq in range(3)]
    assert all(type(x) is int for r in records for x in (r.site, r.seq, r.cov_cnt))
    path = tmp_path / "reps.jsonl"
    assert write_records_jsonl(records, path) == 3
    back = read_records_jsonl(path)
    assert back == records
    assert all(type(x) is int for r in back for x in (r.site, r.seq, r.cov_cnt))


def test_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"site": 0, "seq": 0}\n')
    with pytest.raises(InputError):
        read_records_jsonl(path)
    path.write_text("not json\n")
    with pytest.raises(InputError):
        read_records_jsonl(path)


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity"])
def test_jsonl_rejects_non_finite_cov_rad(tmp_path, spelling):
    path = tmp_path / "bad.jsonl"
    good = '{"site": 0, "seq": 0, "coords": [0.0, 0.0], "cov_rad": 0.5, "cov_cnt": 3}'
    bad = '{"site": 0, "seq": 1, "coords": [1.0, 0.0], "cov_rad": %s, "cov_cnt": 2}' % spelling
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(InputError, match=r"bad\.jsonl:2: .*finite"):
        read_records_jsonl(path)


@pytest.mark.parametrize("field, spelling", [
    ("seq", "0.9"), ("seq", "true"), ("cov_cnt", "2.7"), ("cov_cnt", "false"),
    ("site", "true"), ("site", "1.0"),
])
def test_jsonl_rejects_non_integer_site_seq_cov_cnt(tmp_path, field, spelling):
    path = tmp_path / "bad.jsonl"
    fields = {"site": "0", "seq": "1", "cov_cnt": "2"}
    fields[field] = spelling
    good = '{"site": 0, "seq": 0, "coords": [0.0, 0.0], "cov_rad": 0.5, "cov_cnt": 3}'
    bad = ('{"site": %(site)s, "seq": %(seq)s, "coords": [1.0, 0.0], "cov_rad": 0.5, '
           '"cov_cnt": %(cov_cnt)s}' % fields)
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(InputError, match=rf"bad\.jsonl:2: .*{field} must be an integer >= 0"):
        read_records_jsonl(path)


@pytest.mark.parametrize("coords, cov_rad", [
    ('[true, 2.5]', "0.5"), ('[1.0, "2.5"]', "0.5"), ('"12"', "0.5"),
    ("[1.0, 2.5]", '"0.5"'), ("[1.0, 2.5]", "false"),
])
def test_jsonl_rejects_non_number_coords_cov_rad(tmp_path, coords, cov_rad):
    path = tmp_path / "bad.jsonl"
    good = '{"site": 0, "seq": 0, "coords": [0.0, 0.0], "cov_rad": 0.5, "cov_cnt": 3}'
    bad = ('{"site": 0, "seq": 1, "coords": %s, "cov_rad": %s, "cov_cnt": 2}'
           % (coords, cov_rad))
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(InputError, match=rf"bad\.jsonl:2: .*"
                       rf"{'cov_rad' if coords == '[1.0, 2.5]' else 'coords'} must be .*finite number"):
        read_records_jsonl(path)
