import re

import pytest

from conftest import random_dataset
from distclust import (
    ConsistencyError,
    Labeling,
    NOISE,
    SelectionState,
    StopCriterion,
    relabel_site,
)
from distclust.errors import InputError
from distclust.relabel import (
    load_local_labels_csv,
    load_owners_csv,
    save_local_labels_csv,
    save_owners_csv,
)


def test_single_representative_labels_everything():
    owners = {oid: 0 for oid in range(10)}
    global_labels = Labeling({(0, 0): 1})
    labeling = relabel_site(range(10), owners, global_labels, site=0)
    assert labeling.labels == {oid: 1 for oid in range(10)}
    assert labeling.provenance == {oid: (0, 0) for oid in range(10)}


def test_noise_representative_propagates_noise():
    owners = {1: 0, 2: 0}
    global_labels = Labeling({(4, 0): NOISE})
    labeling = relabel_site([1, 2], owners, global_labels, site=4)
    assert labeling.labels == {1: NOISE, 2: NOISE}
    # Covered-by-noise objects still carry provenance.
    assert labeling.provenance == {1: (4, 0), 2: (4, 0)}


def test_uncovered_objects_become_noise_exactly():
    site_ids = list(range(20))
    owners = {oid: 0 for oid in range(12)}  # selection stopped early
    global_labels = Labeling({(0, 0): 2})
    labeling = relabel_site(site_ids, owners, global_labels, site=0)
    assert {oid for oid, c in labeling.labels.items() if c == NOISE} == set(range(12, 20))
    assert all(labeling.labels[oid] == 2 for oid in range(12))
    assert set(labeling.labels) == set(site_ids)


def test_missing_global_label_is_consistency_error():
    owners = {5: 3}
    global_labels = Labeling({(0, 0): 1})  # seq 3 never labeled
    with pytest.raises(ConsistencyError, match=re.escape(
            "object 5 is owned by representative (0, 3), which has no global label (truncated stream?)")):
        relabel_site([5], owners, global_labels, site=0)


def test_missing_global_label_names_the_first_object_of_the_site():
    # Objects 4 and 7 are owned by unlabeled seqs; 4 comes first among the site's ids,
    # and that error comes before the one for object 9, which the site does not hold.
    owners = {2: 0, 7: 2, 4: 1, 9: 0}
    global_labels = Labeling({(1, 0): 1})
    with pytest.raises(ConsistencyError, match=re.escape("object 4 is owned by representative (1, 1)")):
        relabel_site([2, 4, 7], owners, global_labels, site=1)


def test_owner_outside_the_site_is_consistency_error():
    # Ownership of objects 0..3, but the site holds 2..5: 0 and 1 belong elsewhere.
    owners = {0: 0, 1: 0, 2: 0, 3: 1}
    global_labels = Labeling({(0, 0): 1, (0, 1): 2})
    with pytest.raises(ConsistencyError, match=r"2 object\(s\) site 0 does not hold, e\.g\. \[0, 1\]"):
        relabel_site(range(2, 6), owners, global_labels, site=0)


@pytest.mark.parametrize("site", [-1, True, 2.5])
def test_site_must_be_an_integer_at_least_zero(site):
    with pytest.raises(InputError, match="site must be an integer >= 0"):
        relabel_site([0], {0: 0}, Labeling({(0, 0): 1}), site=site)


def test_totality_and_owner_consistency(rng):
    ds = random_dataset(rng, 80)
    state = SelectionState(ds, 1.2, site=6)
    records = list(state.run(StopCriterion.size(8)))
    global_labels = Labeling({(6, r.seq): (r.seq % 3) for r in records})
    labeling = relabel_site((p.id for p in ds), state.coverage_owner, global_labels, site=6)
    assert set(labeling.labels) == {p.id for p in ds}
    for oid, owner_key in labeling.provenance.items():
        assert labeling.labels[oid] == global_labels.labels[owner_key]
        assert state.coverage_owner[oid] == owner_key[1]
    for oid in labeling.labels:
        if oid not in labeling.provenance:
            assert labeling.labels[oid] == NOISE
            assert oid not in state.coverage_owner


def test_monotone_coverage_in_budget(rng):
    ds = random_dataset(rng, 80)
    small = SelectionState(ds, 1.2)
    list(small.run(StopCriterion.size(5)))
    large = SelectionState(ds, 1.2)
    list(large.run(StopCriterion.size(15)))
    assert set(small.coverage_owner) <= set(large.coverage_owner)


def test_local_labels_csv_roundtrip(tmp_path):
    owners = {0: 0, 2: 1}
    global_labels = Labeling({(1, 0): 1, (1, 1): NOISE})
    labeling = relabel_site([0, 1, 2], owners, global_labels, site=1)
    path = tmp_path / "site.csv"
    save_local_labels_csv(labeling, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,cluster_id,owner_seq"
    assert lines[2] == "1,0,-1"  # uncovered object
    assert load_local_labels_csv(path) == labeling.labels


def test_owners_csv_roundtrip(tmp_path):
    owners = {3: 0, 11: 2, 7: 1}
    path = tmp_path / "owners.csv"
    save_owners_csv(owners, path)
    assert load_owners_csv(path) == owners
    assert path.read_text().splitlines() == ["id,owner_seq", "3,0", "7,1", "11,2"]
    path.write_text("wrong,header\n")
    with pytest.raises(InputError):
        load_owners_csv(path)
    path.write_text("id,owner_seq\n3,0\n3,1\n")
    with pytest.raises(InputError, match="repeated key"):
        load_owners_csv(path)
