"""Dataset loading, synthesis, partitioning, and fold splitting."""

import numpy as np
import pytest

from fednl import (
    OUT_OF_SPACE,
    Dataset,
    LabelSkew,
    ParseError,
    PartitionError,
    SchemaError,
    ShuffleSplit,
    SplitError,
    concat_datasets,
    load_dataset,
    partition_non_iid,
    save_dataset,
    split_three_folds,
    synth_gaussian,
)

from conftest import make_dataset, train_one


# ---------------------------------------------------------------- load/save

def test_load_three_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,2\n")
    ds = load_dataset(path)
    assert ds.n == 3
    assert ds.d == 2
    assert ds.class_count == 3


def test_load_columns_other_than_labels_are_features_in_header_order(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("f0,label,f1,true_label\n1.5,2,-3.0,0\n4.0,0,5.5,0\n")
    ds = load_dataset(path, id_base=10)
    np.testing.assert_array_equal(ds.features, [[1.5, -3.0], [4.0, 5.5]])
    np.testing.assert_array_equal(ds.observed_labels, [2, 0])
    np.testing.assert_array_equal(ds.true_labels, [0, 0])
    np.testing.assert_array_equal(ds.ids, [10, 11])
    assert ds.class_count == 3
    assert ds.name == "mixed"


def test_load_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,f1,label\n")
    ds = load_dataset(path, class_count=3)
    assert ds.n == 0
    assert ds.class_count == 3


def test_label_out_of_range_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,7\n2.0,0\n")
    with pytest.raises(SchemaError, match="row 1"):
        load_dataset(path, class_count=3)


def test_non_numeric_feature_is_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0\noops,1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(path)


def test_wrong_arity_is_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(path)


def test_save_load_roundtrip(tmp_path):
    ds = synth_gaussian(3, 7, 2, 5.0, seed=11)
    path = tmp_path / "round.csv"
    save_dataset(ds, path)
    back = load_dataset(path, class_count=3)
    np.testing.assert_allclose(back.features, ds.features)
    np.testing.assert_array_equal(back.observed_labels, ds.observed_labels)
    np.testing.assert_array_equal(back.true_labels, ds.true_labels)


def test_out_of_space_label_requires_permission(tmp_path):
    path = tmp_path / "oos.csv"
    path.write_text("f0,label\n1.0,0\n2.0,-1\n")
    with pytest.raises(SchemaError):
        load_dataset(path, class_count=2)
    ds = load_dataset(path, class_count=2, allow_out_of_space=True)
    assert ds.observed_labels[1] == OUT_OF_SPACE


# ---------------------------------------------------------------- synthesis

def test_synth_counts():
    ds = synth_gaussian(2, 5, 2, 10.0, seed=1)
    assert ds.n == 10
    assert int((ds.observed_labels == 0).sum()) == 5
    assert int((ds.observed_labels == 1).sum()) == 5


def test_synth_deterministic():
    a = synth_gaussian(3, 20, 4, 6.0, seed=9)
    b = synth_gaussian(3, 20, 4, 6.0, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.observed_labels, b.observed_labels)
    np.testing.assert_array_equal(a.ids, b.ids)


def test_synth_mean_separation():
    ds = synth_gaussian(5, 50, 3, 4.0, seed=2)
    means = np.stack([
        ds.features[ds.observed_labels == k].mean(axis=0) for k in range(5)
    ])
    for a in range(5):
        for b in range(a + 1, 5):
            # sample means approximate the configured mutual distance
            assert np.linalg.norm(means[a] - means[b]) > 4.0 - 1.0


def test_synth_trainable_oracle():
    # a separable draw must support near-perfect training accuracy
    from fednl import TrainerConfig, init_model, predict

    ds = synth_gaussian(3, 200, 2, 8.0, seed=7)
    config = TrainerConfig(local_epochs=20, batch_size=32)
    model = train_one(init_model(ds.d, 3), ds, config, 7)
    acc = float(np.mean(predict(model, ds.features) == ds.observed_labels))
    assert acc >= 0.98


# ---------------------------------------------------------------- partition

def test_shuffle_split_equal_sizes():
    ds = synth_gaussian(2, 50, 2, 5.0, seed=3)
    parts = partition_non_iid(ds, 4, seed=3, strategy=ShuffleSplit())
    assert sorted(p.n for p in parts) == [25, 25, 25, 25]


def test_shuffle_split_remainder_to_earliest():
    ds = make_dataset([[float(i)] for i in range(10)], [i % 2 for i in range(10)], c=2)
    parts = partition_non_iid(ds, 3, seed=0, strategy=ShuffleSplit())
    assert [p.n for p in parts] == [4, 3, 3]


def test_partition_disjoint_cover():
    ds = synth_gaussian(3, 40, 2, 5.0, seed=5)
    parts = partition_non_iid(ds, 5, seed=5, strategy=ShuffleSplit())
    all_ids = np.concatenate([p.ids for p in parts])
    assert len(all_ids) == ds.n
    assert len(np.unique(all_ids)) == ds.n
    assert set(all_ids.tolist()) == set(ds.ids.tolist())


def test_partition_too_many_participants():
    ds = make_dataset([[0.0], [1.0]], [0, 1], c=2)
    with pytest.raises(PartitionError):
        partition_non_iid(ds, 3, seed=0)


def test_label_skew_concentration():
    ds = synth_gaussian(2, 500, 2, 5.0, seed=4)
    parts = partition_non_iid(ds, 2, seed=4, strategy=LabelSkew(k_major=1, skew=0.8))
    for part in parts:
        counts = np.bincount(part.observed_labels, minlength=2)
        major_fraction = counts.max() / part.n
        assert major_fraction >= 0.78


def test_partition_deterministic():
    ds = synth_gaussian(3, 30, 2, 5.0, seed=8)
    a = partition_non_iid(ds, 3, seed=8, strategy=ShuffleSplit())
    b = partition_non_iid(ds, 3, seed=8, strategy=ShuffleSplit())
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.ids, pb.ids)


# ---------------------------------------------------------------- folds

def test_folds_exact_division(tiny_dataset):
    folds = split_three_folds(tiny_dataset, seed=1)
    assert [f.size for f in folds] == [3, 3, 3]


def test_folds_remainder_to_earliest():
    ds = make_dataset([[float(i)] for i in range(10)], [i % 2 for i in range(10)], c=2)
    folds = split_three_folds(ds, seed=1)
    assert [f.size for f in folds] == [4, 3, 3]


def test_folds_too_small():
    ds = make_dataset([[0.0], [1.0]], [0, 1], c=2)
    with pytest.raises(SplitError):
        split_three_folds(ds, seed=0)


def test_folds_disjoint_union():
    ds = synth_gaussian(3, 11, 2, 5.0, seed=6)
    folds = split_three_folds(ds, seed=6)
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert all(np.all(np.diff(f) > 0) for f in folds)
    all_ids = np.concatenate([ds.ids[f] for f in folds])
    assert len(np.unique(all_ids)) == ds.n
    assert set(all_ids.tolist()) == set(ds.ids.tolist())


# ---------------------------------------------------------------- class views

def test_class_subsets_partition_dataset():
    labels = [0, 1, 2, OUT_OF_SPACE, 1, 0]
    ds = make_dataset([[float(i)] for i in range(6)], labels, c=3)
    # The in-space rows, counted per class, and the out-of-space ids cover
    # every row exactly once.
    assert ds.class_sizes().tolist() == [2, 2, 1]
    in_space = ds.in_space().ids.tolist()
    assert sorted(in_space + ds.out_of_space_ids().tolist()) == ds.ids.tolist()
    assert ds.out_of_space_ids().tolist() == [3]


# ---------------------------------------------------------------- views

def test_training_view_hides_true_labels():
    ds = make_dataset([[0.0], [1.0]], [0, 1], c=2, true_labels=[1, 0])
    view = ds.training_view()
    assert view.true_labels is None
    np.testing.assert_array_equal(view.observed_labels, ds.observed_labels)


def test_training_view_equals_checked_construction(monkeypatch):
    # The view shares the dataset's checked arrays and runs no check of its own.
    ds = make_dataset([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]], [1, OUT_OF_SPACE, 0], c=2,
                      ids=[7, 3, 5], true_labels=[1, 0, 0], name="site")
    checked = Dataset(features=ds.features, observed_labels=ds.observed_labels, ids=ds.ids,
                      class_count=2, name="site")
    calls = _spy_checks(monkeypatch)
    view = ds.training_view()
    assert calls == []
    for field in ("features", "observed_labels", "ids"):
        ours, theirs = getattr(view, field), getattr(checked, field)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
        assert ours.flags.c_contiguous and not ours.flags.writeable
    assert (view.true_labels, view.class_count, view.name) == (None, 2, "site")
    assert view.training_view() is view


def test_in_space_drops_sentinel():
    ds = make_dataset([[0.0], [1.0], [2.0]], [0, OUT_OF_SPACE, 1], c=2)
    kept = ds.in_space()
    assert kept.n == 2
    assert OUT_OF_SPACE not in kept.observed_labels


def test_by_ids_preserves_order():
    ds = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 0], c=2, ids=[10, 20, 30])
    picked = ds.by_ids([30, 10])
    assert picked.ids.tolist() == [10, 30]


@pytest.mark.parametrize("wanted, expected", [
    ([], []),                        # nothing wanted
    (np.array([30, 20]), [20, 30]),  # unordered array
    ((10, 40, 99), [40, 10]),        # ids the dataset does not hold
    ([-5, 1000], []),                # only absent ids
])
def test_by_ids_empty_unordered_and_absent(wanted, expected):
    # Rows come back in the dataset's order, features aligned with their ids.
    ids = [40, 20, 30, 10]
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], c=2, ids=ids)
    picked = ds.by_ids(wanted)
    assert picked.ids.tolist() == expected
    assert picked.features[:, 0].tolist() == [float(ids.index(i)) for i in expected]


def test_take_rejects_repeated_position():
    ds = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 0], c=2, ids=[10, 20, 30])
    with pytest.raises(ValueError, match="instance ids must be unique"):
        ds.take([0, 2, 0])
    with pytest.raises(ValueError, match="instance ids must be unique"):
        ds.take([0, 0, 1])  # sorted, but not strictly: the check still runs
    with pytest.raises(ValueError, match="instance ids must be unique"):
        ds.take([-3, 0])  # increasing, but both are row 0


def _spy_checks(monkeypatch):
    """Count the constructor checks `Dataset` runs from here on."""
    calls = []
    check = Dataset.__post_init__

    def counted(self):
        calls.append(self.name)
        check(self)

    monkeypatch.setattr(Dataset, "__post_init__", counted)
    return calls


@pytest.mark.parametrize("positions", [[0, 2, 3], [1], [], np.array([0, 1, 2, 3, 4]),
                                       [3, 0, 2], [-1, 0], [1, -2], np.array([4, 3, 2, 1, 0])])
def test_cut_equals_checked_construction(monkeypatch, positions):
    # Increasing, unordered and negative positions alike run no constructor check.
    ds = make_dataset([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [4.0, 5.0]],
                      [0, 1, OUT_OF_SPACE, 1, 0], c=2, ids=[50, 40, 30, 20, 10],
                      true_labels=[0, 1, 1, 0, 0])
    rows = np.asarray(positions, dtype=np.int64)
    checked = Dataset(features=ds.features[rows], observed_labels=ds.observed_labels[rows],
                      ids=ds.ids[rows], class_count=2, true_labels=ds.true_labels[rows],
                      name="cut")
    calls = _spy_checks(monkeypatch)
    cut = ds.take(positions, name="cut")
    assert calls == []
    for field in ("features", "observed_labels", "ids", "true_labels"):
        ours, theirs = getattr(cut, field), getattr(checked, field)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
        assert ours.flags.c_contiguous and not ours.flags.writeable
    assert (cut.class_count, cut.name) == (2, "cut")
    assert ds.take(positions).name == "fixture"
    assert ds.training_view().take(positions).true_labels is None


@pytest.mark.parametrize("mask", [[False, True], [True, False], np.array([True, True])])
def test_take_refuses_boolean_mask(mask):
    # As positions a mask would pick rows 0 and 1, not the rows it marks.
    ds = make_dataset([[0.0], [1.0]], [0, 1], c=2, ids=[10, 11])
    with pytest.raises(ValueError, match="np.flatnonzero"):
        ds.take(np.asarray(mask))
    assert ds.take(np.flatnonzero(mask)).ids.tolist() == ds.ids[np.asarray(mask)].tolist()


def test_take_refuses_non_integer_positions():
    ds = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 0], c=2)
    with pytest.raises(ValueError, match="integer row positions"):
        ds.take(np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="1-D row positions"):
        ds.take(np.array([[0, 2]]))
    assert ds.take([]).n == 0


def test_concat_disjoint_ids():
    a = make_dataset([[0.0]], [0], c=2, ids=[0])
    b = make_dataset([[1.0]], [1], c=2, ids=[1])
    merged = concat_datasets([a, b])
    assert merged.n == 2
    assert merged.ids.tolist() == [0, 1]
