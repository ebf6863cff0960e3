"""Dataset container, synthetic generation and the text file format."""

import numpy as np
import pytest

from dmapnet import (FormatError, GenerationError, InputError, LabeledDataset,
                     SyntheticSpec, generate_synthetic, load_dataset,
                     save_dataset)


def test_container_validation():
    X = np.zeros((3, 2))
    Y = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    data = LabeledDataset(features=X, labels=Y)
    assert data.ids == ("s0000", "s0001", "s0002")
    assert data.num_samples == 3
    assert data.num_features == 2
    assert data.num_classes == 2

    with pytest.raises(InputError):
        LabeledDataset(features=X, labels=np.array([[0.5, -1.0]] * 3))
    with pytest.raises(InputError):
        LabeledDataset(features=X, labels=Y[:2])
    with pytest.raises(InputError):
        LabeledDataset(features=X, labels=Y, ids=("a", "a", "b"))
    with pytest.raises(InputError):
        # second class has no negative sample
        LabeledDataset(features=X, labels=np.array([[1.0, 1.0],
                                                    [-1.0, 1.0],
                                                    [1.0, 1.0]]))
    with pytest.raises(InputError):
        LabeledDataset(features=np.array([[np.nan, 0.0]] * 3), labels=Y)


def test_spec_validation():
    with pytest.raises(InputError):
        SyntheticSpec(num_samples=1, num_features=2, num_classes=1)
    with pytest.raises(InputError):
        SyntheticSpec(num_samples=10, num_features=0, num_classes=1)
    with pytest.raises(InputError):
        SyntheticSpec(num_samples=10, num_features=2, num_classes=0)
    with pytest.raises(InputError):
        SyntheticSpec(num_samples=10, num_features=2, num_classes=1, clusters=0)
    with pytest.raises(InputError):
        SyntheticSpec(num_samples=10, num_features=2, num_classes=1, noise=0.5)
    with pytest.raises(InputError, match="noise"):
        SyntheticSpec(num_samples=10, num_features=2, num_classes=1, noise="x")
    # counts follow one whole-number rule, checked before anything is drawn
    for field in ("num_samples", "num_features", "num_classes", "clusters"):
        for value in (2.5, np.inf, np.nan, "x"):
            counts = {"num_samples": 10, "num_features": 2, "num_classes": 1,
                      field: value}
            with pytest.raises(InputError, match=field):
                SyntheticSpec(**counts)
    spec = SyntheticSpec(num_samples=10.0, num_features=2, num_classes=1)
    assert type(spec.num_samples) is int
    assert generate_synthetic(spec).num_samples == 10


def test_generate_shapes_and_coverage():
    spec = SyntheticSpec(num_samples=40, num_features=6, num_classes=4,
                         clusters=2, noise=0.1, seed=5)
    data = generate_synthetic(spec)
    assert data.features.shape == (40, 6)
    assert data.labels.shape == (40, 4)
    assert (data.features >= 0).all()  # histogram intersection compatible
    assert np.isin(data.labels, (-1.0, 1.0)).all()
    pos = (data.labels > 0).sum(axis=0)
    neg = (data.labels < 0).sum(axis=0)
    assert (pos >= 1).all() and (neg >= 1).all()


def test_generate_determinism():
    spec = SyntheticSpec(num_samples=30, num_features=4, num_classes=3, seed=9)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert (a.features == b.features).all()
    assert (a.labels == b.labels).all()
    c = generate_synthetic(SyntheticSpec(num_samples=30, num_features=4,
                                         num_classes=3, seed=10))
    assert not (a.features == c.features).all()


def test_generate_features_are_class_informative():
    # positives of a class carry its centers, so their mean must exceed the
    # negatives' mean along at least one feature by a clear margin
    spec = SyntheticSpec(num_samples=200, num_features=8, num_classes=3, seed=2)
    data = generate_synthetic(spec)
    for k in range(3):
        pos = data.features[data.labels[:, k] > 0].mean(axis=0)
        neg = data.features[data.labels[:, k] < 0].mean(axis=0)
        assert (pos - neg).max() > 0.05


def test_generate_gives_up_when_classes_cannot_mix():
    # two samples can never cover eight classes with both signs
    spec = SyntheticSpec(num_samples=2, num_features=3, num_classes=8, seed=0)
    with pytest.raises(GenerationError):
        generate_synthetic(spec)


def test_round_trip_is_value_exact(tmp_path):
    spec = SyntheticSpec(num_samples=25, num_features=5, num_classes=3,
                         noise=0.2, seed=13)
    data = generate_synthetic(spec)
    path = tmp_path / "data.tsv"
    save_dataset(data, path)
    again = load_dataset(path)
    assert (again.features == data.features).all()
    assert (again.labels == data.labels).all()
    assert again.ids == data.ids


def test_format_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "data.tsv"

    path.write_text("")
    with pytest.raises(FormatError, match="empty"):
        load_dataset(path)

    path.write_text("2\t1\n")
    with pytest.raises(FormatError, match="line 1"):
        load_dataset(path)

    path.write_text("x\t1\t1\ns0\t0.0\t0.0\t1\n")
    with pytest.raises(FormatError, match="line 1"):
        load_dataset(path)

    path.write_text("2\t1\t2\ns0\t0.0\t0.0\t1\n")
    with pytest.raises(FormatError, match="promises 2 samples"):
        load_dataset(path)

    path.write_text("2\t1\t2\ns0\t0.0\t0.0\t1\ns1\t0.0\t1\n")
    with pytest.raises(FormatError, match="line 3"):
        load_dataset(path)

    path.write_text("2\t1\t2\ns0\t0.0\t0.0\t1\ns1\t0.0\tbad\t-1\n")
    with pytest.raises(FormatError, match="line 3"):
        load_dataset(path)

    path.write_text("2\t1\t2\ns0\t0.0\t0.0\t2\ns1\t0.0\t0.0\t-1\n")
    with pytest.raises(FormatError, match="line 2.*label"):
        load_dataset(path)

    # duplicate ids surface as a format error, not a bare container error
    path.write_text("2\t1\t2\ns0\t0.0\t0.0\t1\ns0\t0.0\t0.0\t-1\n")
    with pytest.raises(FormatError, match="unique"):
        load_dataset(path)


def test_format_errors_name_the_file_line_after_blank_lines(tmp_path):
    path = tmp_path / "data.tsv"
    cases = [("s1\tx\t0.0\t-1", r"line 4: bad feature value"),
             ("s1\t0.0\t0.0\t2", r"line 4: label"),
             ("s1\t0.0\t-1", r"line 4: expected 4 fields")]
    for bad, message in cases:
        path.write_text(f"2\t1\t2\n\ns0\t0.0\t0.0\t1\n{bad}\n")
        with pytest.raises(FormatError, match=message):
            load_dataset(path)


def test_saved_text_is_each_value_at_17_digits(tmp_path):
    data = generate_synthetic(SyntheticSpec(num_samples=200, num_features=10,
                                            num_classes=5, noise=0.1, seed=1))
    path = tmp_path / "data.tsv"
    save_dataset(data, path)
    rows = ["10\t5\t200"] + [
        "\t".join([ident] + [format(v, ".17g") for v in feats]
                  + [str(int(v)) for v in labs])
        for ident, feats, labs in zip(data.ids, data.features, data.labels)]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode("utf-8")
    again = load_dataset(path)
    assert (again.features == data.features).all()
    assert (again.labels == data.labels).all()
    assert again.ids == data.ids


def test_non_utf8_dataset_is_format_error(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_bytes(b"2\t1\t1\ns\xff\t0.0\t0.0\t1\n")
    with pytest.raises(FormatError, match="UTF-8"):
        load_dataset(path)


def test_label_token_variants(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("1\t1\t2\ns0\t0.5\t+1\ns1\t0.25\t-1\n")
    data = load_dataset(path)
    assert data.labels[0, 0] == 1.0
    assert data.labels[1, 0] == -1.0


_FUZZ_TOKENS = ("", "x", "0", "-1", "+1", "1", "2", "0.5", "-0.5", "1e308",
                "1e999", "nan", "inf", "-inf", "1e3", "0x10", "9" * 5000,
                "s0", " 1", "1\t1", "1\n1", "-99999999999999",
                "99999999999999", "2147483648", "123456789012", "4" * 12)


def _mutated(text, rng):
    """``text`` with one tab-separated token replaced, dropped or doubled."""
    lines = text.split("\n")
    i = int(rng.integers(0, len(lines) - 1))  # the last line is empty
    toks = lines[i].split("\t")
    j = int(rng.integers(0, len(toks)))
    action = rng.integers(0, 4)
    if action == 0:
        del toks[j]
    elif action == 1:
        toks.insert(j, toks[j])
    else:
        toks[j] = _FUZZ_TOKENS[rng.integers(0, len(_FUZZ_TOKENS))]
    lines[i] = "\t".join(toks)
    return "\n".join(lines)


def test_load_survives_seeded_token_fuzz(tmp_path):
    # any one-token mutation of a saved dataset loads or raises a typed
    # error; an oversized header field must not reach an allocation
    path = tmp_path / "data.tsv"
    save_dataset(generate_synthetic(SyntheticSpec(num_samples=4, num_features=3,
                                                  num_classes=2, seed=5)), path)
    text = path.read_text()
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(1000):
        mutated = _mutated(text, rng)
        path.write_text(mutated)
        try:
            load_dataset(path)
        except InputError as err:
            outcomes.add(type(err).__name__)
        except Exception as err:  # noqa: BLE001 - report the escaping input
            pytest.fail(f"{type(err).__name__} escaped for {mutated[:200]!r}")
        else:
            outcomes.add("loaded")
    assert {"loaded", "FormatError"} <= outcomes
