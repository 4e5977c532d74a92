import hashlib
import importlib.util
import inspect
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from disconet import (
    ConfigError,
    LossSpec,
    NetConfig,
    NetworkParams,
    NumericError,
    ObjectiveConfig,
    TrainConfig,
    energy_score_sample,
    init_params,
    load_csv,
    predict_rows,
)
from disconet.cli import (
    _COMMANDS,
    _FLAGS,
    _SCHEMA,
    SCHEMA_VERSION,
    _write_json,
    config_hash,
    load_config,
    main,
)
from disconet.metrics import EVAL_BLOCK
from disconet.rng import substream
from disconet.synth import (
    TOY_GAMMA,
    TOY_M,
    TOY_MU_VALUES,
    TOY_N,
    TOY_SIGMA_VALUES,
    gen_conditional_bimodal,
    toy_cross_table,
)
from tests.conftest import eval_candidates, save_csv


def write_config(path, doc):
    doc = dict(doc)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


SMALL_NET = {"x_dim": 1, "y_dim": 1, "z_dim": 2,
             "encoder_widths": [4], "decoder_widths": [4]}
SMALL_TRAIN = {"lr": 0.01, "batch_size": 16, "epochs": 2, "seed": 0, "val_count": 8}
SMALL_OBJECTIVE = {"gamma": 0.5, "num_candidates": 3}
SMALL_DATA = {"generator": "conditional_bimodal", "n": 48}


def train_doc():
    return {
        "net": dict(SMALL_NET),
        "objective": dict(SMALL_OBJECTIVE),
        "train": dict(SMALL_TRAIN),
        "data": dict(SMALL_DATA),
    }


def test_load_config_fills_defaults(tmp_path):
    path = write_config(tmp_path / "c.json", train_doc())
    config = load_config(path, ("net", "objective", "train", "data"))
    assert config["net"]["noise_enabled"] is True
    assert config["objective"]["beta"] == 1.0
    assert config["train"]["momentum"] == 0.9
    assert config["schema_version"] == SCHEMA_VERSION


def test_required_keys_alone_load_the_library_defaults(tmp_path):
    """Every default a library type or constant owns reaches the loaded
    config unchanged, in its JSON type (the widths as lists)."""
    sections = ("net", "objective", "train", "data", "toy", "gradcheck")
    doc = {s: {} for s in sections}
    doc["net"] = {"x_dim": 1, "y_dim": 2}
    config = load_config(write_config(tmp_path / "c.json", doc), sections)
    net, ob, toy = config["net"], config["objective"], config["toy"]
    assert net == NetConfig(x_dim=1, y_dim=2).to_dict()
    assert type(net["encoder_widths"]) is list and type(net["decoder_widths"]) is list
    assert TrainConfig(**config["train"]) == TrainConfig()
    assert ObjectiveConfig(ob["gamma"], ob["num_candidates"]) == ObjectiveConfig()
    assert LossSpec(ob["beta"], ob["weights"]) == LossSpec()
    assert (toy["n_train"], toy["n_test"], toy["m"], toy["gamma"]) == (TOY_N, TOY_N, TOY_M, TOY_GAMMA)
    assert (toy["mu_values"], toy["sigma_values"]) == (list(TOY_MU_VALUES), list(TOY_SIGMA_VALUES))


def test_loaded_defaults_are_copies(tmp_path):
    """Changing a list default in one loaded config leaves the next load's
    defaults as they were."""
    doc = {section: {} for section in _SCHEMA}
    doc["net"] = {"x_dim": 1, "y_dim": 2}
    path = write_config(tmp_path / "c.json", doc)
    first = load_config(path, ())
    expected = json.loads(json.dumps(first))
    mutated = 0
    for body in first.values():
        for value in body.values() if isinstance(body, dict) else ():
            if isinstance(value, list):
                value.append(9)
                mutated += 1
    assert mutated == sum(type(d) is list for spec in _SCHEMA.values() for _, _, d in spec.values())
    assert load_config(path, ()) == expected


_NON_EMPTY_LISTS = [
    ("toy", "seeds", "non-empty list of int"),
    ("sweep", "seeds", "non-empty list of int"),
    ("eval", "distances", "non-empty list of numbers"),
    ("gradcheck", "gammas", "non-empty list of numbers"),
    ("gradcheck", "betas", "non-empty list of numbers"),
    ("toy", "mu_values", "non-empty list of numbers"),
    ("toy", "sigma_values", "non-empty list of numbers"),
    ("sweep", "l2_values", "non-empty list of numbers"),
    ("objective", "weights", "non-empty list of numbers or null"),
]


@pytest.mark.parametrize("section, key, typename", _NON_EMPTY_LISTS,
                         ids=[f"{section}.{key}" for section, key, _ in _NON_EMPTY_LISTS])
def test_empty_list_refused_by_a_type_it_breaks(tmp_path, section, key, typename):
    """An empty list is refused by a type name that ``[]`` does not meet."""
    path = write_config(tmp_path / "c.json", {section: {key: []}})
    with pytest.raises(ConfigError) as info:
        load_config(path, ())
    assert str(info.value) == f"{path}: {section}.{key} must be {typename}, got []"


def test_load_config_rejections(tmp_path):
    base = train_doc()

    path = write_config(tmp_path / "c1.json", {**base, "mystery": {}})
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path, ())

    bad_net = {**base, "net": {**SMALL_NET, "depth": 3}}
    path = write_config(tmp_path / "c2.json", bad_net)
    with pytest.raises(ConfigError, match="unknown key net.depth"):
        load_config(path, ())

    bad_type = {**base, "train": {**SMALL_TRAIN, "lr": "fast"}}
    path = write_config(tmp_path / "c3.json", bad_type)
    with pytest.raises(ConfigError, match="train.lr"):
        load_config(path, ())

    # booleans must not pass for ints
    bad_bool = {**base, "train": {**SMALL_TRAIN, "epochs": True}}
    path = write_config(tmp_path / "c4.json", bad_bool)
    with pytest.raises(ConfigError, match="train.epochs"):
        load_config(path, ())

    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"net": SMALL_NET}))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(str(path), ())

    path = write_config(tmp_path / "c6.json", {"schema_version": 99, **base})
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(path, ())

    # true and 1.0 compare equal to 1 in Python but are not the integer version
    for version in (True, 1.0):
        path = write_config(tmp_path / "c6b.json", {"schema_version": version, **base})
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path, ())

    path = write_config(tmp_path / "c7.json", {"objective": SMALL_OBJECTIVE})
    with pytest.raises(ConfigError, match="missing required section"):
        load_config(path, ("net",))

    path = write_config(tmp_path / "c8.json", {"net": {"x_dim": 1}})
    with pytest.raises(ConfigError, match="missing required key net.y_dim"):
        load_config(path, ("net",))

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"), ())

    path = tmp_path / "c9.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path), ())

    # an int past the interpreter's digit limit is a ValueError, not a JSONDecodeError
    if hasattr(sys, "get_int_max_str_digits"):
        path.write_text('{"schema_version": 1, "train": {"seed": 1' + "0" * 5000 + "}}")
        with pytest.raises(ConfigError, match="not valid JSON: Exceeds the limit"):
            load_config(str(path), ())


# Every config key and CLI flag, so that a new setting shows in review: a key
# earns its place when two callers need different values.
_CONFIG_SURFACE = {
    "net": ["x_dim", "y_dim", "z_dim", "encoder_widths", "decoder_widths", "noise_enabled"],
    "objective": ["gamma", "num_candidates", "beta", "weights"],
    "train": ["lr", "momentum", "l2", "batch_size", "epochs", "seed", "val_count",
              "checkpoint_every"],
    "data": ["generator", "n"],
    "eval": ["num_candidates", "group_size", "distances", "zero_noise", "base_sigma", "seed"],
    "toy": ["seeds", "n_train", "n_test", "m", "gamma", "mu_values", "sigma_values"],
    "gradcheck": ["gammas", "betas", "num_examples", "num_candidates", "seed"],
    "sweep": ["seeds", "l2_values"],
}


def test_config_surface_is_pinned():
    keys = [(section, key) for section, spec in _SCHEMA.items() for key in spec]
    assert keys == [(section, key) for section, names in _CONFIG_SURFACE.items()
                    for key in names]
    assert list(_FLAGS) == ["--config", "--out", "--seed", "--data", "--checkpoint"]


@pytest.mark.parametrize("command, section, key, value", [
    ("train", "data", "path", None),
    ("train", "data", "noise_sigma", 0.1),
    ("gradcheck", "gradcheck", "step", 1e-6),
    ("gradcheck", "gradcheck", "tolerance", 1e-4),
], ids=["data.path", "data.noise_sigma", "gradcheck.step", "gradcheck.tolerance"])
def test_removed_config_keys_exit_2(tmp_path, capsys, command, section, key, value):
    """The CSV comes by --data alone, the bimodal noise is BIMODAL_NOISE_SIGMA
    and the gradient check runs at GRAD_CHECK_STEP against
    GRAD_CHECK_TOLERANCE: a config that sets one of these is refused."""
    doc = train_doc() if command == "train" else {"net": dict(SMALL_NET), "gradcheck": {}}
    doc[section][key] = value
    cfg = write_config(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg] + (["--out", str(tmp_path / "o")]
                                              if command == "train" else [])) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown key {section}.{key}\n"
    assert not (tmp_path / "o").exists()


# (command, section, key): every config int that sizes an array, through each
# subcommand that reads it
_SIZE_KEYS = [
    ("train", "net", "z_dim"), ("train", "data", "n"), ("train", "objective", "num_candidates"),
    ("sweep", "net", "z_dim"), ("sweep", "data", "n"), ("sweep", "objective", "num_candidates"),
    ("eval", "data", "n"), ("eval", "eval", "num_candidates"),
    ("gradcheck", "net", "x_dim"), ("gradcheck", "net", "y_dim"), ("gradcheck", "net", "z_dim"),
    ("gradcheck", "gradcheck", "num_examples"), ("gradcheck", "gradcheck", "num_candidates"),
    ("toy", "toy", "n_train"), ("toy", "toy", "n_test"), ("toy", "toy", "m"),
]


@pytest.mark.parametrize("value", [2 ** 63, 10 ** 30], ids=["2**63", "10**30"])
@pytest.mark.parametrize("command, section, key", _SIZE_KEYS,
                         ids=[f"{c}-{s}.{k}" for c, s, k in _SIZE_KEYS])
def test_ints_beyond_int64_exit_2(tmp_path, capsys, command, section, key, value):
    """A config int outside int64 is a config error naming its key, refused
    as the config loads: numpy never sees it, so nothing is allocated."""
    doc = {s: {} for s in _COMMANDS[command][1]}
    if "net" in doc:
        doc["net"] = {"x_dim": 1, "y_dim": 1}
    doc[section][key] = value
    argv = [command, "--config", write_config(tmp_path / "c.json", doc)]
    if command != "gradcheck":
        argv += ["--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "never-read.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{section}.{key} must be int, got {value}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("train", "train", "l2", float("nan")),
    ("train", "train", "lr", float("inf")),
    ("train", "train", "momentum", 10 ** 400),
    ("eval", "eval", "base_sigma", float("nan")),
    ("eval", "eval", "distances", [float("nan")]),
], ids=["l2-nan", "lr-inf", "momentum-huge-int", "base_sigma-nan", "distances-nan"])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, section, key, value):
    # json.dumps writes the NaN and Infinity literals that json.loads accepts
    if command == "train":
        doc = train_doc()
    else:
        doc = {"data": dict(SMALL_DATA), "eval": {"num_candidates": 3}}
    doc[section][key] = value
    cfg = write_config(tmp_path / "c.json", doc)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "never-read.txt")]
    assert main(argv) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_WRONG_TYPES = ["text", True, None, [], {}, [1, "a"], 1.5, 3, -2]
# written as bare JSON tokens; json.loads reads 1e400 as an infinite float
_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]
_TRAIN_SECTIONS = ("net", "objective", "train", "data")
_MUTATION_ROWS = 24
# (section, key, value): a key that train reads, set just outside the range its
# library check states; mutant seed i takes entry i modulo the length, so the
# 24 seeds cover every entry
_OUT_OF_RANGE = [
    ("net", "x_dim", 0), ("net", "y_dim", 0), ("net", "z_dim", 0),
    ("net", "encoder_widths", [0]), ("net", "decoder_widths", [4, 0]),
    ("objective", "gamma", -0.5), ("objective", "gamma", 1.5),
    ("objective", "num_candidates", 0), ("objective", "num_candidates", 1),
    ("objective", "beta", 0.0), ("objective", "beta", 2.0),
    ("objective", "weights", [1.0, 1.0]), ("objective", "weights", [-1.0]),
    ("objective", "weights", [0.0]),
    ("train", "lr", 0), ("train", "momentum", -0.1), ("train", "momentum", 1.0),
    ("train", "l2", -0.001), ("train", "batch_size", 0), ("train", "epochs", 0),
    ("train", "seed", -1), ("train", "val_count", -1), ("train", "val_count", _MUTATION_ROWS),
    ("train", "checkpoint_every", -1),
]


def _mutate_config(doc, kind, rng, seed):
    """One seeded mutation of a valid train config, as JSON text, and a label."""
    doc = json.loads(json.dumps({"schema_version": SCHEMA_VERSION, **doc}))
    if kind == "out-of-range":
        section, key, value = _OUT_OF_RANGE[seed % len(_OUT_OF_RANGE)]
        doc[section][key] = value
        return json.dumps(doc), f"{section}.{key} = {value!r}"
    section = rng.choice(_TRAIN_SECTIONS)
    if kind == "flip-type":
        keys = sorted(_SCHEMA[section])
        target = rng.choice(["schema_version", section] + [f"{section}.{k}" for k in keys])
        if target == "schema_version":
            value = rng.choice([True, 1.0, "1", None, [1]])
            doc[target] = value
        elif target == section:
            value = rng.choice(["text", True, None, [], 3])
            doc[section] = value
        else:
            key = target.split(".")[1]
            check = _SCHEMA[section][key][0]
            value = rng.choice([v for v in _WRONG_TYPES if not check(v)])
            doc[section][key] = value
        return json.dumps(doc), f"{target} = {value!r}"
    if kind == "non-finite":
        numeric = [k for k, (check, _, _) in _SCHEMA[section].items()
                   if any(check(v) for v in (1, 1.0, [1], [1.0]))]
        key = rng.choice(numeric)
        token = rng.choice(_NON_FINITE)
        doc[section][key] = [1, "@@"] if _SCHEMA[section][key][0]([1]) else "@@"
        return json.dumps(doc).replace('"@@"', token), f"{section}.{key} <- {token}"
    # drop a required key or section
    path = rng.choice([("schema_version",), ("net", "x_dim"), ("net", "y_dim")]
                      + [(s,) for s in _TRAIN_SECTIONS])
    if len(path) == 1:
        del doc[path[0]]
    else:
        del doc[path[0]][path[1]]
    return json.dumps(doc), f"drop {'.'.join(path)}"


def _mutate_csv(lines, kind, rng):
    """One seeded mutation of a valid data file, as text, and a label."""
    lines = list(lines)
    ln = rng.randrange(len(lines))
    fields = lines[ln].split(",")
    col = rng.randrange(len(fields))
    if kind == "csv-non-finite":
        fields[col] = rng.choice(["nan", "inf", "-inf", "1e400", "NaN", "", "0x1p3", "1.0.0"])
    elif kind == "csv-drop-field":
        del fields[col]
    else:
        fields.insert(col, "0.5")
    lines[ln] = ",".join(fields)
    return "\n".join(lines) + "\n", f"line {ln + 1}: {lines[ln]!r}"


@pytest.mark.parametrize("kind", [
    "flip-type", "non-finite", "drop-key", "out-of-range",
    "csv-non-finite", "csv-drop-field", "csv-extra-field",
])
def test_seeded_input_mutations_exit_2_or_3(tmp_path, capsys, kind):
    """Seeded mutations of a valid train config and its data file: flipped
    types, NaN/Infinity/1e400 numbers, out-of-range values, dropped keys,
    sections and fields. Every mutant is rejected with exit code 2 (config)
    or 3 (data), the message is one error line, never a traceback, and no
    output directory is left behind."""
    x, y = gen_conditional_bimodal(_MUTATION_ROWS, substream(11, "cli-test-data"))
    good_csv = tmp_path / "good.csv"
    save_csv(good_csv, x, y)
    doc = train_doc()
    doc["train"].update(epochs=1, val_count=4)
    doc["data"] = {"generator": None}
    good_cfg = write_config(tmp_path / "good.json", doc)
    assert main(["train", "--config", good_cfg, "--out", str(tmp_path / "ok"),
                 "--data", str(good_csv)]) == 0
    capsys.readouterr()
    for seed in range(24):
        rng = random.Random(f"{kind}-{seed}")
        cfg, data = good_cfg, good_csv
        if kind.startswith("csv"):
            text, label = _mutate_csv(good_csv.read_text().splitlines(), kind, rng)
            data = tmp_path / f"m{seed}.csv"
            data.write_text(text)
            expected = (3,)
        else:
            text, label = _mutate_config(doc, kind, rng, seed)
            cfg = tmp_path / f"m{seed}.json"
            cfg.write_text(text)
            expected = (2,)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / f"o{seed}"),
                     "--data", str(data)])
        err = capsys.readouterr().err
        assert code in expected, (seed, label, code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (seed, label, err)
        assert "Traceback" not in err
        assert not (tmp_path / f"o{seed}").exists(), (seed, label)


@pytest.mark.parametrize("section, key, value, message", [
    ("objective", "weights", [1.0, 1.0], "expected 1 loss weights"),
    ("train", "val_count", 48, "val_count must lie strictly between 0 and 48"),
])
def test_train_error_during_training_leaves_no_out_dir(tmp_path, capsys, section, key, value,
                                                       message):
    doc = train_doc()
    doc[section][key] = value
    doc["train"]["checkpoint_every"] = 1
    cfg = write_config(tmp_path / "train.json", doc)
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_main_looks_up_hooks_by_name(tmp_path, monkeypatch):
    """main calls the module-level load_config and cmd_<name> it finds at
    call time, so a caller that rebinds them on the module (as the
    benchmark does to time set-up and work) sees both calls."""
    import disconet.cli as cli

    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "load_config", recording("load_config", cli.load_config))
    monkeypatch.setattr(cli, "cmd_toy", recording("cmd_toy", cli.cmd_toy))
    doc = {"toy": {"seeds": [0], "n_train": 20, "n_test": 20, "m": 4,
                   "mu_values": [0.0, 0.5], "sigma_values": [0.5, 1.0]}}
    cfg = write_config(tmp_path / "toy.json", doc)
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
    assert calls == ["load_config", "cmd_toy"]


def test_memory_error_exit_2(tmp_path, capsys, monkeypatch):
    """A MemoryError is a config error, since every size that reaches an
    allocation comes from the config: exit 2 with one error line and no
    traceback. The command is stubbed, so nothing is allocated."""
    import disconet.cli as cli

    def out_of_memory(config, args):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli, "cmd_train", out_of_memory)
    cfg = write_config(tmp_path / "train.json", train_doc())
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 8.00 EiB for an array\n"
    assert captured.out == ""


def test_config_hash_canonical(tmp_path):
    a = {"schema_version": 1, "net": {"x_dim": 1, "y_dim": 2}}
    b = {"net": {"y_dim": 2, "x_dim": 1}, "schema_version": 1}
    assert config_hash(a) == config_hash(b)
    c = {"schema_version": 1, "net": {"x_dim": 1, "y_dim": 3}}
    assert config_hash(a) != config_hash(c)


def test_seed_override(tmp_path):
    path = write_config(tmp_path / "c.json", train_doc())
    base = load_config(path, ("train",))
    overridden = load_config(path, ("train",), seed_override=9)
    assert overridden["train"]["seed"] == 9
    assert config_hash(base) != config_hash(overridden)

    toy = write_config(tmp_path / "t.json", {"toy": {"seeds": [0, 1, 2]}})
    overridden = load_config(toy, ("toy",), seed_override=4)
    assert overridden["toy"]["seeds"] == [4]


def test_toy_degenerate_grid(tmp_path):
    """A one-point grid forces both fits onto that point, so the cross
    table ties and strict dominance fails with exit code 1."""
    doc = {
        "toy": {
            "seeds": [0],
            "n_train": 40,
            "n_test": 40,
            "m": 8,
            "mu_values": [0.5],
            "sigma_values": [0.7],
        }
    }
    cfg = write_config(tmp_path / "toy.json", doc)
    out = tmp_path / "out"
    assert main(["toy", "--config", cfg, "--out", str(out)]) == 1
    fitted = json.loads((out / "fitted_params.json").read_text())
    for fit in fitted["per_seed"][0]["fits"].values():
        assert fit == {"mu1": 0.5, "mu2": 0.5, "sigma1": 0.7, "sigma2": 0.7}
    assert fitted["diagonal_dominance"] is False
    text = (out / "cross_table.csv").read_text()
    assert text.startswith("# config_sha256=")
    assert "train_loss,task_dim1,task_dim1_sem,task_dim2,task_dim2_sem" in text


def test_toy_artifacts_pinned(tmp_path):
    """Criterion 9's toy config (one seed, n 40, m 8, a 3 x 3 grid) writes
    these exact bytes and exits 1: its one-seed table is not dominant. A
    change to the grid fit, the table or the writers that moves a bit of
    either file shows here."""
    doc = {"toy": {"seeds": [0], "n_train": 40, "n_test": 40, "m": 8,
                   "mu_values": [-1.4, 0.0, 1.4], "sigma_values": [0.3, 0.9, 1.5]}}
    out = tmp_path / "out"
    assert main(["toy", "--config", write_config(tmp_path / "toy.json", doc), "--out", str(out)]) == 1
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == {
        "cross_table.csv": "a9fb8e6c43b9be2b0ee0200875cee1f7604e7b3b12b1f017c160e729b62c5ef5",
        "fitted_params.json": "c8c78b7f56592b561db363969dc5d1b683de91fed0a4a3e0172528a2c5b99447",
    }


def test_toy_sigma_not_positive_exit_2(tmp_path, capsys):
    """A stddev of 0 in the grid is a contract error: exit 2 naming the
    rule, in one line, and nothing written into --out."""
    doc = {"toy": {"seeds": [0], "n_train": 20, "n_test": 20, "m": 4,
                   "mu_values": [0.0, 0.5], "sigma_values": [0.0, 0.9]}}
    out = tmp_path / "o"
    code = main(["toy", "--config", write_config(tmp_path / "toy.json", doc), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: sigma grid values must be positive\n"
    assert not out.exists()


def test_toy_section_is_toy_cross_table_parameters():
    """``cmd_toy`` passes the toy section as keyword arguments, so its keys
    and toy_cross_table's parameters are the same names."""
    assert set(_SCHEMA["toy"]) == set(inspect.signature(toy_cross_table).parameters)


@pytest.mark.parametrize("gamma", [2.0, -0.5])
def test_toy_gamma_out_of_range_exit_2(tmp_path, capsys, gamma):
    doc = {"toy": {"seeds": [0], "n_train": 20, "n_test": 20, "m": 4, "gamma": gamma,
                   "mu_values": [0.0, 0.5], "sigma_values": [0.5, 1.0]}}
    cfg = write_config(tmp_path / "toy.json", doc)
    code = main(["toy", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: gamma must lie in [0, 1]") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("toy, message", [
    # the first grid point's samples overflow in the fit
    ({"seeds": [0], "n_train": 20, "m": 4, "mu_values": [0.0, 0.5], "sigma_values": [1e308, 0.5]},
     "error: toy grid point {'mu1': 0.0, 'mu2': 0.0, 'sigma1': 1e+308, "),
    # the one training draw stays finite and the fit succeeds; the test draws overflow
    ({"seeds": [115], "n_train": 1, "m": 2, "mu_values": [0.0], "sigma_values": [1e154]},
     "error: fitted Gaussian {'mu1': 0.0, 'mu2': 0.0, 'sigma1': 1e+154, "),
], ids=["fit", "eval"])
def test_toy_overflow_exit_4_writes_nothing(tmp_path, capsys, toy, message):
    """Samples that overflow exit 4 naming the Gaussian, and nothing is
    written into --out."""
    doc = {"toy": {"n_test": 50, **toy}}
    cfg = write_config(tmp_path / "toy.json", doc)
    out = tmp_path / "o"
    code = main(["toy", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(message)
    assert "non-finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_train_artifacts_and_rerun_identical(tmp_path):
    cfg = write_config(tmp_path / "train.json", train_doc())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("checkpoint.txt", "history.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    config = load_config(cfg, ("net", "objective", "train", "data"))
    assert summary["config_sha256"] == config_hash(config)
    assert summary["epochs"] == 2
    assert summary["param_count"] == (1 + 1) * 4 + (6 + 1) * 4 + (4 + 1) * 1
    header = (out1 / "history.csv").read_text().splitlines()
    assert header[1] == "epoch,train_objective,val_objective,train_pq,train_qq"


def test_train_seed_flag_changes_model(tmp_path):
    cfg = write_config(tmp_path / "train.json", train_doc())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
    assert (out1 / "checkpoint.txt").read_text() != (out2 / "checkpoint.txt").read_text()


def test_train_data_override(tmp_path, capsys):
    x, y = gen_conditional_bimodal(32, substream(11, "cli-test-data"))
    data = tmp_path / "data.csv"
    save_csv(data, x, y)
    doc = train_doc()
    doc["data"] = {"generator": None}
    doc["train"]["val_count"] = 4
    cfg = write_config(tmp_path / "train.json", doc)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--data", str(data)]) == 0
    assert (out / "checkpoint.txt").exists()
    capsys.readouterr()
    # without --data there is no data source at all
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "none")]) == 2
    assert capsys.readouterr().err == "error: data.generator is null and no --data file was given\n"
    assert not (tmp_path / "none").exists()


def test_train_rejects_non_finite_data_row(tmp_path, capsys):
    x, y = gen_conditional_bimodal(16, substream(11, "cli-test-data"))
    data = tmp_path / "data.csv"
    save_csv(data, x, y)
    lines = data.read_text().splitlines()
    lines[4] = "0.5,nan"
    data.write_text("\n".join(lines) + "\n")
    doc = train_doc()
    doc["train"]["val_count"] = 4
    cfg = write_config(tmp_path / "train.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--data", str(data)]) == 3
    assert "line 5" in capsys.readouterr().err


def _trained_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "train.json", train_doc())
    out = tmp_path / "trained"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out / "checkpoint.txt"


def test_eval_paths(tmp_path):
    ckpt = _trained_checkpoint(tmp_path)
    doc = {"data": dict(SMALL_DATA), "eval": {"num_candidates": 3,
                                              "distances": [0.5, 1.0]}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 0
    doc_json = json.loads((out / "metrics.json").read_text())
    assert doc_json["counts"] == {"frames": 48, "candidates": 3, "joints": 1}
    assert doc_json["probloss"]["value"] > 0.0
    assert set(doc_json["ff"]) == {"0.5", "1"}
    assert "config_sha256" in doc_json
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[1] == "metric,value,sem"

    # deterministic rerun
    out2 = tmp_path / "ev2"
    assert main(["eval", "--config", cfg, "--out", str(out2),
                 "--checkpoint", str(ckpt)]) == 0
    assert (out / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


def test_eval_zero_noise_and_base(tmp_path):
    ckpt = _trained_checkpoint(tmp_path)
    doc = {"data": dict(SMALL_DATA),
           "eval": {"num_candidates": 3, "distances": [1.0], "zero_noise": True}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "zn"
    assert main(["eval", "--config", cfg, "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 0

    doc["eval"]["base_sigma"] = 0.25
    cfg = write_config(tmp_path / "eval2.json", doc)
    out_base = tmp_path / "base"
    assert main(["eval", "--config", cfg, "--out", str(out_base),
                 "--checkpoint", str(ckpt)]) == 0
    base_json = json.loads((out_base / "metrics.json").read_text())
    assert base_json["counts"]["candidates"] == 3

    # a missing checkpoint is an I/O failure, not a config failure
    assert main(["eval", "--config", cfg, "--out", str(out_base),
                 "--checkpoint", str(tmp_path / "nope.txt")]) == 3


def test_eval_runs_the_zero_noise_pass_once(tmp_path, monkeypatch):
    """With base_sigma > 0 and zero_noise both set, the baseline's jitter
    centres and the pointwise predictions are one zero-noise pass, taken a
    block of EVAL_BLOCK frames at a time: each of the 48 frames once."""
    import disconet.cli as cli

    ckpt = _trained_checkpoint(tmp_path)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return predict_rows(*args, **kwargs)

    monkeypatch.setattr(cli, "predict_rows", counted)
    doc = {"data": dict(SMALL_DATA), "eval": {"num_candidates": 3, "distances": [1.0],
                                              "zero_noise": True, "base_sigma": 0.25}}
    cfg = write_config(tmp_path / "eval.json", doc)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(ckpt)]) == 0
    assert [len(args[1]) for args in calls] == [EVAL_BLOCK] * 3


@pytest.mark.parametrize("key, value, message", [
    ("group_size", 0, "group_size must be >= 1"),
    ("group_size", -1, "group_size must be >= 1"),
    ("num_candidates", 0, "eval.num_candidates must be >= 1"),
    ("num_candidates", -1, "eval.num_candidates must be >= 1"),
])
def test_eval_sizes_below_one_exit_2(tmp_path, capsys, key, value, message):
    ckpt = tmp_path / "ckpt.txt"
    init_params(NetConfig(x_dim=1, y_dim=2, z_dim=2), seed=0).save(ckpt)
    x, y = gen_conditional_bimodal(8, substream(11, "cli-test-data"))
    data = tmp_path / "frames.csv"
    save_csv(data, x, np.hstack([y, y]))
    doc = {"data": {"generator": None}, "eval": {"num_candidates": 3, key: value}}
    cfg = write_config(tmp_path / "eval.json", doc)
    code = main(["eval", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(ckpt), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("base_sigma", -0.5),
    ("distances", [-1.0]),
    ("distances", [0.5, -0.001]),
])
def test_eval_negative_ranges_exit_2(tmp_path, capsys, key, value):
    """Checked before the checkpoint is read: the one given does not exist."""
    doc = {"data": dict(SMALL_DATA), "eval": {"num_candidates": 3, key: value}}
    cfg = write_config(tmp_path / "eval.json", doc)
    code = main(["eval", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(tmp_path / "never-read.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: eval.{key} must") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("base_sigma", [0.0, 0.3], ids=["sampled", "base_sigma"])
def test_eval_probloss_replays_draw_order(tmp_path, base_sigma):
    """ProbLoss in metrics.json is the mean and sem of per-frame energy
    scores, with each frame's candidates drawn in frame order: K noise rows
    from "eval-noise", sampled EVAL_BLOCK frames at a time (40 frames make
    two full blocks and a short one), or K jitter rows from "base-jitter"
    around the zero-noise prediction, taken in the same blocks."""
    net = NetConfig(x_dim=1, y_dim=2, z_dim=3, encoder_widths=(4,), decoder_widths=(4,))
    ckpt = tmp_path / "ckpt.txt"
    init_params(net, seed=5).save(ckpt)
    params = NetworkParams.load(ckpt)
    x, y1 = gen_conditional_bimodal(40, substream(11, "cli-test-data"))
    y = np.hstack([y1, -y1])
    data = tmp_path / "frames.csv"
    save_csv(data, x, y)
    k, seed = 4, 3
    doc = {"data": {"generator": None},
           "eval": {"num_candidates": k, "base_sigma": base_sigma, "seed": seed}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 0

    if base_sigma > 0.0:
        rng = substream(seed, "base-jitter")
        zero = np.zeros((x.shape[0], net.z_dim))
        point = np.concatenate([predict_rows(params, x[s:s + EVAL_BLOCK], zero[s:s + EVAL_BLOCK])
                                for s in range(0, x.shape[0], EVAL_BLOCK)])
    else:
        sampled = eval_candidates(params, x, k, substream(seed, "eval-noise"))
    scores = []
    for i in range(x.shape[0]):
        if base_sigma > 0.0:
            outs = point[i] + base_sigma * rng.standard_normal((k, net.y_dim))
        else:
            outs = sampled[i]
        scores.append(energy_score_sample(outs, y[i], LossSpec(beta=1.0)))
    scores = np.asarray(scores)
    got = json.loads((out / "metrics.json").read_text())["probloss"]
    assert got["value"] == float(scores.mean())
    assert got["sem"] == float(scores.std(ddof=1) / math.sqrt(scores.size))


def _eval_peaks(tmp_path, eval_keys):
    """The traced peaks of `disconet eval` on the full-scale net at K = 32,
    with `eval_keys` added to its eval section, at 500 and 2,000 frames."""
    net = NetConfig(x_dim=1, y_dim=42, z_dim=200, encoder_widths=(256,), decoder_widths=(256, 256))
    ckpt = tmp_path / "ckpt.txt"
    init_params(net, seed=1).save(ckpt)
    cfg = write_config(tmp_path / "eval.json", {"data": {"generator": None}, "eval": {
        "num_candidates": 32, "group_size": 3, **eval_keys}})
    rng, peaks = np.random.default_rng(23), []
    for n in (500, 2000):
        data = tmp_path / f"frames_{n}.csv"
        save_csv(data, rng.uniform(-1.0, 1.0, size=(n, 1)), rng.normal(size=(n, 42)))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            assert main(["eval", "--config", cfg, "--out", str(tmp_path / f"ev_{n}"),
                         "--checkpoint", str(ckpt), "--data", str(data)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - start)
    return peaks


def test_eval_peak_memory_does_not_grow_with_the_frames(tmp_path, capsys):
    """`disconet eval` on the full-scale net at K = 32 draws and scores its
    candidates EVAL_BLOCK frames at a time, so its traced peak is the same
    at 500 and at 2,000 frames, and under half the 21.5 MB that 2,000
    frames' candidates alone would take (the checkpoint read sets it)."""
    peaks = _eval_peaks(tmp_path, {})
    capsys.readouterr()
    assert abs(peaks[1] - peaks[0]) < 2**20
    assert max(peaks) < 2000 * 32 * 42 * 8 / 2


@pytest.mark.parametrize("eval_keys", [{"base_sigma": 0.3}, {"zero_noise": True}],
                         ids=["base_sigma", "zero_noise"])
def test_eval_zero_noise_pass_peak_does_not_grow_with_the_frames(tmp_path, capsys, eval_keys):
    """The zero-noise pass, the jitter centres of `base_sigma` and the
    pointwise predictions of `zero_noise`, runs a block of frames at a time
    as well: only its (N, y_dim) result is held, 0.5 MB more at 2,000 frames
    than at 500, and the traced peak stays within 1 MB."""
    peaks = _eval_peaks(tmp_path, eval_keys)
    capsys.readouterr()
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_eval_rejects_bad_csv(tmp_path):
    ckpt = _trained_checkpoint(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,3.0\n")  # three fields for a 1/1 net
    doc = {"data": {"generator": None}, "eval": {"num_candidates": 3,
                                                 "distances": [1.0]}}
    cfg = write_config(tmp_path / "eval.json", doc)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(ckpt), "--data", str(bad)]) == 3


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_data_csv_exit_3(tmp_path, capsys, command):
    """A --data CSV without a data row is a data error for every command."""
    data = tmp_path / "empty.csv"
    data.write_text("# no rows\n")
    doc = train_doc() if command == "train" else {"data": dict(SMALL_DATA), "eval": {}}
    cfg = write_config(tmp_path / "c.json", doc)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--data", str(data)]
    if command == "eval":
        ckpt = tmp_path / "ckpt.txt"
        init_params(NetConfig(**SMALL_NET), seed=0).save(ckpt)
        argv += ["--checkpoint", str(ckpt)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {data}: no data rows\n"
    assert not (tmp_path / "o").exists()


def test_eval_colliding_ff_labels_exit_2(tmp_path, capsys):
    """Two distances that print alike would share one key in metrics.json."""
    ckpt = tmp_path / "ckpt.txt"
    init_params(NetConfig(**SMALL_NET), seed=0).save(ckpt)
    doc = {"data": dict(SMALL_DATA),
           "eval": {"num_candidates": 3, "distances": [1.0, 1.0000001, 1.5]}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "o"
    assert main(["eval", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 2
    assert "1.0 and 1.0000001" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_non_finite_checkpoint(tmp_path, capsys):
    ckpt = _trained_checkpoint(tmp_path)
    lines = ckpt.read_text().splitlines()
    lines[2] = "nan"
    ckpt.write_text("\n".join(lines) + "\n")
    doc = {"data": dict(SMALL_DATA), "eval": {"num_candidates": 3, "distances": [1.0]}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 3
    assert "line 3" in capsys.readouterr().err
    written = [f.read_text() for f in out.iterdir()] if out.exists() else []
    assert not any("NaN" in text for text in written)


@pytest.mark.parametrize("target", ["checkpoint", "data"])
def test_eval_rejects_grouped_digits_exit_3(tmp_path, capsys, target):
    """float() reads '1_0' as 10.0; in either input file it is a parse
    error that names its line."""
    ckpt = tmp_path / "ckpt.txt"
    init_params(NetConfig(**SMALL_NET), seed=0).save(ckpt)
    data = tmp_path / "data.csv"
    data.write_text("0.5,1.5\n0.25,-1.0\n")
    path = ckpt if target == "checkpoint" else data
    lines = path.read_text().splitlines()
    lines[1] = "1_0" if target == "checkpoint" else "0.5,1_0"
    path.write_text("\n".join(lines) + "\n")
    doc = {"data": {"generator": None}, "eval": {"num_candidates": 3, "distances": [1.0]}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "o"
    assert main(["eval", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt),
                 "--data", str(data)]) == 3
    assert f"{path}: line 2: " in capsys.readouterr().err
    assert not out.exists()


def _eval_inputs(tmp_path):
    """A valid eval config, checkpoint and --data CSV, and the eval argv."""
    ckpt = tmp_path / "ckpt.txt"
    init_params(NetConfig(**SMALL_NET), seed=0).save(ckpt)
    data = tmp_path / "data.csv"
    data.write_text("0.5,1.5\n0.25,-1.0\n")
    doc = {"data": {"generator": None}, "eval": {"num_candidates": 3, "distances": [1.0]}}
    cfg = Path(write_config(tmp_path / "eval.json", doc))
    argv = ["eval", "--config", str(cfg), "--out", str(tmp_path / "o"), "--checkpoint",
            str(ckpt), "--data", str(data)]
    return {"config": cfg, "checkpoint": ckpt, "data": data}, argv


@pytest.mark.parametrize("target, code", [("config", 2), ("data", 3), ("checkpoint", 3)])
def test_eval_rejects_bytes_that_are_not_utf8(tmp_path, capsys, target, code):
    """A byte that is not UTF-8 is an error of the file that holds it: exit 2
    for the config, 3 for the data or the checkpoint, naming the file and the
    line, not a traceback and exit 1, which means a checked result failed."""
    paths, argv = _eval_inputs(tmp_path)
    path = paths[target]
    lines = path.read_bytes().split(b"\n")
    lines[1] += b"\xff"
    path.write_bytes(b"\r\n".join(lines))
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {path}: line 2: not UTF-8: invalid start byte\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("target", ["checkpoint", "data"])
def test_eval_rejects_no_break_space_exit_3(tmp_path, capsys, target):
    """float() skips a no-break space around a number, as it skips ' '; in
    either input file it is a parse error that names its line."""
    paths, argv = _eval_inputs(tmp_path)
    path = paths[target]
    lines = path.read_text().splitlines()
    lines[1] = "\u00a0" + lines[1] if target == "checkpoint" else "0.5,\u00a01.0"
    path.write_text("\n".join(lines) + "\n", encoding="utf8")
    assert main(argv) == 3
    assert f"{path}: line 2: not a number: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the header's version key written twice, first with a version no reader takes
_REPEATED_VERSION = '"version": 9, "version": 1'


@pytest.mark.parametrize("field, value", [
    ("noise_enabled", "false"),
    ("x_dim", 1.7),
    ("x_dim", True),
    ("encoder_widths", "4"),
    ("encoder_widths", [4.0]),
    ("depth", 3),
    ("version", True),
    ("version", 1.0),
    ("version", _REPEATED_VERSION),
])
def test_eval_rejects_malformed_checkpoint_header_exit_3(tmp_path, capsys, field, value):
    """Headers that a coercing or last-key-wins parse would accept:
    bool("false") is True, 1.7, true and 4.0 become 1, 1 and 4, the string
    "4" is the widths (4,), an unknown net key is ignored, true and 1.0
    equal the version 1, and a repeated version key keeps its last value."""
    ckpt = tmp_path / "ckpt.txt"
    init_params(NetConfig(**SMALL_NET), seed=0).save(ckpt)
    lines = ckpt.read_text().splitlines()
    if value == _REPEATED_VERSION:
        assert '"version": 1' in lines[0]
        header_line = lines[0].replace('"version": 1', value)
    else:
        header = json.loads(lines[0])
        (header if field == "version" else header["net"])[field] = value
        header_line = json.dumps(header)
    ckpt.write_text("\n".join([header_line] + lines[1:]) + "\n")
    doc = {"data": dict(SMALL_DATA), "eval": {"num_candidates": 3, "distances": [1.0]}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "o"
    assert main(["eval", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert ": line 1: " in err
    if value == _REPEATED_VERSION:
        assert err == f"error: {ckpt}: line 1: bad header: duplicate key 'version'\n"
    assert not out.exists()


def test_duplicate_config_key_exit_2(tmp_path, capsys):
    """A repeated key is refused, not settled by keeping its last value."""
    path = tmp_path / "gradcheck.json"
    path.write_text('{"schema_version": 1, "net": {"x_dim": 1, "y_dim": 1},\n'
                    ' "gradcheck": {"seed": 1, "seed": 2}}\n')
    assert main(["gradcheck", "--config", str(path)]) == 2
    assert "duplicate key 'seed'" in capsys.readouterr().err


def test_write_json_rejects_non_finite(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(NumericError):
        _write_json(path, {"schema_version": 1}, {"value": float("nan")})
    assert not path.exists()


def test_gradcheck_pass_and_corrupt(tmp_path, capsys, monkeypatch):
    import disconet.cli as cli

    # default num_examples: this fixture sits clear of the beta = 1 kinks,
    # where a finite-difference step across coinciding candidates would
    # report a false mismatch
    doc = {"net": dict(SMALL_NET),
           "gradcheck": {"gammas": [0.0, 0.5], "betas": [1.0, 1.5],
                         "num_candidates": 3}}
    cfg = write_config(tmp_path / "gc.json", doc)
    assert main(["gradcheck", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    exact = cli.objective_terms

    def corrupted(*args):
        pq, qq, value, grad = exact(*args)
        return pq, qq, value, grad + 1e-3

    monkeypatch.setattr(cli, "objective_terms", corrupted)
    assert main(["gradcheck", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_gradcheck_measures_roundoff_slopes_again(tmp_path, capsys, monkeypatch):
    """The desk net at seed 1, gamma 0.5, beta 1 has 202 slopes below 1e-18
    whose central differences read one ulp of the objective over two steps.
    They are measured again with a larger step, so the exact gradient passes
    and a wrong one still fails."""
    import disconet.cli as cli
    import disconet.objective as objective_module

    net = {"x_dim": 1, "y_dim": 1, "z_dim": 8, "encoder_widths": [32], "decoder_widths": [32, 32]}
    cfg = write_config(tmp_path / "gc.json", {"net": net, "gradcheck": {"gammas": [0.5], "betas": [1.0]}})
    assert main(["gradcheck", "--config", cfg, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "measured 202 coordinates again" in out and "PASS" in out

    exact_terms, exact_pair = cli.objective_terms, objective_module.pair_grad

    def offset(*args):
        pq, qq, value, grad = exact_terms(*args)
        return pq, qq, value, grad + 1e-3

    def flipped(g, w, beta):
        value, grad = exact_pair(g, w, beta)
        return value, -grad

    for module, name, fault in ((cli, "objective_terms", offset),
                                (objective_module, "pair_grad", flipped)):
        with monkeypatch.context() as m:
            m.setattr(module, name, fault)
            assert main(["gradcheck", "--config", cfg, "--seed", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_gradcheck_requires_its_section(tmp_path, capsys):
    cfg = write_config(tmp_path / "gc.json", {"net": {"x_dim": 1, "y_dim": 1}})
    assert main(["gradcheck", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "missing required section 'gradcheck'" in captured.err
    assert captured.out == ""


# a one-output net, as the refusals below were first seen on
_GRADCHECK_NET = {"x_dim": 1, "y_dim": 1, "encoder_widths": [4], "decoder_widths": [4]}


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_gradcheck_one_output_net_passes(tmp_path, capsys, monkeypatch, seed):
    """The one-output net's exact gradient passes. At seed 3, gamma 0.5,
    beta 1, one coordinate's analytic slope is 1.2e-17 while f(p + h) and
    f(p - h) each sit 2 ulps off f(p): its central difference reads -5.55e-11,
    so a selection bound of one ulp of f over the step (3.64e-11) would judge
    it at the 1e-6 step, where it reads 5.6e-3. A wrong gradient still fails."""
    import disconet.cli as cli

    cfg = write_config(tmp_path / "gc.json", {"net": dict(_GRADCHECK_NET), "gradcheck": {}})
    assert main(["gradcheck", "--config", cfg, "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.endswith("vs tolerance 0.0001: PASS\n")
    exact = cli.objective_terms

    def offset(*args):
        pq, qq, value, grad = exact(*args)
        return pq, qq, value, grad + 1e-3

    monkeypatch.setattr(cli, "objective_terms", offset)
    assert main(["gradcheck", "--config", cfg, "--seed", str(seed)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("key, value", [
    ("num_examples", -1), ("num_examples", 0), ("num_candidates", -2), ("num_candidates", 0),
])
def test_gradcheck_sizes_below_one_exit_2(tmp_path, capsys, key, value):
    """A size below 1 is a config error naming its key, before any work."""
    doc = {"net": dict(_GRADCHECK_NET), "gradcheck": {key: value}}
    assert main(["gradcheck", "--config", write_config(tmp_path / "gc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: gradcheck.{key} must be >= 1, got {value}\n"
    assert captured.out == ""


@pytest.mark.parametrize("section, message", [
    ({"betas": [1.0, 2.5]}, "beta must lie strictly inside (0, 2), got 2.5"),
    ({"num_candidates": 1}, "gamma > 0 needs at least two candidates per input"),
], ids=["beta", "k1"])
def test_gradcheck_refuses_an_objective_before_the_first_check(tmp_path, capsys, section,
                                                               message):
    """Every (gamma, beta) objective is built before the first draw, so a bad
    one late in the grid is refused with nothing printed to stdout."""
    doc = {"net": dict(_GRADCHECK_NET), "gradcheck": section}
    assert main(["gradcheck", "--config", write_config(tmp_path / "gc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_sweep_refuses_a_bad_run_before_training(tmp_path, capsys, monkeypatch):
    """A negative L2 value late in the grid is refused before the first run
    trains: exit 2, nothing on stdout and no --out."""
    import disconet.cli as cli

    calls = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
    doc = train_doc()
    doc["sweep"] = {"seeds": [0], "l2_values": [0.001, -1.0]}
    out = tmp_path / "o"
    code = main(["sweep", "--config", write_config(tmp_path / "sweep.json", doc),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: l2 must be non-negative\n"
    assert captured.out == ""
    assert calls == []
    assert not out.exists()


def test_sweep_requires_validation(tmp_path):
    doc = train_doc()
    doc["train"]["val_count"] = 0
    doc["sweep"] = {"seeds": [0], "l2_values": [0.001]}
    cfg = write_config(tmp_path / "sweep.json", doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def k1_doc():
    """The non-probabilistic baseline: a noise-free net, one candidate, gamma 0."""
    doc = train_doc()
    doc["net"]["noise_enabled"] = False
    doc["objective"] = {"gamma": 0.0, "num_candidates": 1}
    return doc


def test_train_k1_with_validation_writes_null_probloss(tmp_path):
    """One candidate leaves the validation energy score undefined: train
    writes it as null, as eval does for probloss, instead of failing."""
    cfg = write_config(tmp_path / "train.json", k1_doc())
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["val_probloss"] is None and summary["val_probloss_sem"] is None
    assert math.isfinite(summary["final_val_objective"])
    assert (out / "checkpoint.txt").exists()


def test_sweep_k1_exit_2_before_training(tmp_path, capsys, monkeypatch):
    import disconet.cli as cli

    def no_training(*args, **kwargs):
        raise AssertionError("sweep trained before rejecting K = 1")

    monkeypatch.setattr(cli, "train", no_training)
    doc = k1_doc()
    doc["sweep"] = {"seeds": [0], "l2_values": [0.001]}
    cfg = write_config(tmp_path / "sweep.json", doc)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "objective.num_candidates" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_artifacts(tmp_path):
    doc = train_doc()
    doc["sweep"] = {"seeds": [0], "l2_values": [0.0001, 0.01]}
    cfg = write_config(tmp_path / "sweep.json", doc)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    best = json.loads((out / "best.json").read_text())
    assert best["l2"] in (0.0001, 0.01)
    assert best["seed"] == 0
    assert (out / "best_checkpoint.txt").exists()
    lines = (out / "sweep.csv").read_text().splitlines()
    # comment, header, one row per (seed, l2) combination
    assert len(lines) == 2 + 2


# the small body of each section a command may require
_MINIMAL_SECTIONS = {
    "net": dict(SMALL_NET),
    "objective": dict(SMALL_OBJECTIVE),
    "train": {"epochs": 1, "val_count": 8},
    "data": dict(SMALL_DATA),
    "eval": {"num_candidates": 3},
    "toy": {"seeds": [0], "n_train": 40, "n_test": 40, "m": 4,
            "mu_values": [-1.0, 1.0], "sigma_values": [0.5, 1.0]},
    "gradcheck": {"gammas": [0.5], "betas": [1.5], "num_candidates": 3},
    "sweep": {"seeds": [0], "l2_values": [0.001]},
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_runs_on_its_required_sections(tmp_path, command):
    """A config holding only a command's required sections is enough: every
    section the command reads is required and so filled with its defaults."""
    _, required, flags = _COMMANDS[command]
    cfg = write_config(tmp_path / "c.json", {s: _MINIMAL_SECTIONS[s] for s in required})
    argv = [command, "--config", cfg]
    if "--out" in flags:
        argv += ["--out", str(tmp_path / "o")]
    if "--checkpoint" in flags:
        ckpt = tmp_path / "ckpt.txt"
        init_params(NetConfig(**SMALL_NET), seed=0).save(ckpt)
        argv += ["--checkpoint", str(ckpt)]
    # toy's 1 is its verdict on diagonal dominance, not a failure to run
    assert main(argv) in ((0, 1) if command == "toy" else (0,))


def test_bench_inputs_read_back_bitwise(tmp_path):
    """The files the benchmark writes (``bench/inputs.py``, loaded as a file,
    not edited) read back bit for bit: a checkpoint of repr values, one a
    line, and a CSV that opens with a '#' line. Were either refused or
    changed, ``eval-full`` and the training workloads would fail to run."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_inputs", root / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)

    class Draws:
        """The generator ``write_checkpoint`` draws from, keeping each draw."""

        def __init__(self, rng):
            self.rng, self.kept = rng, []

        def uniform(self, *args, **kwargs):
            self.kept.append(self.rng.uniform(*args, **kwargs))
            return self.kept[-1]

    net = {"x_dim": 2, "y_dim": 3, "z_dim": 4, "encoder_widths": [8],
           "decoder_widths": [8, 6], "noise_enabled": True}
    draws = Draws(inputs.rng_for(7, "checkpoint"))
    inputs.write_checkpoint(tmp_path / "ckpt.txt", net, draws)
    params = NetworkParams.load(tmp_path / "ckpt.txt")
    assert params.config == NetConfig.from_dict(net)
    written = np.concatenate(draws.kept)
    assert params.flat.view(np.uint64).tolist() == written.view(np.uint64).tolist()

    x, y = inputs.pose(40, inputs.rng_for(7, "data"))
    inputs.write_csv(tmp_path / "data.csv", x, y)
    assert (tmp_path / "data.csv").read_text().startswith("#")
    x2, y2 = load_csv(tmp_path / "data.csv", 1, inputs.POSE_DIM)
    assert x2.view(np.uint64).tolist() == x.view(np.uint64).tolist()
    assert y2.view(np.uint64).tolist() == y.view(np.uint64).tolist()


def test_bench_trace_targets_resolve():
    """Every package function the benchmark's tracer wraps is there once the
    package is imported as ``bench/worker.py`` imports it. The tracer looks
    each module up in ``sys.modules`` after ``import disconet`` and ``import
    disconet.cli``, so the lookup runs in a fresh interpreter, where a module
    the package stops importing is missing as it would be under
    ``bench/run.py --trace 1``."""
    root = Path(__file__).resolve().parents[1]
    script = """
import importlib.util, sys
import disconet
import disconet.cli
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
for metric, targets in spans.TIMED.items():
    for module, attr_path in targets:
        obj = sys.modules.get(f"disconet.{module}")
        for part in attr_path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            print(f"{metric}: disconet.{module}.{attr_path}")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "bench" / "spans.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_bench_tracer_hooks_leave_runs_unchanged(tmp_path):
    """The benchmark's tracer, installed as ``bench/worker.py`` installs it,
    wraps the package's functions without changing a run: a tiny toy, train
    and eval of that checkpoint exit and write as they do untraced, and the
    grid hook counts the toy grid's points (two fits of 2 x 2 means and 2 x 2
    stddevs)."""
    root = Path(__file__).resolve().parents[1]
    toy = write_config(tmp_path / "toy.json", {"toy": {
        "seeds": [0], "n_train": 20, "n_test": 20, "m": 4,
        "mu_values": [-1.0, 1.0], "sigma_values": [0.5, 1.0]}})
    train_cfg = write_config(tmp_path / "train.json", train_doc())
    eval_cfg = write_config(tmp_path / "eval.json",
                            {"data": dict(SMALL_DATA), "eval": {"num_candidates": 4}})

    def runs(out):
        return [
            ["toy", "--config", toy, "--out", str(out / "toy")],
            ["train", "--config", train_cfg, "--out", str(out / "train")],
            ["eval", "--config", eval_cfg, "--out", str(out / "eval"),
             "--checkpoint", str(out / "train" / "checkpoint.txt")],
        ]

    script = """
import importlib.util, json, sys
import disconet
import disconet.cli
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install("disconet")
codes = [disconet.cli.main(argv) for argv in json.loads(sys.argv[3])]
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "grid_points": tracer.report()["synth.grid_points"]}, fh)
"""
    result = tmp_path / "traced.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "bench" / "spans.py"), str(result),
         json.dumps(runs(tmp_path / "traced"))],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text())
    assert traced["codes"] == [main(argv) for argv in runs(tmp_path / "plain")]
    assert traced["grid_points"] == 2 * 2 ** 2 * 2 ** 2
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for out in (tmp_path / "plain", tmp_path / "traced")]
    assert files[0] == files[1] and len(files[0]) == 7
    for name in files[0]:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
