"""Experiment command line.

Subcommands: ``toy`` (2-D mixture cross table), ``train``, ``eval``,
``gradcheck``, and ``sweep`` (seed x L2 grid). Configs are JSON documents
with fixed sections and strict validation: any unknown section or key is
an error, and a ``schema_version`` tag is required. Every command's
randomness flows from the config's seed through named substreams, so a
rerun with the same config and seed writes byte-identical files. Every
CSV and JSON artifact embeds the SHA-256 hash of the effective config
(after any ``--seed`` override); checkpoints do not.

Exit codes: 0 success; 1 a checked result condition failed (cross-table
dominance or gradient tolerance); 2 config error or MemoryError (every
allocated size comes from the config); 3 data error; 4 numeric error.
"""

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DisconetError,
    NumericError,
    ParseError,
    SchemaError,
)
from .metrics import EVAL_BLOCK, base_candidates, joint_count, metrics_report, report_rows
from .network import (
    NetConfig,
    NetworkParams,
    draw_noise,
    init_params,
    predict_rows,
    sample_outputs,
)
from .objective import GRAD_CHECK_TOLERANCE, ObjectiveConfig, grad_check_detail, objective_terms
from .rng import derive_seed, substream
from .scoring import LossSpec
from .strictjson import TYPES, dataclass_keys, keyspec, read_file, read_json
from .synth import TOY_GAMMA, TOY_M, TOY_MU_VALUES, TOY_N, TOY_SIGMA_VALUES
from .synth import gen_conditional_bimodal, load_csv, toy_cross_table
from .training import TrainConfig, train, train_val_split
from .metrics import probloss as probloss_metric

SCHEMA_VERSION = 1

# section -> key -> (check, type name, default); a MISSING default marks a
# required key. A default the library owns is taken from it.
_SCHEMA = {
    "net": dataclass_keys(NetConfig),
    "objective": {
        "gamma": keyspec("number", ObjectiveConfig.gamma),
        "num_candidates": keyspec("int", ObjectiveConfig.num_candidates),
        "beta": keyspec("number", LossSpec.beta),
        "weights": keyspec("non-empty list of numbers or null", LossSpec.weights),
    },
    "train": dataclass_keys(TrainConfig, skip=("objective",)),
    "data": {
        "generator": keyspec("string or null", "conditional_bimodal"),
        "n": keyspec("int", 1000),
    },
    "eval": {
        "num_candidates": keyspec("int", 16),
        "group_size": keyspec("int", 1),
        "distances": keyspec("non-empty list of numbers", [0.1, 0.25, 0.5, 1.0]),
        "zero_noise": keyspec("bool", False),
        "base_sigma": keyspec("number", 0.0),
        "seed": keyspec("int", 0),
    },
    "toy": {
        "seeds": keyspec("non-empty list of int", [0, 1, 2, 3, 4]),
        "n_train": keyspec("int", TOY_N),
        "n_test": keyspec("int", TOY_N),
        "m": keyspec("int", TOY_M),
        "gamma": keyspec("number", TOY_GAMMA),
        "mu_values": keyspec("non-empty list of numbers", list(TOY_MU_VALUES)),
        "sigma_values": keyspec("non-empty list of numbers", list(TOY_SIGMA_VALUES)),
    },
    "gradcheck": {
        "gammas": keyspec("non-empty list of numbers", [0.0, 0.25, 0.5]),
        "betas": keyspec("non-empty list of numbers", [0.5, 1.0, 1.5]),
        "num_examples": keyspec("int", 4),
        "num_candidates": keyspec("int", 3),
        "seed": keyspec("int", 0),
    },
    "sweep": {
        "seeds": keyspec("non-empty list of int", [0, 1, 2]),
        "l2_values": keyspec("non-empty list of numbers", [0.0001, 0.001, 0.01]),
    },
}

# section -> the key that ``--seed`` overrides; a list of seeds becomes [seed]
_SEED_KEYS = {
    "train": "seed", "eval": "seed", "gradcheck": "seed", "toy": "seeds", "sweep": "seeds",
}


def load_config(path, required_sections, seed_override=None):
    """Load, validate, and normalize a config file.

    Unknown sections or keys, repeated keys, wrong value types, a missing or
    mismatched ``schema_version``, and missing required sections all raise
    ConfigError. Defaults are filled so callers see complete sections.
    """
    try:
        text = read_file(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = read_json(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "schema_version" not in doc:
        raise ConfigError(f"{path}: missing schema_version")
    version = doc.pop("schema_version")
    if not (TYPES["int"](version) and version == SCHEMA_VERSION):
        raise ConfigError(f"{path}: schema_version {version!r} != {SCHEMA_VERSION}")
    for section, body in doc.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        spec = _SCHEMA[section]
        for key, value in body.items():
            if key not in spec:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            check, typename, _ = spec[key]
            if not check(value):
                raise ConfigError(f"{path}: {section}.{key} must be {typename}, got {value!r}")
    for section in required_sections:
        if section not in doc:
            raise ConfigError(f"{path}: missing required section {section!r}")
    for section, body in doc.items():
        for key, (_, _, default) in _SCHEMA[section].items():
            if key not in body:
                if default is MISSING:
                    raise ConfigError(f"{path}: missing required key {section}.{key}")
                body[key] = copy.deepcopy(default)  # a caller may change its config in place
    if seed_override is not None:
        for section, key in _SEED_KEYS.items():
            if section in doc:
                doc[section][key] = [seed_override] if key == "seeds" else seed_override
    return {"schema_version": SCHEMA_VERSION, **doc}


def config_hash(config):
    """SHA-256 of the canonical JSON form of the effective config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf8")).hexdigest()


def _write_json(path, config, doc):
    """Write `doc` and `config`'s ``config_sha256`` as standard JSON, making the
    file's directory; a non-finite value is a NumericError, not a bare NaN token."""
    try:
        text = json.dumps({"config_sha256": config_hash(config), **doc}, sort_keys=True,
                          indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text + "\n", encoding="utf8")


def _write_csv(path, config, header, rows):
    """Write `config`'s ``# config_sha256=`` line, the header and the rows, making the directory."""
    lines = [f"# config_sha256={config_hash(config)}", ",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf8")


def _fmt(x):
    return repr(float(x))


def _settings(config):
    """The ``(NetConfig, TrainConfig)`` of `config`, each checked as it is built."""
    net = NetConfig.from_dict(config["net"])
    ob = config["objective"]
    loss = LossSpec(beta=float(ob["beta"]), weights=tuple(ob["weights"]) if ob["weights"] else None)
    objective = ObjectiveConfig(float(ob["gamma"]), ob["num_candidates"], loss)
    return net, TrainConfig(objective=objective, **config["train"])


def _train_and_score(config, net, tc, data_path, checkpoint_dir=None):
    """Train one model on ``_settings(config)``; returns ``(params, epochs, val)``.

    ``val`` is the ``(value, sem)`` ProbLoss of the validation split, drawn
    from the "summary-eval" substream, or ``(None, None)`` when
    train.val_count is 0 or a single candidate per input leaves the energy
    score undefined.
    """
    k = tc.objective.num_candidates
    data = _load_xy(config, data_path, tc.seed, net.x_dim, net.y_dim)
    params, epochs = train(net, tc, data, checkpoint_dir=checkpoint_dir)
    if not tc.val_count or k < 2:
        return params, epochs, (None, None)
    (_, _), (x_val, y_val) = train_val_split(data, tc.val_count, tc.seed)
    rng = substream(tc.seed, "summary-eval")
    outs = sample_outputs(params, x_val, k, rng)
    return params, epochs, probloss_metric(outs, y_val)


def _load_xy(config, data_path, seed, x_dim, y_dim):
    """Resolve the (x, y) dataset: the ``--data`` CSV, else data.generator."""
    if data_path:
        x, y = load_csv(data_path, x_dim, y_dim)
        if x.shape[0] == 0:
            raise SchemaError(f"{data_path}: no data rows")
        return x, y
    generator = config["data"]["generator"]
    if generator is None:
        raise ConfigError("data.generator is null and no --data file was given")
    if generator == "conditional_bimodal":
        if (x_dim, y_dim) != (1, 1):
            raise ConfigError(
                f"generator 'conditional_bimodal' produces 1-D x and y, net wants {x_dim}/{y_dim}"
            )
        return gen_conditional_bimodal(config["data"]["n"], substream(seed, "data"))
    raise ConfigError(f"unknown data.generator {generator!r}")


def cmd_toy(config, args):
    """Fit the 2-D mixture under both weighted losses and cross-evaluate."""
    # the keys of the toy section are the parameters of toy_cross_table
    result = toy_cross_table(**dict(config["toy"], gamma=float(config["toy"]["gamma"])))
    names = result["losses"]
    header = ["train_loss"]
    for name in names:
        header += [f"task_{name}", f"task_{name}_sem"]
    rows = []
    for train_name in names:
        row = [train_name]
        for task_name in names:
            value, sem = result["aggregate"][train_name][task_name]
            row += [_fmt(value), _fmt(sem)]
        rows.append(row)
    out = Path(args.out)
    _write_csv(out / "cross_table.csv", config, header, rows)
    _write_json(out / "fitted_params.json", config, result)
    verdict = "holds" if result["diagonal_dominance"] else "fails"
    print(f"toy: cross table written to {out}/cross_table.csv; diagonal dominance {verdict}")
    return 0 if result["diagonal_dominance"] else 1


def cmd_train(config, args):
    """Train one model and write checkpoint, history, and summary."""
    params, epochs, val = _train_and_score(config, *_settings(config), args.data, args.out)
    out = Path(args.out)
    params.save(out / "checkpoint.txt")
    _write_csv(
        out / "history.csv",
        config,
        ["epoch", "train_objective", "val_objective", "train_pq", "train_qq"],
        [
            [e.epoch, _fmt(e.train_objective), _fmt(e.val_objective), _fmt(e.train_pq),
             _fmt(e.train_qq)]
            for e in epochs
        ],
    )
    final = epochs[-1]
    summary = {
        "epochs": len(epochs),
        "final_train_objective": final.train_objective,
        "final_val_objective": None if math.isnan(final.val_objective) else final.val_objective,
        "param_count": params.size,
        "val_probloss": val[0],
        "val_probloss_sem": val[1],
    }
    _write_json(out / "summary.json", config, summary)
    seconds = sum(e.seconds for e in epochs)
    print(
        f"train: {len(epochs)} epochs in {seconds:.1f}s, "
        f"final train objective {final.train_objective:.6f}, "
        f"outputs in {out}"
    )
    return 0


def cmd_eval(config, args):
    """Evaluate a checkpoint: sampled candidates, pointwise metrics, report."""
    ev = config["eval"]
    seed, k = ev["seed"], ev["num_candidates"]
    if k < 1:
        raise ConfigError(f"eval.num_candidates must be >= 1, got {k}")
    if ev["base_sigma"] < 0:
        raise ConfigError(f"eval.base_sigma must be >= 0 (0 is off), got {ev['base_sigma']}")
    if any(d < 0 for d in ev["distances"]):
        raise ConfigError(f"eval.distances must all be >= 0, got {ev['distances']}")
    params = NetworkParams.load(args.checkpoint)
    net = params.config
    x, y = _load_xy(config, args.data, seed, net.x_dim, net.y_dim)
    joint_count(net.y_dim, ev["group_size"])  # a bad grouping fails before the sampling
    base_sigma = float(ev["base_sigma"])
    # the zero-noise prediction, for the baseline and zero_noise, filled a block at a time
    # as the fold draws: metrics_report reads pointwise_preds only after the fold
    point = np.empty((x.shape[0], net.y_dim)) if base_sigma > 0.0 or ev["zero_noise"] else None
    rng, work = substream(seed, "base-jitter" if base_sigma > 0.0 else "eval-noise"), {}

    def block(s):
        """EVAL_BLOCK frames' candidates from frame s, scored before the next
        block is drawn: a frame's bits can depend on its block's height."""
        xb = x[s:s + EVAL_BLOCK]
        if point is not None:
            point[s:s + EVAL_BLOCK] = predict_rows(params, xb, np.zeros((len(xb), net.noise_dim)))
        if base_sigma > 0.0:
            return base_candidates(point[s:s + EVAL_BLOCK], k, base_sigma, rng)
        return sample_outputs(params, xb, k, rng, work)

    blocks = (block(s) for s in range(0, x.shape[0], EVAL_BLOCK))
    pointwise = point if ev["zero_noise"] else None
    doc = metrics_report(blocks, y, ev["group_size"], ev["distances"], pointwise_preds=pointwise)
    out = Path(args.out)
    _write_json(out / "metrics.json", config, doc)
    _write_csv(
        out / "metrics.csv",
        config,
        ["metric", "value", "sem"],
        report_rows(doc),
    )
    print(f"eval: {x.shape[0]} frames, K={k}, report in {out}/metrics.json")
    return 0


def cmd_gradcheck(config, args):
    """Check the training gradient (``objective_terms``) against central differences."""
    net = NetConfig.from_dict(config["net"])
    gc = config["gradcheck"]
    for key in ("num_examples", "num_candidates"):
        if gc[key] < 1:
            raise ConfigError(f"gradcheck.{key} must be >= 1, got {gc[key]}")
    n, k = gc["num_examples"], gc["num_candidates"]
    objectives = [(gamma, beta, ObjectiveConfig(float(gamma), k, LossSpec(beta=float(beta))))
                  for gamma in gc["gammas"] for beta in gc["betas"]]
    rng = substream(gc["seed"], "gradcheck-data")
    x = rng.uniform(-1.0, 1.0, size=(n, net.x_dim))
    y = rng.uniform(-1.0, 1.0, size=(n, net.y_dim))
    noises = draw_noise(net, n, k, rng)
    params = init_params(net, derive_seed(gc["seed"], "gradcheck-init"))
    worst = 0.0
    for gamma, beta, objective in objectives:

        def f(flat):
            p = NetworkParams.from_flat(net, flat)
            _, _, value, grad = objective_terms(p, x, y, noises, objective)
            return value, grad

        err, again = grad_check_detail(f, params.to_flat())
        worst = max(worst, err)
        print(f"gradcheck: gamma={gamma:g} beta={beta:g} max_rel_err={err:.3e}")
        if again:
            print(f"gradcheck: gamma={gamma:g} beta={beta:g} measured {again} coordinates "
                  "again, whose slopes sit below the step's roundoff")
    ok = worst < GRAD_CHECK_TOLERANCE
    print(f"gradcheck: worst {worst:.3e} vs tolerance {GRAD_CHECK_TOLERANCE:g}: "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_sweep(config, args):
    """Train over seeds x L2 values; report all runs and the best by val probloss."""
    if config["train"]["val_count"] < 1:
        raise ConfigError("sweep needs train.val_count >= 1 to select by validation probloss")
    if config["objective"]["num_candidates"] < 2:
        raise ConfigError("sweep needs objective.num_candidates >= 2 to score validation probloss")
    runs = [dict(config, train=dict(config["train"], seed=seed, l2=l2))
            for seed in config["sweep"]["seeds"] for l2 in config["sweep"]["l2_values"]]
    settings = [_settings(run) for run in runs]  # every run is checked before the first trains
    rows = []
    best = None
    for run, (net, tc) in zip(runs, settings):
        seed, l2 = tc.seed, tc.l2
        params, epochs, (value, sem) = _train_and_score(run, net, tc, args.data)
        rows.append([seed, _fmt(l2), _fmt(epochs[-1].val_objective), _fmt(value), _fmt(sem)])
        print(f"sweep: seed={seed} l2={l2:g} val_probloss={value:.6f}")
        if best is None or value < best[0]:
            best = (value, sem, seed, l2, params)
    out = Path(args.out)
    _write_csv(
        out / "sweep.csv",
        config,
        ["seed", "l2", "final_val_objective", "val_probloss", "val_probloss_sem"],
        rows,
    )
    value, sem, seed, l2, params = best
    params.save(out / "best_checkpoint.txt")
    _write_json(
        out / "best.json",
        config,
        {
            "seed": seed,
            "l2": l2,
            "val_probloss": value,
            "val_probloss_sem": sem,
        },
    )
    print(f"sweep: best seed={seed} l2={l2:g} val_probloss={value:.6f}; outputs in {out}")
    return 0


_TRAIN_SECTIONS = ("net", "objective", "train", "data")

# subcommand -> (help, required config sections, flags in --help order);
# main dispatches to the module-level function cmd_<subcommand>
_COMMANDS = {
    "toy": ("fit the 2-D mixture under both losses and cross-evaluate", ("toy",),
            ("--config", "--out", "--seed")),
    "train": ("train one model from a config", _TRAIN_SECTIONS,
              ("--config", "--out", "--seed", "--data")),
    "eval": ("evaluate a checkpoint on a dataset", ("data", "eval"),
             ("--config", "--out", "--seed", "--data", "--checkpoint")),
    "gradcheck": ("compare analytic gradients against central differences",
                  ("net", "gradcheck"), ("--config", "--seed")),
    "sweep": ("train over seeds x L2 values and pick the best", _TRAIN_SECTIONS + ("sweep",),
              ("--config", "--out", "--seed", "--data")),
}

_FLAGS = {
    "--config": {"required": True, "help": "path to the JSON config"},
    "--out": {"required": True, "help": "output directory"},
    "--seed": {"type": int, "default": None, "help": "override the config seed(s)"},
    "--data": {"default": None, "help": "CSV dataset; without it data.generator makes one"},
    "--checkpoint": {"required": True, "help": "checkpoint to evaluate"},
}

# error class -> exit code; the first match wins, so every DisconetError not
# named before the last entry, ConfigError and the library's range checks
# among them, is a config error; so is a MemoryError: sizes come from the config
_EXIT_CODES = (
    ((ParseError, SchemaError, OSError), 3),
    (NumericError, 4),
    ((DisconetError, MemoryError), 2),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disconet",
        description="Probabilistic predictors trained on a sampled dissimilarity objective.",
        epilog=(
            "exit codes: 0 success, 1 checked condition failed, "
            "2 config error or out of memory, 3 data error, 4 numeric error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _COMMANDS[args.command][1], seed_override=args.seed)
        # looked up by name at call time, so a rebound cmd_<name> is the one called
        return globals()[f"cmd_{args.command}"](config, args)
    except (DisconetError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
