"""Per-module spans recorded around calls into disconet's public functions.

The tracer wraps chosen functions and methods of the imported package and
rebinds every module-level name that refers to the original, because the
package's modules bind each other's functions with ``from .x import y``.
Nothing under ``src/`` changes. Spans are folded into per-metric totals as
they close, which keeps memory flat however many calls a run makes:

- self time: a span's duration minus the time its child spans cover,
  including the wrapper cost of those children;
- the wrapper's own cost, summed as ``trace.self_s``, so that the self
  times of all spans plus ``trace.self_s`` add up to the root span;
- call counts and row counts for the count metrics.
"""

import sys
import time
from collections import defaultdict

# metric name -> (module, attribute path) of every function whose self time
# it sums. The root span is the subcommand itself (cli.self_s).
TIMED = {
    "cli.self_s": [("cli", "cmd_train"), ("cli", "cmd_eval"), ("cli", "cmd_toy")],
    "autodiff.ops_s": [
        ("autodiff", f"Graph.{op}")
        for op in ("constant", "matmul", "add", "relu", "concat", "reduce_sum", "scale",
                   "reshape", "gather_rows", "weighted_pow_norm", "row_pow_norms")
    ],
    "autodiff.backward_s": [("autodiff", "Graph.backward")],
    "network.forward_rows_s": [("network", "forward_rows")],
    "network.predict_rows_s": [("network", "predict_rows")],
    "network.sample_s": [("network", "sample_candidates")],
    "network.bind_s": [("network", "bind_params"), ("network", "grad_flat")],
    "network.params_flat_s": [
        ("network", "NetworkParams.to_flat"),
        ("network", "NetworkParams.from_flat"),
        ("network", "NetworkParams.weight_mask"),
        ("network", "init_params"),
    ],
    "network.checkpoint_save_s": [("network", "NetworkParams.save")],
    "network.checkpoint_load_s": [("network", "NetworkParams.load")],
    "objective.graph_s": [("objective", "disco_objective_node"), ("objective", "candidate_pair_indices")],
    "objective.sampled_s": [("objective", "disco_objective"), ("objective", "div_pq_hat"), ("objective", "div_qq_hat")],
    "scoring.kernel_s": [
        ("scoring", "delta"), ("scoring", "delta_rows"),
        ("scoring", "pairwise_delta"), ("scoring", "energy_score_sample"),
    ],
    "metrics.meu_s": [("metrics", "meu_predict"), ("metrics", "metrics_report")],
    "metrics.probloss_s": [("metrics", "probloss")],
    "metrics.pearson_s": [("metrics", "pearson_matrix")],
    "metrics.pointwise_s": [("metrics", "mejee"), ("metrics", "majee"), ("metrics", "ff")],
    "synth.fit_grid_s": [("synth", "fit_gaussian_grid")],
    "synth.eval_gaussian_s": [("synth", "eval_gaussian")],
    "synth.table_s": [("synth", "toy_cross_table"), ("synth", "gen_gmm2d")],
    "synth.csv_load_s": [("synth", "load_csv")],
    "training.loop_s": [("training", "train"), ("training", "train_val_split")],
    "training.sgd_s": [("training", "sgd_momentum_step")],
    "training.validation_s": [("training", "validation_objective")],
}

# The time metrics that tile a traced work phase.
TIME_METRICS = tuple(TIMED) + ("trace.self_s",)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.bench_s = 0.0
        self.root_s = 0.0
        self._child = [0.0]  # time covered by closed children, per open span

    def wrap(self, metric, fn, on_call=None):
        clock = time.perf_counter
        child = self._child

        def span(*args, **kwargs):
            t_enter = clock()
            if on_call is not None:
                on_call(self.counts, args)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                covered = child.pop()
                self.self_s[metric] += (t1 - t0) - covered
                self.incl_s[metric] += t1 - t0
                self.calls[metric] += 1
                if len(child) == 1:
                    self.root_s += t1 - t0
                else:
                    t_exit = clock()
                    self.bench_s += (t_exit - t_enter) - (t1 - t0)
                    child[-1] += t_exit - t_enter

        return span

    def install(self, package):
        """Wrap every TIMED function of `package` and rebind all references."""
        mods = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for metric, targets in TIMED.items():
            for module, path in targets:
                owner = sys.modules[f"{package}.{module}"]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                raw = owner.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self.wrap(metric, fn, HOOKS.get(path))
                if cls:
                    setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
                    continue
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapped)

    def report(self):
        """Per-layer metrics of one traced subcommand, plus its work phase."""
        out = {m: self.self_s.get(m, 0.0) for m in TIMED}
        steps = self.calls.get("training.sgd_s", 0)
        nodes = self.calls.get("autodiff.ops_s", 0)
        dense_s = (self.incl_s.get("network.forward_rows_s", 0.0)
                   + self.incl_s.get("network.predict_rows_s", 0.0)
                   + self.incl_s.get("autodiff.backward_s", 0.0))
        scoring = self.calls.get("scoring.kernel_s", 0)
        out.update({
            "autodiff.nodes": nodes / steps if steps else nodes,
            "network.predict_rows_calls": self.calls.get("network.predict_rows_s", 0),
            "network.dense_gflop_per_s": self.counts["flops"] / dense_s / 1e9 if dense_s else 0.0,
            "scoring.calls": scoring,
            "synth.grid_points": self.counts["grid_points"],
            "training.steps": steps,
            "trace.self_s": self.bench_s,
            "work_s": self.root_s,
        })
        return out


def _generator_macs(config):
    """Multiply-adds per row of one generator pass, from the layer shapes."""
    return sum(fi * fo for fi, fo in config.layer_dims())


def _rows(g, x):
    return g.value(x).shape[0] if isinstance(x, int) else len(x)


def _count_forward_rows(counts, args):
    # A training graph runs one backward per forward: 2 flops per
    # multiply-add forward, 4 backward (input and weight gradients).
    g, params, x = args[:3]
    counts["flops"] += 6 * _rows(g, x) * _generator_macs(params.config)


def _count_predict_rows(counts, args):
    params, x = args[:2]
    counts["flops"] += 2 * len(x) * _generator_macs(params.config)


def _count_grid(counts, args):
    counts["grid_points"] += args[1].size()


HOOKS = {
    "forward_rows": _count_forward_rows,
    "predict_rows": _count_predict_rows,
    "fit_gaussian_grid": _count_grid,
}
