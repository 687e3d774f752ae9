"""Layer boundaries of ``rankedrange`` and the per-layer metrics of a traced
run.

Every function is wrapped in each namespace that binds it, so a caller
that imported it by name (``rankedrange.optim.sort_descending``, the data,
optim, model and metrics names in ``rankedrange.cli``) goes through the
same wrapper as ``rankedrange.core.sort_descending``.  Loss-spec methods
are wrapped on the classes that define them, wherever those live.  A name
that no longer exists is skipped and its metrics read 0, so the benchmark
keeps running when a later change deletes or renames it.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

import numpy as np

# defining module -> {name: group}; the span is named "<module>.<name>" and
# a call is nested, not outermost, when a span of its group is open
FUNCTIONS = {
    "rankedrange.data": {
        "gen_synthetic": "data.generate",
        "gen_multiclass_blobs": "data.generate",
        "gen_multilabel_synthetic": "data.generate",
        "monk_dataset": "data.generate",
        "load_dataset": "data.load",
        "split_dataset": "data.prep",
        "standardize": "data.prep",
        "inject_noise": "data.prep",
    },
    "rankedrange.optim": {
        "dca_train": "optim.train",
        "auto_train": "optim.train",
        "tkml_aorr_train": "optim.train",
        "sgd_average_train": "optim.train",
        "multilabel_lr_train": "optim.train",
    },
    "rankedrange.core": {
        "sort_descending": "core",
        "top_k_sum": "core",
        "ranked_range_sum": "core",
        "ranked_range_average": "core",
    },
    "rankedrange.riskmeasure": {
        "empirical_cvar": "riskmeasure.cvar",
        "empirical_icvar": "riskmeasure.icvar",
        "cvar_bound_check": "riskmeasure.bound_check",
    },
    "rankedrange.model": {
        "predict_matrix": "model.predict",
        "predict_scores": "model.predict",
    },
    "rankedrange.metrics": {
        "error_rate": "metrics",
        "topk_accuracy": "metrics",
        "topk_multilabel_accuracy": "metrics",
        "average_precision": "metrics",
    },
    "rankedrange.losses": {
        "margin_loss": "losses",
        "margin_loss_vec": "losses",
        "softmax_loss_grad": "losses",
        "per_label_hinges": "losses",
        "tkml_loss_subgrad": "losses",
        "conventional_multilabel_loss": "losses",
        "tkml_aorr_objective": "losses",
        "tkml_saddle_point": "losses",
    },
    "rankedrange.cli": {
        "main": "cli.main",
        "run_experiment": "cli.run_experiment",
        "write_report": "cli.report_write",
    },
}

# loss-spec methods; a class that defines any of them is a loss spec.
# value_and_grad is the batched interface planned to replace the others.
SPEC_METHODS = {
    "grad_single": "per_sample",
    "losses": "batch",
    "grad_masked": "batch",
    "_batch_eval": "batch",
    "_coeff_grad": "batch",
    "phi_grad": "batch",
    "value_and_grad": "batch",
}

SAMPLER_SPAN = "riskmeasure.sampler"


def _spec_rows(args, kwargs, result, nested, counters):
    """Rows of an outermost batched spec call: the length of its index
    argument, else the rows its boolean mask selects, else the dataset
    size.  A mask that selects every row marks an all-rows gradient call."""
    if nested:
        return
    n = 0
    for a in (*args[1:], *kwargs.values()):
        if isinstance(a, np.ndarray) and a.ndim == 1:
            if a.dtype == np.bool_:
                n = int(np.count_nonzero(a))
                if a.size and n == a.size:
                    counters["optim.spec.warmup_grad_calls"] += 1
                break
            if a.dtype.kind in "iu":
                n = a.size
                break
        elif not n and hasattr(a, "features") and hasattr(a, "n"):
            n = a.n
    counters["optim.spec.rows"] += n


def _count_sorted(args, kwargs, result, nested, counters):
    counters["core.values_sorted"] += int(np.size(result))


def _count_loaded(args, kwargs, result, nested, counters):
    counters["data.rows_loaded"] += getattr(result, "n", 0)


HOOKS = {
    ("rankedrange.core", "sort_descending"): _count_sorted,
    ("rankedrange.data", "load_dataset"): _count_loaded,
}


def _package_modules() -> list:
    import rankedrange

    for info in pkgutil.iter_modules(rankedrange.__path__, "rankedrange."):
        importlib.import_module(info.name)
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "rankedrange"
                                    or name.startswith("rankedrange."))]


def install(tracer) -> None:
    """Wrap every boundary in every ``rankedrange`` namespace that binds
    it."""
    modules = _package_modules()
    wrappers = {}
    for modname, table in FUNCTIONS.items():
        mod = sys.modules.get(modname)
        for attr, group in table.items():
            fn = getattr(mod, attr, None)
            if callable(fn):
                hook = HOOKS.get((modname, attr))
                span = f"{modname.split('.', 1)[1]}.{attr}"
                wrappers[id(fn)] = (fn, tracer.wrap(span, group, fn, hook))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
            elif (isinstance(value, type) and value.__module__ == mod.__name__
                  and any(m in vars(value) for m in SPEC_METHODS)):
                for meth, kind in SPEC_METHODS.items():
                    fn = vars(value).get(meth)
                    if callable(fn):
                        hook = None if kind == "per_sample" else _spec_rows
                        setattr(value, meth, tracer.wrap(
                            f"optim.spec.{kind}.{meth}", "optim.spec", fn, hook))


def _sum(summary, key, group=None, prefix=None):
    return sum(row[key] for name, row in summary.items()
               if (group is None or row["group"] == group)
               and (prefix is None or name.startswith(prefix)))


def layer_metrics(tracer) -> tuple:
    """The per-layer metrics of a traced execution, keyed by metric name,
    and the per-span-name summary they were computed from."""
    summary = tracer.summary()
    c = tracer.counters

    def calls(group=None, prefix=None):
        return _sum(summary, "calls", group, prefix)

    def secs(group=None, prefix=None):
        return _sum(summary, "s", group, prefix)

    per_sample_calls = calls(prefix="optim.spec.per_sample.")
    spec_calls = calls("optim.spec")
    spec_rows = per_sample_calls + c["optim.spec.rows"]
    return {
        "data.load_s": secs("data.load"),
        "data.rows_loaded": c["data.rows_loaded"],
        "data.generate_s": secs("data.generate"),
        "data.prep_s": secs("data.prep"),
        "optim.train_s": secs("optim.train"),
        "optim.train_calls": calls("optim.train"),
        "optim.train_self_s": _sum(summary, "self_s", "optim.train"),
        "optim.spec.calls": spec_calls,
        "optim.spec.s": secs("optim.spec"),
        "optim.spec.rows": spec_rows,
        "optim.spec.rows_per_call": spec_rows / spec_calls if spec_calls else 0.0,
        "optim.spec.per_sample_calls": per_sample_calls,
        "optim.spec.per_sample_s": secs(prefix="optim.spec.per_sample."),
        "optim.spec.batch_calls": calls(prefix="optim.spec.batch."),
        "optim.spec.batch_s": secs(prefix="optim.spec.batch."),
        "optim.spec.warmup_grad_calls": c["optim.spec.warmup_grad_calls"],
        "core.calls": calls("core"),
        "core.s": secs("core"),
        "core.values_sorted": c["core.values_sorted"],
        "riskmeasure.cvar_s": secs("riskmeasure.cvar"),
        "riskmeasure.cvar_calls": calls("riskmeasure.cvar"),
        "riskmeasure.icvar_calls": calls("riskmeasure.icvar"),
        "riskmeasure.bound_check_s": secs("riskmeasure.bound_check"),
        "riskmeasure.sampler_s": secs(SAMPLER_SPAN),
        "model.predict_calls": calls("model.predict"),
        "model.predict_s": secs("model.predict"),
        "metrics.calls": calls("metrics"),
        "metrics.s": secs("metrics"),
        "losses.calls": calls("losses"),
        "cli.run_experiment_s": secs("cli.run_experiment"),
        "cli.self_s": _sum(summary, "self_s", prefix="cli."),
        "cli.report_write_s": secs("cli.report_write"),
        "trace.spans": len(tracer),
    }, summary


def fired_groups(summary) -> set:
    """Groups with at least one recorded call."""
    return {row["group"] for row in summary.values() if row["all_calls"]}
