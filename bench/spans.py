"""Spans recorded around the public function of each skipalign layer.

The benchmark wraps functions from outside the package. A wrapper is
installed at every binding in a loaded ``skipalign`` module that refers to
the original function, so a caller that imported the name
(``from .net import sgd_step``) and one that looks it up on its module
(``net_mod.backward``) are both caught. Methods are wrapped on their class.

A span is the list ``[name, start_ns, end_ns, parent, run, count]``: parent
is the index of the enclosing span (-1 at the top), run is the operation it
belongs to, and count is a work count taken from the call (rows, pairs,
tape nodes) or None. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LOSS_TERMS = ("ce", "consistency", "ova", "em", "socr", "neg", "usna", "ia", "pa")

# Span name -> (module, attribute) of the function it times. The heads,
# linalg and data modules are folded into their callers' self time; the
# oracles module is on no workload's path.
LAYERS = {
    "synthdata.generate": ("skipalign.synthdata", "generate"),
    "synthdata.augment_views": ("skipalign.synthdata", "augment_views"),
    "synthdata.write_split_csv": ("skipalign.synthdata", "write_split_csv"),
    "autodiff.backward": ("skipalign.autodiff", "Tensor.backward"),
    **{f"tensor_losses.{term}_graph": ("skipalign.tensor_losses", f"{term}_graph")
       for term in LOSS_TERMS},
    "net.forward_tensors": ("skipalign.net", "forward_tensors"),
    "net.backward": ("skipalign.net", "backward"),
    "net.sgd_step": ("skipalign.net", "sgd_step"),
    "net.forward": ("skipalign.net", "forward"),
    "net.save_checkpoint": ("skipalign.net", "save_checkpoint"),
    "net.load_checkpoint": ("skipalign.net", "load_checkpoint"),
    "sna.dual_gate": ("skipalign.sna", "dual_gate"),
    "prototypes.refresh": ("skipalign.prototypes", "refresh"),
    "trainer.train": ("skipalign.trainer", "train"),
    # lr_at opens every SGD iteration, so its spans mark where steps begin.
    "trainer.lr_at": ("skipalign.trainer", "lr_at"),
    # The objective closure built per step; its self time is trainer code.
    "trainer.closure": ("skipalign.trainer", "_make_closure"),
    "trainer.write_jsonl": ("skipalign.trainer", "RunLog.write_jsonl"),
    "metrics.evaluate": ("skipalign.metrics", "evaluate"),
    "metrics.auroc": ("skipalign.metrics", "auroc"),
    "metrics.write_embedding_dump": ("skipalign.metrics", "write_embedding_dump"),
    "cli.run_experiment": ("skipalign.cli", "run_experiment"),
    "cli.sweep": ("skipalign.cli", "sweep"),
    "cli.main": ("skipalign.cli", "main"),
    "config.resolve_config": ("skipalign.config", "resolve_config"),
    "config.config_hash": ("skipalign.config", "config_hash"),
}

# The few boundaries the end-to-end metrics need. An untraced run wraps only
# these: a handful of spans per operation, against tens of thousands traced.
COARSE = ("cli.run_experiment", "cli.main", "trainer.train", "metrics.evaluate")

# Spans the harness itself adds; they are nobody's layer.
COUNT_NODES = "bench.count_nodes"


def tape_size(root) -> int:
    """Nodes reachable from a loss root: the nodes Tensor.backward walks."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _train_counts(args, result) -> dict:
    iterations = result[1].iterations
    return {"steps": len(iterations),
            "accepted": sum(r["gate"]["accepted"] for r in iterations),
            "drawn": sum(r["batch_unlabeled"] for r in iterations)}


def _refresh_rows(args, result) -> int:
    unlabeled = args[1]
    return 0 if unlabeled is None else unlabeled.size


# Work counts taken from a call's arguments and result, per span name.
COUNTS = {
    "net.forward": lambda args, result: len(args[1]),
    "metrics.evaluate": lambda args, result: len(args[1].test_x),
    "metrics.auroc": lambda args, result: len(args[0]) * len(args[1]),
    "prototypes.refresh": _refresh_rows,
    "trainer.train": _train_counts,
}


class Tracer:
    """Installs span-recording wrappers for the named layers while active."""

    def __init__(self, names=tuple(LAYERS)):
        unknown = set(names) - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layers: {sorted(unknown)}")
        self.names = tuple(names)
        self.spans: list[list] = []
        self.run = 0
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, count=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if count is not None:
            span[5] = count(args, result)
        return result

    def _wrapper(self, name, original):
        if name == "autodiff.backward":
            def backward(root):
                self.call(COUNT_NODES, tape_size, (root,), {},
                          count=lambda args, result: result)
                return self.call(name, original, (root,), {})
            return functools.wraps(original)(backward)
        if name == "trainer.closure":
            def make_closure(*args, **kwargs):
                closure = original(*args, **kwargs)
                return lambda outputs: self.call(name, closure, (outputs,), {})
            return functools.wraps(original)(make_closure)
        count = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, count)
        return functools.wraps(original)(wrapper)

    def _bind(self, owner, attr, original, wrapper, name, label):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        self.bindings.setdefault(name, []).append(label)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [(mod_name, module) for mod_name, module in sorted(sys.modules.items())
                   if mod_name.split(".")[0] == "skipalign" and module is not None]
        for name in self.names:
            module_name, attr = LAYERS[name]
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrapper(name, original)
            if path:
                self._bind(owner, leaf, original, wrapper, name, f"{module_name}.{attr}")
                continue
            for mod_name, module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, original, wrapper, name, f"{mod_name}.{key}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans) -> list[str]:
    """Children that leave their parent's interval, and negative self times."""
    errors = []
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end = spans[parent][:3]
            if parent >= i or start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) lies outside its parent {parent} ({p_name})")
    for i, value in enumerate(self_times(spans)):
        if value < 0:
            errors.append(f"span {i} ({spans[i][0]}) has negative self time {value} ns")
    return errors
