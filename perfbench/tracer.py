"""Span tracer for the traced benchmark run.

The tracer replaces public functions and methods of the smile modules with
wrappers that record one span per call (name, start, end, parent span), and
restores the originals on uninstall.  Backward rules are timed by wrapping
each closure handed to ``Tape.record``, named after the op that recorded it.
Spans live in flat in-memory arrays and are written out once, at the end.

The tracer keeps a single span stack, so only code running on the thread
that installed it may be traced; the benchmark traces serial code only.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

# every differentiable op of smile.tensor; each records one tape node
OPS = ("add", "sub", "mul", "neg", "tanh", "sigmoid", "relu", "exp", "log",
       "matmul", "softmax", "reduce_sum", "reduce_mean", "gather_rows",
       "concat", "reshape")

# layers whose self times add up to a root span's duration
LAYERS = ("tensor", "recognizer", "losses", "self_paced", "trainer",
          "metrics", "checks")


def _function_specs(smile):
    """(defining module, attribute, span name) for each wrapped function."""
    specs = [(smile.tensor, op, f"tensor.op.{op}") for op in OPS]
    specs += [
        (smile.losses, "decoder_loss", "losses.decoder_loss"),
        (smile.losses, "smile_loss", "losses.smile_loss"),
        (smile.self_paced, "build_pool", "self_paced.build_pool"),
        (smile.self_paced, "select", "self_paced.select"),
        (smile.self_paced, "selected_entropy_loss",
         "self_paced.selected_entropy_loss"),
        (smile.trainer, "train_with_corpora", "trainer.train_with_corpora"),
        (smile.trainer, "clip_gradients", "trainer.clip_gradients"),
        (smile.metrics, "evaluate", "metrics.evaluate"),
        (smile.metrics, "char_accuracy", "metrics.char_accuracy"),
        (smile.checks, "run_all", "checks.run_all"),
        (smile.checks, "check_ops", "checks.check_ops"),
        (smile.checks, "check_model", "checks.check_model"),
    ]
    return specs


def _method_specs(smile):
    return [
        (smile.recognizer.Recognizer, "encode", "recognizer.encode"),
        (smile.recognizer.Recognizer, "teacher_forced",
         "recognizer.teacher_forced"),
        (smile.recognizer.Recognizer, "greedy", "recognizer.greedy"),
        (smile.tensor.Tape, "backward", "tensor.backward"),
        (smile.trainer.Adam, "step", "trainer.optimizer"),
    ]


class Tracer:
    """Records spans while installed; summarises them per name and layer."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, nid: int, fn, observe=None):
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- observers: counts taken at the same boundaries as the spans --------

    def _observers(self):
        c = self.counters

        def greedy(args, outs):
            lengths = [o.emitted_length for o in outs]
            c["recognizer.greedy_decode_steps"] += max(lengths)
            c["recognizer.emitted_rows"] += sum(lengths)

        def backward(args, result):
            c["tensor.tape_nodes"] += len(args[0])

        def build_pool(args, pool):
            c["self_paced.pool_entries"] += len(pool)

        def select(args, sel):
            c["self_paced.chosen"] += len(sel.chosen)

        def clip(args, norm):
            c["trainer.clip_calls"] += 1
            c["trainer.clip_fired"] += int(norm > args[1])

        return {"recognizer.greedy": greedy, "tensor.backward": backward,
                "self_paced.build_pool": build_pool,
                "self_paced.select": select,
                "trainer.clip_gradients": clip}

    def install(self, smile):
        """Wrap every traced name in every smile namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        observers = self._observers()
        modules = [smile] + [importlib.import_module(f"smile.{m}") for m in
                             ("tensor", "recognizer", "losses", "self_paced",
                              "trainer", "metrics", "checks", "data")]
        for home, attr, name in _function_specs(smile):
            original = getattr(home, attr)
            wrapper = self._spanned(self._id(name), original,
                                    observers.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        for cls, attr, name in _method_specs(smile):
            self._patch(cls, attr, self._spanned(self._id(name),
                                                 getattr(cls, attr),
                                                 observers.get(name)))
        self._patch_record(smile.tensor.Tape)

    def _patch_record(self, tape_cls):
        original = tape_cls.record
        names, name_id, parent, start, end = (self.names, self.name_id,
                                              self.parent, self.start,
                                              self.end)
        stack = self.stack
        clock = time.perf_counter_ns
        bwd_ids: dict[int, int] = {}

        def record(tape, out, backward_fn):
            # record runs inside the op that built `out`: the innermost span
            op = name_id[stack[-1]]
            bid = bwd_ids.get(op)
            if bid is None:
                bid = bwd_ids[op] = self._id(names[op] + ".bwd")

            # a backward rule calls no traced name, so it opens no children
            def timed_backward():
                t0 = clock()
                backward_fn()
                t1 = clock()
                name_id.append(bid)
                parent.append(stack[-1] if stack else -1)
                start.append(t0)
                end.append(t1)

            return original(tape, out, timed_backward)

        self._patch(tape_cls, "record", record)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns; per layer: self
        ns; plus the summed duration of root spans."""
        name_id, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(name_id, minlength=n_names)
        incl = np.bincount(name_id, weights=dur, minlength=n_names)
        own = np.bincount(name_id, weights=self_ns, minlength=n_names)
        by_name = {name: (int(calls[i]), float(incl[i]), float(own[i]))
                   for i, name in enumerate(self.names)}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, s) in by_name.items():
            layer_self[name.split(".", 1)[0]] += s
        return {"by_name": by_name, "layer_self_ns": layer_self,
                "root_ns": float(dur[~has_parent].sum()),
                "spans": len(dur)}

    def write(self, path: str):
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=name_id, parent=parent,
                            start_ns=start, end_ns=end)
