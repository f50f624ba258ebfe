"""Spans and counts for the traced run, recorded from outside the program.

`Tracer.install()` replaces every public function defined in the measured
modules, and every public method of their public classes, with a wrapper
that records a span (name, start, end, parent span, operation), and points
every reference to those functions in the measured modules at the wrapper;
`uninstall()` puts the originals back. Private helpers are not wrapped, so
their time counts as their caller's self time. `ops.ParamSet.value` and
`ops.ParamSet.grad` are left alone: they are dictionary lookups made for
every parameter of every layer, and wrapping them would mostly measure the
wrapper.

The benchmark marks operations (a training iteration, a clip, a dataset)
with `begin_op` / `end_op`; spans take the id of the operation that is open
when they start. Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("ops", "fusion", "model", "losses", "training", "tensor", "metrics", "synthdata", "checkpoint")
SKIP = {("ops", "ParamSet", "value"), ("ops", "ParamSet", "grad")}

CONV_FORWARD = {"ops.conv2d_forward", "ops.conv_transpose2d_forward"}
CONV_BACKWARD = {"ops.conv2d_backward", "ops.conv_transpose2d_backward"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op index)
        self.ops = []  # [kind, start_ns, end_ns, units]
        self.counts = defaultdict(float)  # (op index, counter) -> value
        self._stack = []
        self._op = -1
        self._undo = []
        self._flops = {}  # id(forward cache) -> forward flops

    # -- operations ---------------------------------------------------------

    def begin_op(self, kind, units):
        self._op = len(self.ops)
        self.ops.append([kind, time.perf_counter_ns(), None, units])

    def end_op(self):
        self.ops[self._op][2] = time.perf_counter_ns()
        self._op = -1
        self._flops.clear()

    # -- wrapping -----------------------------------------------------------

    def _hook(self, name, args, out):
        if name in CONV_FORWARD:
            # forward flops from shapes: 2 * output pixels * weight size for
            # a conv, 2 * input pixels * weight size for a transpose conv
            ref = out[0] if name == "ops.conv2d_forward" else args[0]
            flops = 2.0 * ref.shape[0] * ref.shape[2] * ref.shape[3] * args[1].size
            self._flops[id(out[1])] = flops
        elif name in CONV_BACKWARD:
            # input and weight gradients: twice the forward arithmetic
            flops = 2.0 * self._flops.pop(id(args[1]), 0.0)
        elif name == "checkpoint.save_model":
            self.counts[(self._op, "checkpoint.bytes")] += os.path.getsize(args[0])
            return
        else:
            return
        self.counts[(self._op, "ops.conv.flop")] += flops

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hooked = name in CONV_FORWARD or name in CONV_BACKWARD or name == "checkpoint.save_model"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._op)
            if hooked:
                self._hook(name, args, out)
            return out

        return traced

    def install(self):
        modules = [importlib.import_module(f"motionfuse.{m}") for m in MODULES]
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, attr, pair[1])
                    self._undo.append((mod, attr, obj))

    def _wrap_class(self, short, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or (short, cls.__name__, attr) in SKIP:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                new = self._wrap(name, member)
            elif isinstance(member, (staticmethod, classmethod)):
                new = type(member)(self._wrap(name, member.__func__))
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, member))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped CSV: name, start_ns, end_ns, parent, op, op kind."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,op,kind\n")
            for name, t0, t1, parent, op in self.spans:
                kind = self.ops[op][0] if op >= 0 else ""
                fh.write(f"{name},{t0},{t1},{parent},{op},{kind}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def sums(tracer):
    """Per (op index, span name): inclusive ns, self ns and calls; and per
    op index the ns covered by spans with no parent."""
    spans = tracer.spans
    child = [0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    incl = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    top = defaultdict(int)
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        key = (op, name)
        incl[key] += t1 - t0
        own[key] += t1 - t0 - child[i]
        calls[key] += 1
        if parent < 0:
            top[op] += t1 - t0
    return incl, own, calls, top


# metric name -> (statistic, span names or prefix)
_PER_UNIT = {
    "ops.conv2d_forward.self_ms": ("self", ["ops.conv2d_forward"]),
    "ops.conv2d_backward.self_ms": ("self", ["ops.conv2d_backward"]),
    "ops.conv_transpose2d_forward.self_ms": ("self", ["ops.conv_transpose2d_forward"]),
    "ops.conv_transpose2d_backward.self_ms": ("self", ["ops.conv_transpose2d_backward"]),
    "ops.linear.self_ms": ("self", ["ops.linear_forward", "ops.linear_backward"]),
    "ops.activation.self_ms": (
        "self",
        [f"ops.{a}_{d}" for a in ("relu", "leaky_relu", "tanh", "sigmoid") for d in ("forward", "backward")],
    ),
    "ops.convlstm_step.self_ms": ("self", ["ops.convlstm_step_forward", "ops.convlstm_step_backward"]),
    "ops.conv.calls": ("calls", sorted(CONV_FORWARD | CONV_BACKWARD)),
    "fusion.adaptive_conv_forward.self_ms": ("self", ["fusion.adaptive_conv_forward"]),
    "fusion.adaptive_conv_backward.self_ms": ("self", ["fusion.adaptive_conv_backward"]),
    "fusion.mask_blend.self_ms": ("self", ["fusion.mask_blend_forward", "fusion.mask_blend_backward"]),
    "fusion.mask_activation.self_ms": (
        "self",
        ["fusion.mask_activation_forward", "fusion.mask_activation_backward"],
    ),
    "model.encode.ms": ("incl", ["model.encode"]),
    "model.encode_backward.ms": ("incl", ["model.encode_backward"]),
    "model.decode_content.ms": ("incl", ["model.decode_content"]),
    "model.decode_content_backward.ms": ("incl", ["model.decode_content_backward"]),
    "model.decode_head.ms": ("incl", ["model.decode_head"]),
    "model.decode_head.calls": ("calls", ["model.decode_head"]),
    "model.motion_fields.ms": ("incl", ["model.motion_fields"]),
    "model.motion_fields_backward.ms": ("incl", ["model.motion_fields_backward"]),
    "model.lstm_embed.ms": ("incl", ["model.lstm_embed"]),
    "model.classifier_forward.ms": ("incl", ["model.classifier_forward"]),
    "model.self_ms": ("self", "model."),
    "losses.self_ms": ("self", "losses."),
    "training.Adam.step.ms": ("incl", ["training.Adam.step"]),
    "training.random_shift.ms": ("incl", ["training.random_shift"]),
    "training.rollout.self_ms": ("self", ["training.rollout"]),
    "tensor.SeededRng.self_ms": ("self", "tensor.SeededRng."),
    "metrics.self_ms": ("self", "metrics."),
}

# per call, over every traced operation including set-up
_PER_CALL = {
    "synthdata.gen_clip.ms": "synthdata.gen_clip",
    "synthdata.write_dataset.ms": "synthdata.write_dataset",
    "synthdata.load_dataset.ms": "synthdata.load_dataset",
    "checkpoint.save_model.ms": "checkpoint.save_model",
    "checkpoint.load_model.ms": "checkpoint.load_model",
}

_CONV_WORK = ["ops.conv.gflop", "ops.conv.gflop_s"]

# figures the train workload also gives per phase, as content.<name> and
# motion.<name>: all but those of layers a training step never calls
PHASE_SPLIT = [
    name
    for name in list(_PER_UNIT) + _CONV_WORK + ["training.train_step.peak_mb"]
    if not name.startswith(("metrics.", "model.classifier_forward", "training.rollout"))
]

UNITS = {"self_ms": "ms", "ms": "ms", "calls": "count", "gflop": "GFLOP", "gflop_s": "GFLOP/s",
         "peak_mb": "MB", "bytes": "B", "coverage": "share", "overhead": "%"}


def unit_of(name):
    return UNITS[name.rsplit(".", 1)[1]]


def metric_names():
    names = list(_PER_UNIT) + _CONV_WORK + list(_PER_CALL) + [
        "checkpoint.bytes", "training.train_step.peak_mb", "training.rollout.peak_mb",
        "trace.coverage", "trace.overhead",
    ]
    for phase in ("content", "motion"):
        names += [f"{phase}.{n}" for n in PHASE_SPLIT]
    return names


def _match(names):
    if isinstance(names, str):
        return lambda n: n.startswith(names)
    names = set(names)
    return names.__contains__


def per_unit(tracer, totals, kinds):
    """Figures per unit of work over the operations of the given kinds;
    `totals` is what `sums(tracer)` returns."""
    incl, own, calls, _ = totals
    ops = [i for i, op in enumerate(tracer.ops) if op[0] in kinds]
    units = sum(tracer.ops[i][3] for i in ops)
    opset = set(ops)
    out = {}
    for metric, (stat, names) in _PER_UNIT.items():
        hit = _match(names)
        table = {"incl": incl, "self": own, "calls": calls}[stat]
        total = sum(v for (op, n), v in table.items() if op in opset and hit(n))
        out[metric] = total / units if stat == "calls" else total / 1e6 / units
    flop = sum(v for (op, n), v in tracer.counts.items() if op in opset and n == "ops.conv.flop")
    conv_ns = sum(v for (op, n), v in incl.items() if op in opset and n in CONV_FORWARD | CONV_BACKWARD)
    out["ops.conv.gflop"] = flop / 1e9 / units
    out["ops.conv.gflop_s"] = flop / conv_ns if conv_ns else 0.0
    return out


def per_call(tracer, totals):
    incl, _, calls, _ = totals
    out = {}
    for metric, name in _PER_CALL.items():
        n = sum(v for (_, s), v in calls.items() if s == name)
        t = sum(v for (_, s), v in incl.items() if s == name)
        out[metric] = t / 1e6 / n if n else 0.0
    saves = sum(v for (_, s), v in calls.items() if s == "checkpoint.save_model")
    written = sum(v for (_, c), v in tracer.counts.items() if c == "checkpoint.bytes")
    out["checkpoint.bytes"] = written / saves if saves else 0.0
    return out


def coverage(tracer, totals, kinds):
    """Share of the wall time of the operations of these kinds that spans cover."""
    top = totals[3]
    ops = [i for i, op in enumerate(tracer.ops) if op[0] in kinds]
    wall = sum(tracer.ops[i][2] - tracer.ops[i][1] for i in ops)
    return sum(top[i] for i in ops) / wall if wall else 0.0
