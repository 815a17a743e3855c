"""Spans and counts around the public functions of each phasesynth layer.

Inside ``with tracer:``, every module attribute of ``phasesynth`` that
is bound to a traced function (including names imported with
``from .x import y`` and aliases such as ``psnr_metric``) points to a
timing wrapper; leaving the block puts the originals back. Nothing
inside ``src/phasesynth`` is edited.

A span is ``(name, start, end, parent, tag)`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span
(-1 at the top). Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

# (module, function): timed spans, named "<module>.<function>"
SPAN_TARGETS = (
    ("autodiff", "backward"),
    ("autodiff", "softmax_last_axis"),
    ("autodiff", "zero_grads"),
    ("attention", "mmhsa_block"),
    ("attention", "decay_log_bias"),
    ("encoder", "encode_features"),
    ("encoder", "build_conditional_token"),
    ("model", "run_autoregressive"),
    ("model", "synthesize_phase"),
    ("model", "fuse_and_classify"),
    ("tcc", "predict_signal"),
    ("tcc", "tcc_loss"),
    ("losses", "syn_loss"),
    ("losses", "seg_loss"),
    ("losses", "cls_loss"),
    ("losses", "adam_step"),
    ("training", "case_losses"),
    ("metrics", "psnr"),
    ("metrics", "ssim"),
    ("metrics", "hd95"),
    ("metrics", "asd"),
    ("tensorio", "load_archive"),
    ("tensorio", "save_archive"),
    ("tensorio", "save_pgm"),
    ("phantom", "load_case"),
)
# (module, function): calls counted, not timed
COUNT_TARGETS = (
    ("autodiff", "matmul"),
)
PHASES = ("art", "pv", "delay")


def tape_nodes(loss):
    """Operation nodes on the tape behind ``loss``: tensors that require a
    gradient and have parents (parameters, the leaves, are not counted)."""
    seen = set()
    stack = [loss]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not getattr(node, "requires_grad", False):
            continue
        seen.add(id(node))
        parents = node._parents
        if parents:
            count += 1
            stack.extend(parents)
    return count


class Tracer:
    """Collects spans and counts over every ``with tracer:`` block."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.tape_nodes = []  # per backward call
        self.val_tape_nodes = []  # per validation case
        self.adam_updated = []  # parameter entries per Adam step
        self.steps = []  # (start, end) of each training step
        self.validations = []  # (start, end) of each validation pass
        self._stack = []
        self._step_start = None
        self._last_step_end = None
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "phasesynth" or n.startswith("phasesynth.")]
        targets = [(t, self._span_wrapper) for t in SPAN_TARGETS]
        targets += [(t, self._count_wrapper) for t in COUNT_TARGETS]
        for (mod_name, fn_name), make in targets:
            original = getattr(sys.modules[f"phasesynth.{mod_name}"], fn_name)
            wrapper = make(f"{mod_name}.{fn_name}", original)
            self._patches += [(mod, attr, original, wrapper) for mod in modules
                              for attr, value in vars(mod).items() if value is original]

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            tag = before(args, kwargs) if before is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tag)
            if after is not None:
                after(t0, t1, result)
            return result
        return wrapper

    # hooks: counts measured at the layer boundary, outside the timed span

    def _before_autodiff_backward(self, args, kwargs):
        self.tape_nodes.append(tape_nodes(args[0]))

    def _before_autodiff_zero_grads(self, args, kwargs):
        self._step_start = time.perf_counter()

    def _before_model_synthesize_phase(self, args, kwargs):
        return int(args[0])  # phase index

    def _before_losses_adam_step(self, args, kwargs):
        params = args[0]
        self.adam_updated.append(
            sum(int(t.data.size) for t in params.values() if t.grad is not None))

    def _after_losses_adam_step(self, t0, t1, result):
        if self._step_start is not None:
            self.steps.append((self._step_start, t1))
        self._step_start = None
        self._last_step_end = t1

    def _after_training_case_losses(self, t0, t1, result):
        if self._step_start is None:  # outside a training step: validation
            self.val_tape_nodes.append(tape_nodes(result[1]["total"]))

    def log_hook(self, record):
        """Pass as ``train(..., log_hook=)``: it runs right after validation."""
        if self._last_step_end is not None:
            self.validations.append((self._last_step_end, time.perf_counter()))

    # reduction

    def metrics(self, train_cases):
        """Per-layer metrics: {name: (value, unit)}; 0 where a layer did not run.

        train_cases: training cases the traced calls stepped through, the
        unit of the backward metrics whatever the number of backward calls.
        """
        total = Counter()
        calls = Counter()
        child = Counter()  # time covered by mmhsa_block inside synthesize_phase
        by_phase = Counter()
        forwards = []
        for name, t0, t1, parent, _ in self.spans:
            dur = t1 - t0
            total[name] += dur
            calls[name] += 1
            if name == "model.run_autoregressive":
                forwards.append(dur)
            elif name == "attention.mmhsa_block" and parent >= 0:
                pname, _, _, _, ptag = self.spans[parent]
                if pname == "model.synthesize_phase":
                    child[parent] += dur
                    by_phase[PHASES[ptag]] += dur
        n_fwd = len(forwards)
        decode = sum(t1 - t0 - child[i] for i, (name, t0, t1, _, _) in enumerate(self.spans)
                     if name == "model.synthesize_phase")

        def per_case(name):
            return 1e3 * total[name] / n_fwd if n_fwd else 0.0

        def per_call(name):
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        def mean(values):
            return float(statistics.fmean(values)) if values else 0.0

        def ms_of(intervals):
            return 1e3 * mean([b - a for a, b in intervals])

        fwd_sorted = sorted(forwards)
        out = {
            "autodiff.backward_ms": (
                1e3 * total["autodiff.backward"] / train_cases if train_cases else 0.0, "ms"),
            "autodiff.tape_nodes": (
                sum(self.tape_nodes) / train_cases if train_cases else 0.0, "count"),
            "autodiff.softmax_ms": (per_case("autodiff.softmax_last_axis"), "ms"),
            "autodiff.matmul_calls": (
                self.counts["autodiff.matmul"] / n_fwd if n_fwd else 0.0, "count"),
            "attention.decay_bias_ms": (per_case("attention.decay_log_bias"), "ms"),
            "attention.decay_bias_calls": (
                calls["attention.decay_log_bias"] / n_fwd if n_fwd else 0.0, "count"),
            "encoder.encode_ms": (per_case("encoder.encode_features"), "ms"),
            "encoder.cond_token_ms": (per_case("encoder.build_conditional_token"), "ms"),
            "model.forward_ms.p50": (1e3 * _quantile(fwd_sorted, 0.50), "ms"),
            "model.forward_ms.p99": (1e3 * _quantile(fwd_sorted, 0.99), "ms"),
            "model.decode_ms": (1e3 * decode / n_fwd if n_fwd else 0.0, "ms"),
            "model.classify_ms": (per_case("model.fuse_and_classify"), "ms"),
            "tcc.signal_ms": (per_case("tcc.predict_signal"), "ms"),
            "tcc.loss_ms": (per_call("tcc.tcc_loss"), "ms"),
            "losses.syn_ms": (per_call("losses.syn_loss"), "ms"),
            "losses.seg_ms": (per_call("losses.seg_loss"), "ms"),
            "losses.cls_ms": (per_call("losses.cls_loss"), "ms"),
            "losses.adam_ms": (per_call("losses.adam_step"), "ms"),
            "losses.adam_updated_params": (mean(self.adam_updated), "count"),
            "training.step_ms": (ms_of(self.steps), "ms"),
            "training.validation_ms": (ms_of(self.validations), "ms"),
            "training.val_tape_nodes": (mean(self.val_tape_nodes), "count"),
            "metrics.ssim_ms": (per_call("metrics.ssim"), "ms"),
            "metrics.hd95_ms": (per_call("metrics.hd95"), "ms"),
            "metrics.asd_ms": (per_call("metrics.asd"), "ms"),
            "metrics.psnr_ms": (per_call("metrics.psnr"), "ms"),
            "tensorio.load_archive_ms": (per_call("tensorio.load_archive"), "ms"),
            "tensorio.save_archive_ms": (per_call("tensorio.save_archive"), "ms"),
            "tensorio.save_pgm_ms": (per_call("tensorio.save_pgm"), "ms"),
            "phantom.load_case_ms": (per_call("phantom.load_case"), "ms"),
        }
        for phase in PHASES:
            out[f"attention.mmhsa_ms.{phase}"] = (
                1e3 * by_phase[phase] / n_fwd if n_fwd else 0.0, "ms")
        return out

    def dump(self):
        """Spans and counts as JSON-ready lists, times in microseconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_us", "end_us", "parent", "tag"],
            "spans": [[n, round(1e6 * (a - origin), 1), round(1e6 * (b - origin), 1), p, t]
                      for n, a, b, p, t in self.spans],
            "counts": dict(self.counts),
        }


def _quantile(sorted_values, q):
    """Linear-interpolation quantile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])
