"""Span tracer that wraps paracnn's public functions and classes from outside.

Every wrapper is installed where the name is looked up (a module global, a
name imported into ``cli``, or a class attribute) and removed again by
``Tracer.restore``. Spans are kept in memory as ``[name, start, end, parent]``
rows; ``Tracer.layer_metrics`` turns them into busy time (outermost spans of a
name), self time (duration minus the part covered by child spans), call
counts and the derived per-layer rows listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from paracnn import checkpoint, cli, corpus, decode, layers, metrics, model, tensor, training

# (owner, attribute, span name): plain timed wrappers. A name bound in two
# places (decode.greedy_decode is also imported into cli) is wrapped at both.
TIMED = [
    (corpus, "load_features", "corpus.load_features"),
    (corpus, "batch_from_entries", "corpus.batch_from_entries"),
    (training, "pad_feature_batch", "corpus.pad_feature_batch"),
    (cli, "read_checkpoint", "checkpoint.read_checkpoint"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (layers.BiGruCell, "__call__", "layers.BiGruCell"),
    (layers.VisualAttention, "__call__", "layers.VisualAttention"),
    (layers.MultiHeadSelfAttention, "__call__", "layers.MultiHeadSelfAttention"),
    (layers.Embedding, "__call__", "layers.Embedding"),
    (model.ParagraphModel, "paragraph_forward", "model.paragraph_forward"),
    (model.ParagraphModel, "project_features", "model.project_features"),
    (model.ParagraphModel, "pool_context", "model.pool_context"),
    (model.ParagraphModel, "topic_forward", "model.topic_forward"),
    (model.ParagraphModel, "sentence_forward", "model.sentence_forward"),
    (training.TwinTrainer, "train_batch", "training.train_batch"),
    (training.TwinTrainer, "eval_ce", "training.eval_ce"),
    (training.RmspropOptimizer, "step", "training.RmspropOptimizer.step"),
    (training, "critic_step", "training.critic_step"),
    (training.Critic, "score", "training.Critic.score"),
    (training, "twin_l2_loss", "training.twin_l2_loss"),
    (training, "reverse_targets", "training.reverse_targets"),
    (metrics, "evaluate_all", "metrics.evaluate_all"),
    (metrics, "bleu_n", "metrics.bleu_n"),
    (metrics, "rouge_l", "metrics.rouge_l"),
    (metrics, "cider", "metrics.cider"),
]

# span names whose busy time, call count and self time are reported
SPAN_NAMES = sorted({name for _, _, name in TIMED} | {
    "bench.op", "bench.setup", "checkpoint.write_checkpoint", "layers.CausalConvBlock",
    "model.vocab_head", "decode.greedy_decode", "decode.apply_repetition_penalty"})
CALLS = ["corpus.load_features", "checkpoint.write_checkpoint", "tensor.backward",
         "layers.CausalConvBlock", "model.topic_forward", "model.sentence_forward",
         "training.train_batch", "training.critic_step", "training.Critic.score",
         "decode.greedy_decode", "decode.apply_repetition_penalty"]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.open = []           # indices of the spans currently open
        self.counts = defaultdict(float)
        self.enabled = False     # wrappers pass straight through while False
        self._saved = []         # (owner, attribute, original) for restore
        self._part_of = {}       # id(layer) -> model part, filled per ParagraphModel

    # -- span bookkeeping ------------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.open[-1] if self.open else -1])
        self.open.append(idx)
        return idx

    def _end(self, idx):
        self.open.pop()
        self.spans[idx][2] = time.perf_counter()
        return self.spans[idx][2] - self.spans[idx][1]

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; nothing while tracing is off."""
        idx = self._begin(name) if self.enabled else None
        try:
            yield
        finally:
            if idx is not None:
                self._end(idx)

    def _timed(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation ------------------------------------------------------------

    def install(self):
        for owner, attr, name in TIMED:
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        self._install_counting()
        return self

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.enabled = False

    def _install_counting(self):
        tracer = self
        counts = self.counts

        init = tensor.Tensor.__init__

        def tensor_init(self, *args, **kwargs):
            if tracer.enabled:
                counts["tensor.tensors_created"] += 1
            init(self, *args, **kwargs)

        self._patch(tensor.Tensor, "__init__", tensor_init)

        model_init = model.ParagraphModel.__init__

        def paragraph_model_init(self, *args, **kwargs):
            model_init(self, *args, **kwargs)
            tracer.register_model(self)

        self._patch(model.ParagraphModel, "__init__", paragraph_model_init)

        conv = layers.CausalConvBlock.__call__

        def conv_call(self, x):
            if not tracer.enabled:
                return conv(self, x)
            rows = int(np.prod(x.shape[:-1]))
            counts["layers.CausalConvBlock.gflop"] += (
                2.0 * rows * self.kernel_size * self.in_channels * 2 * self.out_channels / 1e9)
            idx = tracer._begin("layers.CausalConvBlock")
            try:
                return conv(self, x)
            finally:
                part = tracer._part_of.get(id(self))
                dur = tracer._end(idx)
                if part is not None:
                    counts[part] += dur

        self._patch(layers.CausalConvBlock, "__call__", conv_call)

        linear = layers.Linear.__call__

        def linear_call(self, x):
            if not tracer.enabled or tracer._part_of.get(id(self)) != "model.vocab_head":
                return linear(self, x)
            with tracer.span("model.vocab_head"):
                return linear(self, x)

        self._patch(layers.Linear, "__call__", linear_call)

        write = cli.write_checkpoint

        def write_checkpoint(path, meta, arrays):
            with tracer.span("checkpoint.write_checkpoint"):
                write(path, meta, arrays)
            if tracer.enabled:
                counts["checkpoint.bytes_written"] += os.path.getsize(path)

        self._patch(cli, "write_checkpoint", write_checkpoint)

        def traced_greedy(greedy):
            def greedy_decode(model_, features, dc, vocab, *args, **kwargs):
                if not tracer.enabled:
                    return greedy(model_, features, dc, vocab, *args, **kwargs)
                before = counts["tensor.tensors_created"]
                with tracer.span("decode.greedy_decode"):
                    sentences = greedy(model_, features, dc, vocab, *args, **kwargs)
                counts["decode.tensors_created"] += counts["tensor.tensors_created"] - before
                counts["decode.words_emitted"] += sum(len(s) for s in sentences)
                # <eos> before the sentence's word budget ran out
                budget = min(dc.max_words or model_.cfg.max_words, model_.cfg.max_words)
                counts["decode.early_eos"] += sum(1 for s in sentences if s and
                                                  s[-1] == vocab.eos and len(s) < budget)
                return sentences
            return greedy_decode

        # decode_adaptive looks greedy_decode up in decode, cmd_generate in cli
        self._patch(decode, "greedy_decode", traced_greedy(decode.greedy_decode))
        self._patch(cli, "greedy_decode", traced_greedy(cli.greedy_decode))

        penalty = decode.apply_repetition_penalty

        def apply_repetition_penalty(logits, history, gamma, block_trigrams):
            if not tracer.enabled:
                return penalty(logits, history, gamma, block_trigrams)
            with tracer.span("decode.apply_repetition_penalty"):
                out = penalty(logits, history, gamma, block_trigrams)
            if np.argmax(out) != np.argmax(logits):
                counts["decode.penalty_changed_argmax"] += 1
            if np.count_nonzero(np.isneginf(out)) > np.count_nonzero(np.isneginf(logits)):
                counts["decode.trigram_blocked"] += 1
            return out

        self._patch(decode, "apply_repetition_penalty", apply_repetition_penalty)

    def register_model(self, m):
        """Map a ParagraphModel's sub-layers to the model part they belong to."""
        for block in m.topic_blocks:
            self._part_of[id(block)] = "model.topic_stack"
        for block in m.word_blocks:
            self._part_of[id(block)] = "model.word_stack"
        self._part_of[id(m.vocab_head)] = "model.vocab_head"

    # -- aggregation ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * n
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child_time[s[3]] += d

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        in_critic = [False] * n
        train_batch_of = [-1] * n
        in_decode = [False] * n
        for i, (name, _, _, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += dur[i] - child_time[i]
            if parent >= 0:
                # ancestry flags are inherited, spans are recorded parent first
                in_critic[i] = in_critic[parent] or spans[parent][0] == "training.critic_step"
                train_batch_of[i] = (parent if spans[parent][0] == "training.train_batch"
                                     else train_batch_of[parent])
                in_decode[i] = in_decode[parent] or spans[parent][0] == "decode.greedy_decode"
            if not any(spans[a][0] == name for a in ancestors(i)):
                busy[name] += dur[i]

        # split of train_batch: backward and optimizer steps outside the critic
        backward_s = sum(dur[i] for i in range(n) if spans[i][0] == "tensor.backward"
                         and train_batch_of[i] >= 0 and not in_critic[i])
        gen_step_s = sum(dur[i] for i in range(n)
                         if spans[i][0] == "training.RmspropOptimizer.step"
                         and train_batch_of[i] >= 0 and not in_critic[i])
        train_s = busy["training.train_batch"]
        critic_s = busy["training.critic_step"]
        decode_s = busy["decode.greedy_decode"]
        conv_in_decode = sum(dur[i] for i in range(n) if spans[i][0] == "layers.CausalConvBlock"
                             and in_decode[i])
        c = self.counts
        penalty_calls = calls["decode.apply_repetition_penalty"]

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in CALLS:
            out[f"{name}.calls"] = (calls[name], "count")
        out.update({
            "checkpoint.bytes_written": (c["checkpoint.bytes_written"], "bytes"),
            "tensor.tensors_created": (c["tensor.tensors_created"], "count"),
            "tensor.tensors_per_decode_word": (
                _ratio(c["decode.tensors_created"], c["decode.words_emitted"]), "count/word"),
            "layers.CausalConvBlock.gflop": (c["layers.CausalConvBlock.gflop"], "GFLOP"),
            "layers.CausalConvBlock.decode_share": (_ratio(conv_in_decode, decode_s), "frac"),
            "model.topic_stack.busy_s": (c["model.topic_stack"], "s"),
            "model.word_stack.busy_s": (c["model.word_stack"], "s"),
            "training.forward_s": (train_s - backward_s - gen_step_s - critic_s, "s"),
            "training.backward_s": (backward_s, "s"),
            "training.critic_share": (_ratio(critic_s, train_s), "frac"),
            "decode.words_emitted": (c["decode.words_emitted"], "count"),
            "decode.early_eos": (c["decode.early_eos"], "count"),
            "decode.penalty_changed_argmax_share": (
                _ratio(c["decode.penalty_changed_argmax"], penalty_calls), "frac"),
            "decode.trigram_block_share": (_ratio(c["decode.trigram_blocked"], penalty_calls),
                                           "frac"),
        })
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
