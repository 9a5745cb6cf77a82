"""Span tracing around labelfuse's public functions, from outside the package.

`Tracer` rebinds the public functions of every labelfuse module to wrappers
that record a span (name, start, end, parent span, utterance id, success) and
restores the originals on exit. Nothing in the package changes; a function
imported into several modules (`from .diffcore import matmul`) is rebound in
each of them, so calls are seen whichever namespace they go through.

Spans are kept in flat typed arrays, so a traced default epoch (about 10^5
op calls) costs a few megabytes. Two things are counted rather than spanned
because they run far more often than anything else: `Matrix.__init__`, and
the backward closure of each op node.

An utterance id is opened by each training forward (`fusion.forward`,
`fusion.unimodal_forward`) and each prediction (`fusion.predict_logits`,
`fusion.unimodal_logits`); `diffcore.backward` belongs to the last training
utterance, and every other span inherits its parent's utterance.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from labelfuse import corpus, diffcore, encoders, evalkit, fusion, labelkit, trainer

OP_KINDS = (
    "matmul",
    "transpose",
    "add",
    "scale",
    "row_softmax",
    "row_l2_normalize",
    "pool",
    "concat_cols",
    "cross_entropy",
    "mse",
)

TRAIN, PREDICT = 1, 2

# (module, function name, kind of utterance the call opens, if any)
_TRACED = (
    (corpus, "generate", None),
    (corpus, "split", None),
    (corpus, "save", None),
    (corpus, "load", None),
    (labelkit, "tfidf_topk", None),
    (encoders, "text_encode", None),
    (encoders, "speech_encode", None),
    (fusion, "forward", TRAIN),
    (fusion, "unimodal_forward", TRAIN),
    (fusion, "predict_logits", PREDICT),
    (fusion, "unimodal_logits", PREDICT),
    (diffcore, "backward", None),
    (trainer, "train", None),
    (trainer, "build_model", None),
    (trainer, "save_checkpoint", None),
    (trainer, "load_checkpoint", None),
    (trainer, "model_from_checkpoint", None),
    (evalkit, "evaluate", None),
    (evalkit, "run_ablation", None),
) + tuple((diffcore, kind, None) for kind in OP_KINDS)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every labelfuse module attribute bound to `original` at `replacement`.

    Returns (owner, attribute, original) triples for `restore`.
    """
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "labelfuse" or mod_name.startswith("labelfuse.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


def restore(patched) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def all_restored(patched) -> bool:
    return all(vars(owner)[attr] is original for owner, attr, original in patched)


def _count_graph(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Records spans while active (`with tracer:`); may be entered repeatedly."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.utt = array("i")
        self.ok = array("b")
        self.utt_kind = array("b")
        self.graph_nodes: list[int] = []  # node count of each training forward graph
        self.matrix_count: Counter = Counter()  # utterance kind (0 = none) -> Matrix inits
        self.matrix_ns: Counter = Counter()
        self.op_backward_ns: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._last_train_utt = -1
        self._active = False

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, opens: int | None, backward: bool) -> int:
        index = len(self.name)
        if opens is not None:
            utt = len(self.utt_kind)
            self.utt_kind.append(opens)
            if opens == TRAIN:
                self._last_train_utt = utt
        elif backward:
            utt = self._last_train_utt
        else:
            utt = self.utt[self._stack[-1]] if self._stack else -1
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.utt.append(utt)
        self.ok.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int, ok: bool) -> None:
        self.end[index] = perf_counter_ns()
        self.ok[index] = ok
        self._stack.pop()

    def _current_kind(self) -> int:
        if not self._stack:
            return 0
        utt = self.utt[self._stack[-1]]
        return self.utt_kind[utt] if utt >= 0 else 0

    def _wrap(self, fn, name: str, opens: int | None, after=None):
        name_id = self._name_id(name)
        is_backward = name == "diffcore.backward"
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name_id, opens, is_backward)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                close(index, ok)
            if after is not None:
                after(out)
            return out

        return traced

    def _after_forward(self, result) -> None:
        self.graph_nodes.append(_count_graph(result.loss))

    def _after_op(self, kind: str):
        acc = self.op_backward_ns

        def after(node) -> None:
            inner = node.backward_fn
            if inner is None:
                return

            def timed_backward(g):
                t0 = perf_counter_ns()
                grads = inner(g)
                acc[kind] += perf_counter_ns() - t0
                return grads

            node.backward_fn = timed_backward

        return after

    # -- installing ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._active:
            raise RuntimeError("tracer is already active")
        self._active = True
        self.patched = []
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        patched = self.patched
        for module, fn_name, opens in _TRACED:
            original = getattr(module, fn_name)
            if fn_name in OP_KINDS:
                after = self._after_op(fn_name)
            elif fn_name in ("forward", "unimodal_forward"):
                after = self._after_forward
            else:
                after = None
            wrapper = self._wrap(original, f"{_short(module)}.{fn_name}", opens, after)
            patched += rebind(original, wrapper)

        step = trainer.Adam.step
        trainer.Adam.step = self._wrap(step, "trainer.adam_step", None)
        patched.append((trainer.Adam, "step", step))

        init = diffcore.Matrix.__init__
        count, spent, kind_now = self.matrix_count, self.matrix_ns, self._current_kind

        def matrix_init(matrix, values) -> None:
            t0 = perf_counter_ns()
            init(matrix, values)
            kind = kind_now()
            spent[kind] += perf_counter_ns() - t0
            count[kind] += 1

        diffcore.Matrix.__init__ = matrix_init
        patched.append((diffcore.Matrix, "__init__", init))

    def __exit__(self, *exc) -> None:
        restore(self.patched)
        self._active = False

    # -- reading -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "utt": np.frombuffer(self.utt, dtype=np.int32).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
            "utt_kind": np.frombuffer(self.utt_kind, dtype=np.int8).copy(),
        }

    def per_layer(self, overhead_frac: float, ckpt_bytes: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (names as in BENCHMARK.json)."""
        a = self.arrays()
        names = list(a["names"])
        dur_ms = (a["end_ns"] - a["start_ns"]) / 1e6
        parent = a["parent"]
        has_parent = parent >= 0

        def ids(*span_names: str) -> np.ndarray:
            return np.array([names.index(n) for n in span_names if n in names], dtype=np.int32)

        def mask(*span_names: str) -> np.ndarray:
            return np.isin(a["name"], ids(*span_names))

        def child_cover(child_mask: np.ndarray) -> np.ndarray:
            cover = np.zeros(len(dur_ms))
            take = has_parent & child_mask
            np.add.at(cover, parent[take], dur_ms[take])
            return cover

        self_ms = dur_ms - child_cover(np.ones(len(dur_ms), dtype=bool))
        encoder_cover = child_cover(mask("encoders.text_encode", "encoders.speech_encode"))

        def mean(values: np.ndarray) -> float:
            return float(values.mean()) if values.size else 0.0

        def per(total: float, n: int) -> float:
            return total / n if n else 0.0

        n_train = int((a["utt_kind"] == TRAIN).sum())
        n_predict = int((a["utt_kind"] == PREDICT).sum())
        n_utt = n_train + n_predict
        forward = mask("fusion.forward", "fusion.unimodal_forward")
        predict = mask("fusion.predict_logits", "fusion.unimodal_logits")
        train = mask("trainer.train")
        runs = int(train.sum())
        in_train = np.zeros(len(dur_ms), dtype=bool)
        in_train[has_parent] = train[parent[has_parent]]

        m: dict[str, float] = {
            "diffcore.nodes_per_train_utt": mean(np.array(self.graph_nodes, dtype=float)),
            "diffcore.matrices_per_train_utt": per(self.matrix_count[TRAIN], n_train),
            "diffcore.matrices_per_predict_utt": per(self.matrix_count[PREDICT], n_predict),
            "diffcore.matrix_init_ms_per_utt": per(
                (self.matrix_ns[TRAIN] + self.matrix_ns[PREDICT]) / 1e6, n_utt
            ),
            "diffcore.backward_ms_per_utt": per(float(dur_ms[mask("diffcore.backward")].sum()), n_train),
        }
        for kind in OP_KINDS:
            op = mask(f"diffcore.{kind}")
            m[f"diffcore.op.{kind}.calls_per_utt"] = per(float(op.sum()), n_utt)
            m[f"diffcore.op.{kind}.self_ms_per_utt"] = per(float(self_ms[op].sum()), n_utt)
            m[f"diffcore.op.{kind}.backward_ms_per_utt"] = per(self.op_backward_ns[kind] / 1e6, n_train)
        m.update(
            {
                "encoders.text_encode_ms": mean(dur_ms[mask("encoders.text_encode")]),
                "encoders.speech_encode_ms": mean(dur_ms[mask("encoders.speech_encode")]),
                "fusion.forward_ms": mean(dur_ms[forward]),
                "fusion.head_self_ms": mean((dur_ms - encoder_cover)[forward]),
                "fusion.predict_ms": mean(dur_ms[predict]),
                "fusion.predict_self_ms": mean((dur_ms - encoder_cover)[predict]),
                "trainer.adam_step_ms": mean(dur_ms[mask("trainer.adam_step")]),
                "trainer.adam_steps": per(float(mask("trainer.adam_step").sum()), runs),
                "trainer.epoch_eval_share": per(
                    float(dur_ms[mask("evalkit.evaluate") & in_train].sum()),
                    float(dur_ms[train].sum()),
                ),
                "trainer.build_model_ms": mean(dur_ms[mask("trainer.build_model")]),
                "trainer.ckpt_save_ms": mean(dur_ms[mask("trainer.save_checkpoint")]),
                "trainer.ckpt_load_ms": mean(dur_ms[mask("trainer.load_checkpoint")]),
                "trainer.ckpt_bytes": float(ckpt_bytes),
                "trainer.model_from_checkpoint_ms": mean(dur_ms[mask("trainer.model_from_checkpoint")]),
                "labelkit.tfidf_topk_ms": mean(dur_ms[mask("labelkit.tfidf_topk")]),
                "labelkit.tfidf_topk_calls": per(float(mask("labelkit.tfidf_topk").sum()), runs),
                "corpus.generate_ms": mean(dur_ms[mask("corpus.generate")]),
                "corpus.split_ms": mean(dur_ms[mask("corpus.split")]),
                "corpus.save_ms": mean(dur_ms[mask("corpus.save")]),
                "corpus.load_ms": mean(dur_ms[mask("corpus.load")]),
                "evalkit.evaluate_ms": mean(dur_ms[mask("evalkit.evaluate")]),
                "evalkit.runs_attempted": float(runs),
                "evalkit.runs_failed": float((train & (a["ok"] == 0)).sum()),
                "trace.overhead_frac": overhead_frac,
            }
        )
        return m
