"""Accuracy metrics, ablation and sweep harnesses, and attention exports.

Weighted accuracy is the overall correct rate (confusion trace over n);
unweighted accuracy is the mean per-class recall, with zero-support classes
excluded from the mean. The ablation harness trains every named condition
on identical generated splits per seed, so conditions differ only in their
config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, CorpusSpec, Utterance, generate, split
from .errors import ConfigError, DivergenceError, EvaluationError
from .fusion import class_averaged_attention, label_attention, score_fusion, unimodal_logits


@dataclass(frozen=True)
class EvalResult:
    weighted_accuracy: float
    unweighted_accuracy: float
    confusion: tuple[tuple[int, ...], ...]  # rows true class, cols predicted
    sample_count: int


def result_from_confusion(confusion: np.ndarray) -> EvalResult:
    n = int(confusion.sum())
    weighted = float(np.trace(confusion)) / n
    recalls = []
    for cls in range(confusion.shape[0]):
        support = int(confusion[cls].sum())
        if support > 0:
            recalls.append(confusion[cls, cls] / support)
    return EvalResult(
        weighted_accuracy=weighted,
        unweighted_accuracy=float(sum(recalls) / len(recalls)),
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
        sample_count=n,
    )


def evaluate(predict: Callable[[Utterance], int], corpus: Corpus) -> EvalResult:
    """Run a predictor over a corpus and reduce to WA/UA plus confusion."""
    if not len(corpus):
        raise EvaluationError("cannot evaluate on an empty corpus")
    classes = corpus.spec.classes
    confusion = np.zeros((classes, classes), dtype=np.int64)
    for utt in corpus.utterances:
        confusion[utt.label, predict(utt)] += 1
    return result_from_confusion(confusion)


def score_fusion_predictor(text_model, speech_model) -> Callable[[Utterance], int]:
    """Summed unimodal logits from two trained towers, argmax prediction."""

    def fn(utt: Utterance) -> int:
        return score_fusion(
            unimodal_logits(utt, "text", text_model),
            unimodal_logits(utt, "speech", speech_model),
        )

    return fn


# ---------------------------------------------------------------------------
# Ablations and sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    name: str
    per_seed: tuple[tuple[int, EvalResult], ...]
    failures: tuple[tuple[int, str], ...]

    @property
    def mean_wa(self) -> float | None:
        """Mean WA over the seeds that trained; None when every seed failed."""
        return _mean([r.weighted_accuracy for _, r in self.per_seed])

    @property
    def mean_ua(self) -> float | None:
        """Mean UA over the seeds that trained; None when every seed failed."""
        return _mean([r.unweighted_accuracy for _, r in self.per_seed])


ALL_FAILED = "all-failed"


def _mean(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def format_mean(value: float | None, spec: str = ".12g") -> str:
    """A condition mean for reports; ALL_FAILED when no seed produced one."""
    return ALL_FAILED if value is None else format(value, spec)


@dataclass(frozen=True)
class AblationReport:
    conditions: tuple[ConditionResult, ...]
    seeds: tuple[int, ...]

    def condition(self, name: str) -> ConditionResult:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def to_lines(self) -> list[str]:
        lines = ["condition,seed,wa,ua"]
        for cond in self.conditions:
            for seed, result in cond.per_seed:
                lines.append(
                    f"{cond.name},{seed},{result.weighted_accuracy:.12g},"
                    f"{result.unweighted_accuracy:.12g}"
                )
            for seed, message in cond.failures:
                lines.append(f"{cond.name},{seed},diverged,{message}")
            lines.append(f"{cond.name},mean,{format_mean(cond.mean_wa)},{format_mean(cond.mean_ua)}")
        return lines


def run_ablation(
    conditions: Mapping[str, "TrainConfig"],
    corpus_spec: CorpusSpec,
    corpus_size: int,
    train_fraction: float,
    seeds: Sequence[int],
) -> AblationReport:
    """Train and evaluate every condition on identical splits per seed.

    A diverging run is recorded for its condition and the harness continues.
    """
    from .trainer import train

    if not conditions:
        raise ConfigError("need at least one ablation condition")
    if not seeds:
        raise ConfigError("need at least one seed")

    per_condition: dict[str, list] = {name: [] for name in conditions}
    per_failures: dict[str, list] = {name: [] for name in conditions}
    for seed in seeds:
        corpus = generate(replace(corpus_spec, seed=seed), corpus_size)
        train_split, heldout_split = split(corpus, train_fraction, seed=seed)
        for name, config in conditions.items():
            seeded = replace(config, seed=seed)
            try:
                model, _, _ = train(train_split, heldout_split, seeded)
            except DivergenceError as exc:
                per_failures[name].append((seed, str(exc)))
                continue
            from .trainer import model_predictor

            result = evaluate(model_predictor(model, seeded), heldout_split)
            per_condition[name].append((seed, result))

    return AblationReport(
        conditions=tuple(
            ConditionResult(name, tuple(per_condition[name]), tuple(per_failures[name]))
            for name in conditions
        ),
        seeds=tuple(seeds),
    )


def fusion_mode_conditions(base: "TrainConfig") -> dict[str, "TrainConfig"]:
    """The four alignment variants, everything else held at the base config."""
    return {
        mode: replace(base, modality="multimodal", fusion_mode=mode)
        for mode in ("constraint", "sum", "only-label", "only-vanilla")
    }


def label_init_conditions(base: "TrainConfig") -> dict[str, "TrainConfig"]:
    """Label-embedding init variants, one knob moved at a time."""
    conditions = {}
    for mode in ("random", "label-words", "tfidf"):
        conditions[f"text-init-{mode}"] = replace(base, text_label_init=mode)
    for mode in ("random", "text-embedding", "codebook"):
        conditions[f"speech-init-{mode}"] = replace(base, speech_label_init=mode)
    return conditions


def guidance_conditions(base: "TrainConfig") -> dict[str, "TrainConfig"]:
    """Label guidance on (base weights) vs fully disabled."""
    return {
        "guidance-on": base,
        "guidance-off": replace(
            base, mu_constraint=0.0, mu_guide_text=0.0, mu_guide_speech=0.0,
            fusion_mode="only-vanilla",
        ),
    }


@dataclass(frozen=True)
class SweepPoint:
    k: int
    mean_wa: float | None  # None when every seed failed
    mean_ua: float | None
    per_seed: tuple[tuple[int, EvalResult], ...]


def sweep_k(
    values: Sequence[int],
    modality: str,
    base_config: "TrainConfig",
    corpus_spec: CorpusSpec,
    corpus_size: int,
    train_fraction: float,
    seeds: Sequence[int],
) -> list[SweepPoint]:
    """One train/eval per (top-k value, seed); returns the mean curve."""
    if not values:
        raise ConfigError("sweep needs at least one k value")
    if modality not in ("text", "speech"):
        raise ConfigError(f"sweep modality must be 'text' or 'speech', got {modality!r}")
    vocab = corpus_spec.vocab_text if modality == "text" else corpus_spec.vocab_speech
    for k in values:
        if not 1 <= k <= vocab:
            raise ConfigError(f"top-k value {k} outside 1..{vocab}")

    key = "top_k_text" if modality == "text" else "top_k_speech"
    points = []
    for k in values:
        report = run_ablation(
            {f"k={k}": replace(base_config, **{key: k})},
            corpus_spec,
            corpus_size,
            train_fraction,
            seeds,
        )
        cond = report.conditions[0]
        points.append(SweepPoint(k=k, mean_wa=cond.mean_wa, mean_ua=cond.mean_ua,
                                 per_seed=cond.per_seed))
    return points


def sweep_to_lines(points: Sequence[SweepPoint]) -> list[str]:
    lines = ["k,mean_wa,mean_ua"]
    for p in points:
        lines.append(f"{p.k},{format_mean(p.mean_wa)},{format_mean(p.mean_ua)}")
    return lines


# ---------------------------------------------------------------------------
# Attention export
# ---------------------------------------------------------------------------


def attention_profiles(model, utterance: Utterance) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Class-averaged per-position attention for both modalities."""
    from .encoders import speech_encode, text_encode

    text_profile = label_attention(
        text_encode(utterance.text_tokens, model.text), model.text_labels
    ).value
    speech_profile = label_attention(
        speech_encode(utterance.frame_codes, model.speech), model.speech_labels
    ).value
    return class_averaged_attention(text_profile), class_averaged_attention(speech_profile)


def export_attention(
    model,
    utterance: Utterance,
    planted_tokens: Sequence[int],
    planted_codes: Sequence[int],
    out_prefix,
    bundle=None,
) -> list[str]:
    """Write per-position attention tables (CSV) and a line-plot SVG.

    Returns the written paths. The planted markers use the utterance's own
    class symbols, so the plot shows whether the model found the signal.
    When a full AttentionBundle is supplied its four maps are written too.
    """
    avg_text, avg_speech = attention_profiles(model, utterance)
    planted_tok = set(planted_tokens)
    planted_code = set(planted_codes)

    written = []
    for tag, symbols, values, planted in (
        ("text", utterance.text_tokens, avg_text, planted_tok),
        ("speech", utterance.frame_codes, avg_speech, planted_code),
    ):
        path = f"{out_prefix}_{tag}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("position,symbol,attention,planted\n")
            for pos, (sym, val) in enumerate(zip(symbols, values)):
                fh.write(f"{pos},{sym},{val:.12g},{int(sym in planted)}\n")
        written.append(path)

    if bundle is not None:
        bundle_path = f"{out_prefix}_bundle.csv"
        with open(bundle_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(bundle.to_lines()) + "\n")
        written.append(bundle_path)

    svg_path = f"{out_prefix}.svg"
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(_attention_svg(utterance, avg_text, avg_speech, planted_tok, planted_code))
    written.append(svg_path)
    return written


def _svg_panel(
    values: Sequence[float],
    symbols: Sequence[int],
    planted: set,
    y_offset: int,
    title: str,
    width: int,
    height: int,
) -> list[str]:
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    margin = 40

    def x(pos: int) -> float:
        if len(values) == 1:
            return margin + (width - 2 * margin) / 2
        return margin + (width - 2 * margin) * pos / (len(values) - 1)

    def y(val: float) -> float:
        return y_offset + height - 20 - (height - 40) * (val - lo) / span

    parts = [
        f'<text x="{margin}" y="{y_offset + 14}" font-size="12" '
        f'font-family="monospace">{title}</text>'
    ]
    points = " ".join(f"{x(i):.2f},{y(v):.2f}" for i, v in enumerate(values))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#336" stroke-width="1.5"/>')
    for i, v in enumerate(values):
        color = "#c33" if symbols[i] in planted else "#999"
        radius = 4 if symbols[i] in planted else 2
        parts.append(f'<circle cx="{x(i):.2f}" cy="{y(v):.2f}" r="{radius}" fill="{color}"/>')
    return parts


def _attention_svg(utterance, avg_text, avg_speech, planted_tok, planted_code) -> str:
    width, panel = 800, 160
    body = ['<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{2 * panel}" viewBox="0 0 {width} {2 * panel}">']
    body += _svg_panel(
        avg_text, utterance.text_tokens, planted_tok, 0,
        "class-averaged attention, text (planted positions in red)", width, panel,
    )
    body += _svg_panel(
        avg_speech, utterance.frame_codes, planted_code, panel,
        "class-averaged attention, speech", width, panel,
    )
    body.append("</svg>")
    return "\n".join(body)
