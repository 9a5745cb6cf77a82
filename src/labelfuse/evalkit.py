"""Accuracy metrics, ablation and sweep harnesses, and attention exports.

Weighted accuracy is the overall correct rate (confusion trace over n);
unweighted accuracy is the mean per-class recall, with zero-support classes
excluded from the mean. The ablation harness trains every named condition
on identical generated splits per seed, so conditions differ only in their
config, and scores each run by one heldout evaluation of its final model;
it may spread the runs over processes, and its report is the same for any
number of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .atomic import write_atomic
from .corpus import Corpus, CorpusSpec, Utterance, generate, split
from .errors import ConfigError, DivergenceError, EvaluationError
from .fusion import (
    TOWERS,
    AttentionBundle,
    FusionMode,
    class_averaged_attention,
    score_fusion,
    unimodal_logits,
)
from .labelkit import SPEECH_INIT_MODES, TEXT_INIT_MODES


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


def _usable_cores() -> int:
    """CPU cores this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_ablation(
    conditions: Mapping[str, "TrainConfig"],
    corpus_spec: CorpusSpec,
    corpus_size: int,
    train_fraction: float,
    seeds: Sequence[int],
    jobs: int | None = None,
) -> AblationReport:
    """Train every condition on identical splits per seed; score on the heldout split.

    A run is `trainer.fit` and one heldout evaluation of its final model
    (`trainer.evaluate_final`); it evaluates nothing else. Every config
    needs epochs >= 1 and no seed may repeat (else ConfigError, before any
    run starts). A diverging run is recorded for its condition and the
    harness continues.
    Runs are spread over `jobs` processes (default: every usable core; 1 runs
    them in this process). Each run is a pure function of its split and
    seeded config and results are merged in serial order (seed, then
    condition), so the report does not depend on `jobs`. Any other error
    surfaces as that of the first failing run in serial order.
    """
    if not conditions:
        raise ConfigError("need at least one ablation condition")
    if not seeds:
        raise ConfigError("need at least one seed")
    if len(set(seeds)) < len(seeds):  # a repeated seed's run would count twice in every mean
        raise ConfigError(f"seeds must not repeat, got {','.join(map(str, seeds))}")
    if jobs is not None and (isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1):
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    runs = [(seed, name, replace(config, seed=seed))
            for seed in seeds for name, config in conditions.items()]
    for _, _, config in runs:
        config.validate()
        if config.epochs < 1:  # an untrained model's score says nothing about its condition
            raise ConfigError(f"ablation runs need epochs >= 1, got {config.epochs}")
    splits = {
        seed: split(generate(replace(corpus_spec, seed=seed), corpus_size), train_fraction, seed)
        for seed in seeds
    }
    tasks = [(*splits[seed], config) for seed, _, config in runs]
    if jobs is None:
        jobs = _usable_cores()
    if not hasattr(os, "fork"):  # the pool forks its workers
        jobs = 1
    outcomes = _run_tasks(tasks, min(jobs, len(tasks)))

    per_condition: dict[str, list] = {name: [] for name in conditions}
    per_failures: dict[str, list] = {name: [] for name in conditions}
    for (seed, name, _), (result, message) in zip(runs, outcomes):
        if result is None:
            per_failures[name].append((seed, message))
        else:
            per_condition[name].append((seed, result))

    return AblationReport(tuple(
        ConditionResult(name, tuple(per_condition[name]), tuple(per_failures[name]))
        for name in conditions
    ))


def _run_one(train_split: Corpus, heldout_split: Corpus, config: "TrainConfig"):
    """One run: (heldout EvalResult of its final model, None), or (None, message) if it diverged."""
    from . import trainer  # imported here: trainer imports this module

    try:
        return trainer.evaluate_final(trainer.fit(train_split, config), heldout_split, config), None
    except DivergenceError as exc:
        return None, str(exc)


def _run_tasks(tasks: list, jobs: int) -> list:
    """`_run_one` over every task, on `jobs` processes; outcomes in task order.

    A forked pool of jobs - 1 workers takes every task but 0, jobs, 2*jobs,
    ...; then this process walks the tasks in order, running those itself and
    collecting the workers' results, so `jobs` cores keep `jobs` processes
    busy. Forked workers inherit the imported package (and any patch applied
    to it) and start in milliseconds; the pool forks them all before it
    starts its own thread. Walking in order, an exception other than
    DivergenceError surfaces from the first failing task, whichever process
    ran it.
    """
    if jobs == 1:
        return [_run_one(*task) for task in tasks]
    # Imported here: a serial run (and train, serve) should not pay their memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            futures = {i: pool.submit(_run_one, *task)
                       for i, task in enumerate(tasks) if i % jobs}
            return [futures[i].result() if i % jobs else _run_one(*task)
                    for i, task in enumerate(tasks)]
        finally:
            pool.shutdown(cancel_futures=True)


def fusion_mode_conditions(base: "TrainConfig") -> dict[str, "TrainConfig"]:
    """The four alignment variants, everything else held at the base config."""
    return {
        mode.value: replace(base, modality="multimodal", fusion_mode=mode.value)
        for mode in FusionMode
    }


def label_init_conditions(base: "TrainConfig") -> dict[str, "TrainConfig"]:
    """Label-embedding init variants, one knob moved at a time."""
    conditions = {}
    for mode in TEXT_INIT_MODES:
        conditions[f"text-init-{mode}"] = replace(base, text_label_init=mode)
    for mode in SPEECH_INIT_MODES:
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


def sweep_k(
    values: Sequence[int],
    modality: str,
    base_config: "TrainConfig",
    corpus_spec: CorpusSpec,
    corpus_size: int,
    train_fraction: float,
    seeds: Sequence[int],
    jobs: int | None = None,
) -> list[tuple[int, ConditionResult]]:
    """One train/eval per (top-k value, seed), run as one ablation grid.

    Returns a (k, its ablation condition) pair per value, in the order given;
    the condition's `mean_wa` and `mean_ua` are the curve. `jobs` is passed
    to `run_ablation`. A repeated k value is trained once and reported at
    each of its positions.
    """
    if not values:
        raise ConfigError("sweep needs at least one k value")
    if modality not in TOWERS:
        raise ConfigError(f"sweep modality {modality!r} is not one of {' | '.join(TOWERS)}")
    vocab = corpus_spec.vocab_text if modality == "text" else corpus_spec.vocab_speech
    for k in values:
        if not 1 <= k <= vocab:
            raise ConfigError(f"top-k value {k} outside 1..{vocab}")

    key = "top_k_text" if modality == "text" else "top_k_speech"
    report = run_ablation(
        {f"k={k}": replace(base_config, **{key: k}) for k in values},
        corpus_spec,
        corpus_size,
        train_fraction,
        seeds,
        jobs,
    )
    return [(k, report.condition(f"k={k}")) for k in values]


def sweep_to_lines(points: Sequence[tuple[int, ConditionResult]]) -> list[str]:
    lines = ["k,mean_wa,mean_ua"]
    for k, cond in points:
        lines.append(f"{k},{format_mean(cond.mean_wa)},{format_mean(cond.mean_ua)}")
    return lines


# ---------------------------------------------------------------------------
# Attention export
# ---------------------------------------------------------------------------


def export_attention(
    bundle: AttentionBundle,
    utterance: Utterance,
    planted_tokens: Sequence[int],
    planted_codes: Sequence[int],
    out_prefix,
) -> list[str]:
    """Write the attention maps of one utterance: per-position CSVs, the bundle, an SVG.

    `bundle` is `fusion.attention_maps` of the utterance. The per-position
    tables and the line plot show its label-token and label-frame profiles
    averaged over classes; `<prefix>_bundle.csv` holds all four maps. Returns
    the written paths. The planted markers use the utterance's own class
    symbols, so the plot shows whether the model found the signal.
    """
    avg_text = class_averaged_attention(bundle.label_token)
    avg_speech = class_averaged_attention(bundle.label_frame)
    planted_tok = set(planted_tokens)
    planted_code = set(planted_codes)

    written = []
    for tag, symbols, values, planted in (
        ("text", utterance.text_tokens, avg_text, planted_tok),
        ("speech", utterance.frame_codes, avg_speech, planted_code),
    ):
        path = f"{out_prefix}_{tag}.csv"
        rows = [f"{pos},{sym},{val:.12g},{int(sym in planted)}\n"
                for pos, (sym, val) in enumerate(zip(symbols, values))]
        write_atomic(path, "position,symbol,attention,planted\n" + "".join(rows))
        written.append(path)

    bundle_path = f"{out_prefix}_bundle.csv"
    write_atomic(bundle_path, "\n".join(bundle.to_lines()) + "\n")
    written.append(bundle_path)

    svg_path = f"{out_prefix}.svg"
    svg = _attention_svg(utterance, avg_text, avg_speech, planted_tok, planted_code)
    write_atomic(svg_path, svg)
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
