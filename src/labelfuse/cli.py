"""Command-line entry point.

Subcommands: gen-corpus, extract-labels, train, evaluate, ablate, sweep-k,
score-fusion, export-attention, grad-check.

Option precedence is flags > config file (--config, JSON) > defaults; a
config file with a key the subcommand does not know is a usage error.
Every successful run writes the fully resolved options to
<out-dir>/config/<subcommand>.json, and feeding that file back through
--config reproduces the run. Outputs land in fixed subdirectories of the
output dir: config/, checkpoints/, logs/, reports/, plots/.

Exit codes: 0 success, 1 validation or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import evalkit
from . import labelkit
from . import trainer
from .errors import ConfigError, LabelFuseError

ENV_OUT_DIR = "LABELFUSE_OUT"
DEFAULT_OUT_DIR = "runs"


class UnknownKeyError(LabelFuseError):
    """Unknown config-file key; maps to the usage exit code."""


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# (key, type, default, help) per option group; None defaults mean required.
CORPUS_KEYS = [
    ("classes", int, 4, "number of classes"),
    ("vocab_text", int, 120, "text vocabulary size"),
    ("vocab_speech", int, 240, "speech code vocabulary size"),
    ("text_len_min", int, 10, "minimum token sequence length"),
    ("text_len_max", int, 30, "maximum token sequence length"),
    ("speech_len_min", int, 40, "minimum frame sequence length"),
    ("speech_len_max", int, 120, "maximum frame sequence length"),
    ("salient_per_class", int, 6, "planted symbols per class per modality"),
    ("salience_prob", float, 0.3, "probability a position carries a planted symbol"),
    ("corpus_seed", int, 0, "corpus generation seed"),
    ("context_utterances", int, 0, "same-class history utterances spliced into the text side"),
]

TRAIN_KEYS = [
    ("epochs", int, 50, "training epochs"),
    ("batch_size", int, 8, "utterances per optimizer step"),
    ("learning_rate", float, 3e-4, "Adam learning rate"),
    ("adam_beta1", float, 0.9, "Adam first-moment decay"),
    ("adam_beta2", float, 0.999, "Adam second-moment decay"),
    ("adam_epsilon", float, 1e-8, "Adam denominator epsilon"),
    ("mu_main", float, 1.0, "weight of the fused classification loss"),
    ("mu_constraint", float, 0.5, "weight of the alignment constraint loss"),
    ("mu_guide_text", float, 0.2, "weight of the text guidance loss"),
    ("mu_guide_speech", float, 0.2, "weight of the speech guidance loss"),
    ("fusion_mode", str, "constraint", "constraint | sum | only-label | only-vanilla"),
    ("modality", str, "multimodal", "multimodal | text | speech"),
    ("text_label_init", str, "tfidf", "random | label-words | tfidf"),
    ("speech_label_init", str, "codebook", "random | text-embedding | codebook"),
    ("top_k_text", int, 9, "keywords per class for text labels"),
    ("top_k_speech", int, 100, "key frames per class for speech labels"),
    ("labels_trainable", _parse_bool, False, "whether label rows receive updates"),
    ("normalize_label_attention", _parse_bool, False, "row-softmax the label-guided alignment"),
    ("text_dim", int, 16, "text representation width"),
    ("speech_dim", int, 16, "speech representation width"),
    ("seed", int, 0, "model init / shuffling seed"),
]

# Its default varies by machine; the reports do not depend on it.
JOBS_KEY = ("jobs", int, None, "processes running the (seed x condition) grid "
            "(default every usable core)")

SPLIT_KEYS = [
    ("train_fraction", float, 0.8, "per-class fraction assigned to the train side"),
    ("split_seed", int, 0, "seed of the stratified split"),
]


def _spec_from(resolved: dict) -> corpus_mod.CorpusSpec:
    return corpus_mod.CorpusSpec(
        classes=resolved["classes"],
        vocab_text=resolved["vocab_text"],
        vocab_speech=resolved["vocab_speech"],
        text_len=(resolved["text_len_min"], resolved["text_len_max"]),
        speech_len=(resolved["speech_len_min"], resolved["speech_len_max"]),
        salient_per_class=resolved["salient_per_class"],
        salience_prob=resolved["salience_prob"],
        seed=resolved["corpus_seed"],
        context_utterances=resolved["context_utterances"],
    )


def _train_config_from(resolved: dict) -> trainer.TrainConfig:
    return trainer.TrainConfig(**{key: resolved[key] for key, _, _, _ in TRAIN_KEYS})


class Subcommand:
    """Declarative key set plus handler for one subcommand."""

    def __init__(self, name, help_text, keys, handler, required=()):
        self.name = name
        self.help_text = help_text
        self.keys = keys
        self.handler = handler
        self.required = tuple(required)

    def register(self, subparsers) -> None:
        parser = subparsers.add_parser(self.name, help=self.help_text)
        parser.add_argument("--config", help="JSON file with option keys")
        parser.add_argument("--out-dir", dest="out_dir", help="output directory root")
        for key, parse, default, help_text in self.keys:
            flag = "--" + key.replace("_", "-")
            if default is not None:
                help_text = f"{help_text} (default {default})"
            parser.add_argument(flag, dest=key, type=parse, default=None, help=help_text)
        parser.set_defaults(_subcommand=self)

    def resolve(self, args: argparse.Namespace) -> dict:
        resolved = {key: default for key, _, default, _ in self.keys}
        resolved["out_dir"] = os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR)
        known = set(resolved)
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    from_file = json.load(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc.msg}") from None
            if not isinstance(from_file, dict):
                raise ConfigError("config file must hold a JSON object")
            from_file.pop("subcommand", None)  # snapshots carry their subcommand
            for key, value in from_file.items():
                if key not in known:
                    raise UnknownKeyError(f"unknown config key {key!r} for {self.name}")
                resolved[key] = value
        for key in known:
            value = getattr(args, key, None)
            if value is not None:
                resolved[key] = value
        for key in self.required:
            if resolved.get(key) is None:
                raise ConfigError(f"{self.name} requires --{key.replace('_', '-')}")
        return resolved


def _out_layout(resolved: dict, subcommand: str) -> dict[str, Path]:
    root = Path(resolved["out_dir"])
    layout = {name: root / name for name in ("config", "checkpoints", "logs", "reports", "plots")}
    for path in layout.values():
        path.mkdir(parents=True, exist_ok=True)
    snapshot = dict(resolved)
    snapshot["subcommand"] = subcommand
    snapshot_path = layout["config"] / f"{subcommand}.json"
    with open(snapshot_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return layout


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_split(resolved: dict):
    corpus = corpus_mod.load(resolved["corpus_file"])
    train_c, heldout_c = corpus_mod.split(
        corpus, resolved["train_fraction"], resolved["split_seed"]
    )
    return corpus, train_c, heldout_c


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_gen_corpus(resolved: dict) -> int:
    layout = _out_layout(resolved, "gen-corpus")
    spec = _spec_from(resolved)
    corpus = corpus_mod.generate(spec, resolved["n"])
    target = resolved["corpus_file"] or str(layout["reports"].parent / "corpus.txt")
    corpus_mod.save(corpus, target)
    print(f"wrote {len(corpus)} utterances to {target}")
    return 0


def _cmd_extract_labels(resolved: dict) -> int:
    layout = _out_layout(resolved, "extract-labels")
    corpus = corpus_mod.load(resolved["corpus_file"])
    text_desc = labelkit.tfidf_topk(labelkit.text_view(corpus), resolved["top_k_text"])
    speech_desc = labelkit.tfidf_topk(labelkit.speech_view(corpus), resolved["top_k_speech"])
    text_path = layout["reports"] / "labels_text.csv"
    speech_path = layout["reports"] / "labels_speech.csv"
    _write_lines(text_path, text_desc.to_lines())
    _write_lines(speech_path, speech_desc.to_lines())
    print(f"wrote {text_path} and {speech_path}")
    return 0


def _cmd_train(resolved: dict) -> int:
    layout = _out_layout(resolved, "train")
    _, train_c, heldout_c = _load_split(resolved)
    config = _train_config_from(resolved)
    resume = None
    if resolved.get("resume_from"):
        resume = trainer.load_checkpoint(resolved["resume_from"])
    _, log, checkpoint = trainer.train(train_c, heldout_c, config, resume_from=resume)
    ckpt_path = layout["checkpoints"] / "model.ckpt"
    trainer.save_checkpoint(ckpt_path, checkpoint)
    _write_lines(layout["logs"] / "train_log.csv", log.to_lines())
    if log.records:
        last = log.records[-1]
        print(
            f"trained {config.epochs} epochs: heldout WA {last.heldout_wa:.4f} "
            f"UA {last.heldout_ua:.4f}; checkpoint at {ckpt_path}"
        )
    else:
        print(f"wrote initialization checkpoint to {ckpt_path}")
    return 0


def _cmd_evaluate(resolved: dict) -> int:
    layout = _out_layout(resolved, "evaluate")
    checkpoint = trainer.load_checkpoint(resolved["checkpoint"])
    model = trainer.model_from_checkpoint(checkpoint)
    corpus, train_c, heldout_c = _load_split(resolved)
    parts = {"train": train_c, "heldout": heldout_c, "all": corpus}
    if resolved["split"] not in parts:
        raise ConfigError(f"split must be one of {sorted(parts)}, got {resolved['split']!r}")
    part = parts[resolved["split"]]
    result = evalkit.evaluate(trainer.model_predictor(model, checkpoint.config), part)
    lines = [
        "metric,value",
        f"wa,{result.weighted_accuracy:.12g}",
        f"ua,{result.unweighted_accuracy:.12g}",
        f"n,{result.sample_count}",
    ]
    for true_cls, row in enumerate(result.confusion):
        lines.append(f"confusion_row_{true_cls}," + ";".join(str(v) for v in row))
    _write_lines(layout["reports"] / "evaluation.csv", lines)
    print(f"WA {result.weighted_accuracy:.4f} UA {result.unweighted_accuracy:.4f} "
          f"on {result.sample_count} utterances ({resolved['split']})")
    return 0


def _suite_conditions(suite: str, base: trainer.TrainConfig):
    if suite == "fusion-modes":
        return evalkit.fusion_mode_conditions(base)
    if suite == "label-inits":
        return evalkit.label_init_conditions(base)
    if suite == "guidance":
        return evalkit.guidance_conditions(base)
    raise ConfigError(f"unknown ablation suite {suite!r}")


def _cmd_ablate(resolved: dict) -> int:
    layout = _out_layout(resolved, "ablate")
    base = _train_config_from(resolved)
    conditions = _suite_conditions(resolved["suite"], base)
    report = evalkit.run_ablation(
        conditions,
        _spec_from(resolved),
        resolved["n"],
        resolved["train_fraction"],
        resolved["seeds"],
        resolved["jobs"],
    )
    path = layout["reports"] / f"ablation_{resolved['suite']}.csv"
    _write_lines(path, report.to_lines())
    for cond in report.conditions:
        print(
            f"{cond.name}: mean WA {evalkit.format_mean(cond.mean_wa, '.4f')} "
            f"UA {evalkit.format_mean(cond.mean_ua, '.4f')}"
        )
    print(f"wrote {path}")
    return 0


DEFAULT_K_GRID = {"text": [3, 6, 9, 15, 30], "speech": [25, 50, 100, 200]}


def _cmd_sweep_k(resolved: dict) -> int:
    if resolved["k_values"] is None:
        resolved["k_values"] = DEFAULT_K_GRID.get(resolved["sweep_modality"])
        if resolved["k_values"] is None:
            raise ConfigError(
                f"sweep modality must be 'text' or 'speech', got {resolved['sweep_modality']!r}"
            )
    layout = _out_layout(resolved, "sweep-k")
    points = evalkit.sweep_k(
        resolved["k_values"],
        resolved["sweep_modality"],
        _train_config_from(resolved),
        _spec_from(resolved),
        resolved["n"],
        resolved["train_fraction"],
        resolved["seeds"],
        resolved["jobs"],
    )
    path = layout["reports"] / f"sweep_{resolved['sweep_modality']}.csv"
    _write_lines(path, evalkit.sweep_to_lines(points))
    for p in points:
        print(
            f"k={p.k}: mean WA {evalkit.format_mean(p.mean_wa, '.4f')} "
            f"UA {evalkit.format_mean(p.mean_ua, '.4f')}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_score_fusion(resolved: dict) -> int:
    base = _train_config_from(resolved)
    if base.epochs < 1:  # each tower's row is its last epoch's heldout evaluation
        raise ConfigError(f"score-fusion needs epochs >= 1, got {base.epochs}")
    layout = _out_layout(resolved, "score-fusion")
    _, train_c, heldout_c = _load_split(resolved)
    text_model, text_log, _ = trainer.train(train_c, heldout_c, replace(base, modality="text"))
    speech_model, speech_log, _ = trainer.train(
        train_c, heldout_c, replace(base, modality="speech")
    )
    fused_eval = evalkit.evaluate(
        evalkit.score_fusion_predictor(text_model, speech_model), heldout_c
    )
    lines = ["system,wa,ua"]
    for name, result in (
        ("text", text_log.heldout), ("speech", speech_log.heldout), ("score-fusion", fused_eval)
    ):
        lines.append(f"{name},{result.weighted_accuracy:.12g},{result.unweighted_accuracy:.12g}")
        print(f"{name}: WA {result.weighted_accuracy:.4f} UA {result.unweighted_accuracy:.4f}")
    path = layout["reports"] / "score_fusion.csv"
    _write_lines(path, lines)
    print(f"wrote {path}")
    return 0


def _cmd_export_attention(resolved: dict) -> int:
    layout = _out_layout(resolved, "export-attention")
    checkpoint = trainer.load_checkpoint(resolved["checkpoint"])
    model = trainer.model_from_checkpoint(checkpoint)
    corpus = corpus_mod.load(resolved["corpus_file"])
    index = resolved["index"]
    if not 0 <= index < len(corpus):
        raise ConfigError(f"utterance index {index} outside corpus of size {len(corpus)}")
    utt = corpus.utterances[index]
    from .fusion import FusionMode, forward

    cfg = checkpoint.config
    bundle = forward(utt, model, FusionMode(cfg.fusion_mode), cfg.loss_weights,
                     cfg.normalize_label_attention).attention
    paths = evalkit.export_attention(
        model,
        utt,
        corpus.planted_tokens[utt.label],
        corpus.planted_codes[utt.label],
        layout["plots"] / f"attention_{index}",
        bundle=bundle,
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_grad_check(resolved: dict) -> int:
    from .diffcore import run_op_grad_suite
    from .fusion import FusionMode, full_loss_grad_check

    _out_layout(resolved, "grad-check")
    tolerance = resolved["tolerance"]
    reports = run_op_grad_suite(probes_per_op=resolved["probes_per_op"], seed=resolved["seed"])
    reports += [full_loss_grad_check(mode, seed=resolved["seed"]) for mode in FusionMode]
    worst_ok = True
    for rep in reports:
        ok = rep.max_relative_error <= tolerance
        worst_ok = worst_ok and ok
        print(f"{rep.op_name}: max relative error {rep.max_relative_error:.3e} "
              f"over {rep.probe_count} probes [{'ok' if ok else 'FAIL'}]")
    return 0 if worst_ok else 1


SUBCOMMANDS = [
    Subcommand(
        "gen-corpus",
        "generate a synthetic paired corpus and write it to a file",
        CORPUS_KEYS + [
            ("n", int, 1000, "number of utterances"),
            ("corpus_file", str, None, "output corpus path (default <out-dir>/corpus.txt)"),
        ],
        _cmd_gen_corpus,
    ),
    Subcommand(
        "extract-labels",
        "write per-class tf-idf keyword tables for both modalities",
        [
            ("corpus_file", str, None, "corpus file to read"),
            ("top_k_text", int, 9, "keywords per class, text"),
            ("top_k_speech", int, 100, "key frames per class, speech"),
        ],
        _cmd_extract_labels,
        required=["corpus_file"],
    ),
    Subcommand(
        "train",
        "train a model on a stratified split of a corpus file",
        TRAIN_KEYS + SPLIT_KEYS + [
            ("corpus_file", str, None, "corpus file to read"),
            ("resume_from", str, None, "checkpoint to resume from"),
        ],
        _cmd_train,
        required=["corpus_file"],
    ),
    Subcommand(
        "evaluate",
        "evaluate a checkpoint on a corpus split",
        SPLIT_KEYS + [
            ("checkpoint", str, None, "checkpoint file"),
            ("corpus_file", str, None, "corpus file to read"),
            ("split", str, "heldout", "train | heldout | all"),
        ],
        _cmd_evaluate,
        required=["checkpoint", "corpus_file"],
    ),
    Subcommand(
        "ablate",
        "train and evaluate a named condition suite across seeds",
        CORPUS_KEYS + TRAIN_KEYS + SPLIT_KEYS + [
            ("suite", str, "fusion-modes", "fusion-modes | label-inits | guidance"),
            ("n", int, 400, "corpus size per seed"),
            ("seeds", _parse_int_list, [0, 1, 2, 3, 4], "comma-separated seeds"),
            JOBS_KEY,
        ],
        _cmd_ablate,
    ),
    Subcommand(
        "sweep-k",
        "sweep the top-k label description size for one modality",
        CORPUS_KEYS + TRAIN_KEYS + SPLIT_KEYS + [
            ("sweep_modality", str, "speech", "text | speech"),
            ("k_values", _parse_int_list, None,
             "comma-separated k values (default 3,6,9,15,30 text / 25,50,100,200 speech)"),
            ("n", int, 400, "corpus size per seed"),
            ("seeds", _parse_int_list, [0], "comma-separated seeds"),
            JOBS_KEY,
        ],
        _cmd_sweep_k,
    ),
    Subcommand(
        "score-fusion",
        "train both unimodal towers and evaluate summed-logit predictions",
        TRAIN_KEYS + SPLIT_KEYS + [
            ("corpus_file", str, None, "corpus file to read"),
        ],
        _cmd_score_fusion,
        required=["corpus_file"],
    ),
    Subcommand(
        "export-attention",
        "export class-averaged attention tables and an SVG plot",
        [
            ("checkpoint", str, None, "checkpoint file"),
            ("corpus_file", str, None, "corpus file to read"),
            ("index", int, 0, "utterance index within the corpus"),
        ],
        _cmd_export_attention,
        required=["checkpoint", "corpus_file"],
    ),
    Subcommand(
        "grad-check",
        "finite-difference check of every op and the full objective",
        [
            ("probes_per_op", int, 100, "random instances per op"),
            ("tolerance", float, 1e-4, "maximum relative error accepted"),
            ("seed", int, 0, "probe seed"),
        ],
        _cmd_grad_check,
    ),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelfuse",
        description="label-guided multimodal fusion on synthetic paired corpora",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for sub in SUBCOMMANDS:
        sub.register(subparsers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    sub: Subcommand = args._subcommand
    try:
        resolved = sub.resolve(args)
        return sub.handler(resolved)
    except UnknownKeyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LabelFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
