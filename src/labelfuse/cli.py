"""Command-line entry point.

Subcommands: gen-corpus, extract-labels, train, evaluate, ablate, sweep-k,
score-fusion, export-attention, grad-check.

Defaults live in the dataclasses: each `TrainConfig`/`CorpusSpec` field is
an option with the field's name (or metadata "key"), type, default and help;
a (min, max) range field is the two options <name>_min and <name>_max.
Option precedence is flags > config file (--config, JSON) > defaults; a
config file with a key the subcommand does not know is a usage error. Every
value, from a flag or the config file, passes the one type rule of
`valuetypes`, and the typed configs are built and validated before any work.
A rejected run writes nothing. A run with results creates the fixed
subdirectories of the output dir (config/, checkpoints/, logs/, reports/,
plots/), replaces its files atomically and, last, writes the resolved options
to <out-dir>/config/<subcommand>.json, which replays the run through --config.

Exit codes: 0 success, 1 validation or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import evalkit
from . import labelkit
from . import trainer
from .atomic import write_atomic
from .corpus import CorpusSpec
from .diffcore import run_op_grad_suite
from .errors import ConfigError, LabelFuseError
from .fusion import FusionMode, attention_maps, full_loss_grad_check
from .trainer import TrainConfig
from .valuetypes import check_value, field_types

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


# Flag text -> value, per option type; other types parse with the type itself.
FLAG_PARSERS = {bool: _parse_bool, list[int]: _parse_int_list}

_RANGE_ENDS = (("min", "minimum"), ("max", "maximum"))


def _field_options(cls):
    """Yield (field name, its options) per field of `cls`; option = (key, type, default, help)."""
    types = field_types(cls)
    for f in dataclasses.fields(cls):
        key, kind, help_text = f.metadata.get("key", f.name), types[f.name], f.metadata["help"]
        if typing.get_origin(kind) is tuple:
            yield f.name, [
                (f"{key}_{end}", part, bound, f"{word} {help_text}")
                for (end, word), part, bound in zip(_RANGE_ENDS, typing.get_args(kind), f.default)
            ]
        else:
            yield f.name, [(key, kind, f.default, help_text)]


def _options(cls) -> list:
    return [opt for _, opts in _field_options(cls) for opt in opts]


def _build(cls, resolved: dict):
    values = {}
    for name, opts in _field_options(cls):
        parts = tuple(resolved[key] for key, *_ in opts)
        values[name] = parts if len(parts) > 1 else parts[0]  # a range field takes (min, max)
    config = cls(**values)
    config.validate()
    return config


# Its default varies by machine; the reports do not depend on it.
JOBS_KEY = ("jobs", int, None, "processes running the (seed x condition) grid "
            "(default every usable core)")

SPLIT_KEYS = [
    ("train_fraction", float, 0.8, "per-class fraction assigned to the train side"),
    ("split_seed", int, 0, "seed of the stratified split"),
]
# evaluate and a resumed train read the split the checkpoint was trained on; a
# flag may only repeat it (`_resolve_split`).
RECORDED_SPLIT_KEYS = [
    (key, kind, None, f"{help_text} (default the checkpoint's, else {default})")
    for key, kind, default, help_text in SPLIT_KEYS
]

CORPUS_FILE_KEY = ("corpus_file", str, None, "corpus file to read")
CHECKPOINT_KEY = ("checkpoint", str, None, "checkpoint file")


class Subcommand:
    """One subcommand: its options, the typed configs it builds, and its handler.

    `configs` maps a handler keyword to a config dataclass; the options of
    its fields come before `keys`, and `resolve` hands the handler the
    built, validated instance under that keyword.
    """

    def __init__(self, name, help_text, handler, configs, keys, required=()):
        self.name = name
        self.help_text = help_text
        self.handler = handler
        self.configs = configs
        self.keys = [opt for cls in configs.values() for opt in _options(cls)] + keys
        self.required = tuple(required)

    def register(self, subparsers) -> None:
        parser = subparsers.add_parser(self.name, help=self.help_text)
        parser.add_argument("--config", help="JSON file with option keys")
        parser.add_argument("--out-dir", dest="out_dir", help="output directory root")
        for key, kind, default, help_text in self.keys:
            flag = "--" + key.replace("_", "-")
            if default is not None:
                help_text = f"{help_text} (default {default})"
            parser.add_argument(flag, dest=key, type=FLAG_PARSERS.get(kind, kind), default=None,
                                help=help_text)
        parser.set_defaults(_subcommand=self)

    def resolve(self, args: argparse.Namespace) -> tuple[dict, dict]:
        """The typed option values and the built configs, or a LabelFuseError."""
        table = {key: (kind, default) for key, kind, default, _ in self.keys}
        table["out_dir"] = (str, os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))
        resolved = {key: default for key, (_, default) in table.items()}
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
                if key not in table:
                    raise UnknownKeyError(f"unknown config key {key!r} for {self.name}")
                resolved[key] = value
        for key in table:
            value = getattr(args, key, None)
            if value is not None:
                resolved[key] = value
        for key, (kind, default) in table.items():
            if resolved[key] is not None or default is not None:  # None means unset
                resolved[key] = check_value(key, kind, resolved[key])
        for key in self.required:
            if resolved[key] is None:
                raise ConfigError(f"{self.name} requires --{key.replace('_', '-')}")
        root = Path(resolved["out_dir"])
        existing = next(p for p in (root, *root.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output dir {root}: {existing} is not a directory")
        return resolved, {arg: _build(cls, resolved) for arg, cls in self.configs.items()}


def _out_layout(resolved: dict) -> dict[str, Path]:
    """Create the output skeleton; a handler calls this once it has results to write."""
    root = Path(resolved["out_dir"])
    layout = {name: root / name for name in ("config", "checkpoints", "logs", "reports", "plots")}
    for path in layout.values():
        path.mkdir(parents=True, exist_ok=True)
    return layout


def _write_snapshot(resolved: dict, subcommand: str) -> None:
    """Written last, so a snapshot marks a finished run; --config replays it."""
    path = _out_layout(resolved)["config"] / f"{subcommand}.json"
    write_atomic(path, json.dumps({**resolved, "subcommand": subcommand}, sort_keys=True,
                                  indent=2) + "\n")


def _resolve_split(resolved: dict, recorded: dict | None) -> None:
    """Fill each unset split key from the split a checkpoint records, else its default.

    A given key that differs from the recorded one is a ConfigError.
    """
    recorded = recorded or {}
    for key, _, default, _ in SPLIT_KEYS:
        given = resolved[key]
        if key in recorded and given is not None and given != recorded[key]:
            raise ConfigError(
                f"{key} {given!r} differs from the {recorded[key]!r} the checkpoint was trained on"
            )
        resolved[key] = recorded.get(key, default) if given is None else given


def _load_split(resolved: dict):
    corpus = corpus_mod.load(resolved["corpus_file"])
    train_c, heldout_c = corpus_mod.split(
        corpus, resolved["train_fraction"], resolved["split_seed"]
    )
    return corpus, train_c, heldout_c


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_gen_corpus(resolved: dict, spec: CorpusSpec) -> int:
    corpus = corpus_mod.generate(spec, resolved["n"])
    _out_layout(resolved)
    target = resolved["corpus_file"] or str(Path(resolved["out_dir"]) / "corpus.txt")
    corpus_mod.save(corpus, target)
    print(f"wrote {len(corpus)} utterances to {target}")
    return 0


def _cmd_extract_labels(resolved: dict) -> int:
    corpus = corpus_mod.load(resolved["corpus_file"])
    ranked = {
        m: labelkit.tfidf_topk(labelkit.class_sequences(corpus, m), resolved[f"top_k_{m}"])
        for m in ("text", "speech")
    }
    reports = _out_layout(resolved)["reports"]
    for m, desc in ranked.items():
        write_atomic(reports / f"labels_{m}.csv", "\n".join(desc.to_lines()) + "\n")
    print(f"wrote {reports / 'labels_text.csv'} and {reports / 'labels_speech.csv'}")
    return 0


def _cmd_train(resolved: dict, config: TrainConfig) -> int:
    resume = None
    if resolved["resume_from"]:
        resume = trainer.load_checkpoint(resolved["resume_from"])
    _resolve_split(resolved, resume.split if resume else None)
    _, train_c, heldout_c = _load_split(resolved)
    _, log, checkpoint = trainer.train(train_c, heldout_c, config, resume_from=resume)
    checkpoint.split = {key: resolved[key] for key in trainer.SPLIT_FIELDS}
    layout = _out_layout(resolved)
    ckpt_path = layout["checkpoints"] / "model.ckpt"
    trainer.save_checkpoint(ckpt_path, checkpoint)
    write_atomic(layout["logs"] / "train_log.csv", "\n".join(log.to_lines()) + "\n")
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
    checkpoint = trainer.load_checkpoint(resolved["checkpoint"])
    _resolve_split(resolved, checkpoint.split)
    model = trainer.model_from_checkpoint(checkpoint)
    corpus, train_c, heldout_c = _load_split(resolved)
    trainer.check_fit(model, corpus, checkpoint.config)
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
    write_atomic(_out_layout(resolved)["reports"] / "evaluation.csv", "\n".join(lines) + "\n")
    print(f"WA {result.weighted_accuracy:.4f} UA {result.unweighted_accuracy:.4f} "
          f"on {result.sample_count} utterances ({resolved['split']})")
    return 0


SUITES = {
    "fusion-modes": evalkit.fusion_mode_conditions,
    "label-inits": evalkit.label_init_conditions,
    "guidance": evalkit.guidance_conditions,
}


def _cmd_ablate(resolved: dict, spec: CorpusSpec, config: TrainConfig) -> int:
    if resolved["suite"] not in SUITES:
        raise ConfigError(f"unknown ablation suite {resolved['suite']!r}")
    conditions = SUITES[resolved["suite"]](config)
    report = evalkit.run_ablation(
        conditions, spec, resolved["n"], resolved["train_fraction"], resolved["seeds"],
        resolved["jobs"],
    )
    path = _out_layout(resolved)["reports"] / f"ablation_{resolved['suite']}.csv"
    write_atomic(path, "\n".join(report.to_lines()) + "\n")
    for cond in report.conditions:
        print(
            f"{cond.name}: mean WA {evalkit.format_mean(cond.mean_wa, '.4f')} "
            f"UA {evalkit.format_mean(cond.mean_ua, '.4f')}"
        )
    print(f"wrote {path}")
    return 0


DEFAULT_K_GRID = {"text": [3, 6, 9, 15, 30], "speech": [25, 50, 100, 200]}


def _cmd_sweep_k(resolved: dict, spec: CorpusSpec, config: TrainConfig) -> int:
    if resolved["k_values"] is None:
        resolved["k_values"] = DEFAULT_K_GRID.get(resolved["sweep_modality"])
        if resolved["k_values"] is None:
            raise ConfigError(
                f"sweep modality must be 'text' or 'speech', got {resolved['sweep_modality']!r}"
            )
    points = evalkit.sweep_k(
        resolved["k_values"], resolved["sweep_modality"], config, spec, resolved["n"],
        resolved["train_fraction"], resolved["seeds"], resolved["jobs"],
    )
    path = _out_layout(resolved)["reports"] / f"sweep_{resolved['sweep_modality']}.csv"
    write_atomic(path, "\n".join(evalkit.sweep_to_lines(points)) + "\n")
    for p in points:
        print(
            f"k={p.k}: mean WA {evalkit.format_mean(p.mean_wa, '.4f')} "
            f"UA {evalkit.format_mean(p.mean_ua, '.4f')}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_score_fusion(resolved: dict, config: TrainConfig) -> int:
    if config.epochs < 1:  # each tower's row is its last epoch's heldout evaluation
        raise ConfigError(f"score-fusion needs epochs >= 1, got {config.epochs}")
    _, train_c, heldout_c = _load_split(resolved)
    text_model, text_log, _ = trainer.train(train_c, heldout_c, replace(config, modality="text"))
    speech_model, speech_log, _ = trainer.train(
        train_c, heldout_c, replace(config, modality="speech")
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
    path = _out_layout(resolved)["reports"] / "score_fusion.csv"
    write_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_export_attention(resolved: dict) -> int:
    checkpoint = trainer.load_checkpoint(resolved["checkpoint"])
    if checkpoint.config.modality != "multimodal":
        # A tower run never trains fusion.cross_map, so its maps would be the initial weights'.
        raise ConfigError(
            f"export-attention needs a multimodal checkpoint, got modality "
            f"{checkpoint.config.modality!r}"
        )
    model = trainer.model_from_checkpoint(checkpoint)
    corpus = corpus_mod.load(resolved["corpus_file"])
    trainer.check_fit(model, corpus, checkpoint.config)
    index = resolved["index"]
    if not 0 <= index < len(corpus):
        raise ConfigError(f"utterance index {index} outside corpus of size {len(corpus)}")
    utt = corpus.utterances[index]
    cfg = checkpoint.config
    (bundle,) = attention_maps([utt], model, FusionMode(cfg.fusion_mode),
                               cfg.normalize_label_attention)
    prefix = _out_layout(resolved)["plots"] / f"attention_{index}"
    paths = evalkit.export_attention(bundle, utt, corpus.planted_tokens[utt.label],
                                     corpus.planted_codes[utt.label], prefix)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_grad_check(resolved: dict) -> int:
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
        _cmd_gen_corpus, {"spec": CorpusSpec},
        [
            ("n", int, 1000, "number of utterances"),
            ("corpus_file", str, None, "output corpus path (default <out-dir>/corpus.txt)"),
        ],
    ),
    Subcommand(
        "extract-labels",
        "write per-class tf-idf keyword tables for both modalities",
        _cmd_extract_labels, {},
        [CORPUS_FILE_KEY, *(o for o in _options(TrainConfig) if o[0].startswith("top_k_"))],
        required=["corpus_file"],
    ),
    Subcommand(
        "train",
        "train a model on a stratified split of a corpus file",
        _cmd_train, {"config": TrainConfig},
        RECORDED_SPLIT_KEYS + [CORPUS_FILE_KEY,
                               ("resume_from", str, None, "checkpoint to resume from")],
        required=["corpus_file"],
    ),
    Subcommand(
        "evaluate",
        "evaluate a checkpoint on a corpus split",
        _cmd_evaluate, {},
        RECORDED_SPLIT_KEYS + [CHECKPOINT_KEY, CORPUS_FILE_KEY,
                               ("split", str, "heldout", "train | heldout | all")],
        required=["checkpoint", "corpus_file"],
    ),
    Subcommand(
        "ablate",
        "train and evaluate a named condition suite across seeds",
        _cmd_ablate, {"spec": CorpusSpec, "config": TrainConfig},
        SPLIT_KEYS + [
            ("suite", str, "fusion-modes", "fusion-modes | label-inits | guidance"),
            ("n", int, 400, "corpus size per seed"),
            ("seeds", list[int], [0, 1, 2, 3, 4], "comma-separated seeds"),
            JOBS_KEY,
        ],
    ),
    Subcommand(
        "sweep-k",
        "sweep the top-k label description size for one modality",
        _cmd_sweep_k, {"spec": CorpusSpec, "config": TrainConfig},
        SPLIT_KEYS + [
            ("sweep_modality", str, "speech", "text | speech"),
            ("k_values", list[int], None,
             "comma-separated k values (default 3,6,9,15,30 text / 25,50,100,200 speech)"),
            ("n", int, 400, "corpus size per seed"),
            ("seeds", list[int], [0], "comma-separated seeds"),
            JOBS_KEY,
        ],
    ),
    Subcommand(
        "score-fusion",
        "train both unimodal towers and evaluate summed-logit predictions",
        _cmd_score_fusion, {"config": TrainConfig},
        SPLIT_KEYS + [CORPUS_FILE_KEY],
        required=["corpus_file"],
    ),
    Subcommand(
        "export-attention",
        "export class-averaged attention tables and an SVG plot",
        _cmd_export_attention, {},
        [CHECKPOINT_KEY, CORPUS_FILE_KEY, ("index", int, 0, "utterance index within the corpus")],
        required=["checkpoint", "corpus_file"],
    ),
    Subcommand(
        "grad-check",
        "finite-difference check of every op and the full objective",
        _cmd_grad_check, {},
        [
            ("probes_per_op", int, 100, "random instances per op"),
            ("tolerance", float, 1e-4, "maximum relative error accepted"),
            ("seed", int, 0, "probe seed"),
        ],
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
        resolved, configs = sub.resolve(args)
        status = sub.handler(resolved, **configs)
        _write_snapshot(resolved, sub.name)
        return status
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
