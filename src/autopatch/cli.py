"""Command-line entry point: `autopatch ingest|index|optimize|eval`.

Exit codes: 0 on success (even when records failed: each is printed to
stderr once), 2 on usage or I/O errors, 3 when evaluation finds no program
executable under every compared mode.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from pathlib import Path

from .corpus import load_split
from .errors import AutopatchError
from .harness import DEFAULT_REPS, DEFAULT_TIMEOUT_S, RunStatus
from .pipeline import run_eval, run_index, run_ingest, run_optimize
from .prompting import LLM_BASE_ENV, Cassette, LlmClient, LlmConfig, PromptMode
from .retrieval import EMBED_BASE_ENV, LocalHashingProvider, RemoteEmbeddingProvider

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_COMMON_SET = 3

_MODE_NAMES = {
    "zero-shot": PromptMode.ZERO_SHOT,
    "naive": PromptMode.NAIVE,
    "context": PromptMode.CONTEXT,
}


def _parse_modes(raw: str) -> tuple[PromptMode, ...]:
    modes = []
    for name in raw.split(","):
        name = name.strip()
        if name not in _MODE_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown mode {name!r} (choose from {', '.join(_MODE_NAMES)})"
            )
        if _MODE_NAMES[name] in modes:  # its patches would be sent, written and timed twice
            raise argparse.ArgumentTypeError(f"mode {name!r} given twice")
        modes.append(_MODE_NAMES[name])
    return tuple(modes)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _positive_seconds(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number of seconds, not {raw}")
    return value


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=("remote", "local"), default="local",
                        help="embedding provider (default: local deterministic hashing)")
    parser.add_argument("--cassette", type=Path, help="request/response cassette file")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--record", action="store_true", help="call the live service and record")
    group.add_argument("--replay", action="store_true", help="replay from the cassette, offline")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: an argparse parser is a web of
    reference cycles, which every rebuild would leave to the cyclic
    collector. Parsing does not change it."""
    parser = argparse.ArgumentParser(prog="autopatch")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate the corpus and write the split manifest")
    ingest.add_argument("--corpus", type=Path, required=True)
    ingest.add_argument("--db-count", type=int, default=1000)
    ingest.add_argument("--seed", type=int, default=7)
    ingest.add_argument("--out", type=Path, required=True)
    ingest.add_argument("--strict", action="store_true",
                        help="abort on the first malformed record instead of skip-and-log")

    index = sub.add_parser("index", help="build the vector index over the database split")
    index.add_argument("--corpus", type=Path, required=True)
    index.add_argument("--split", type=Path, required=True, help="split manifest from ingest")
    index.add_argument("--out", type=Path, required=True)
    index.add_argument("--no-resume", action="store_true", help="ignore an existing journal")
    _add_service_args(index)

    optimize = sub.add_parser("optimize", help="generate patches for the test split")
    optimize.add_argument("--corpus", type=Path, required=True)
    optimize.add_argument("--split", type=Path, required=True)
    optimize.add_argument("--index", type=Path, required=True, help="index directory")
    optimize.add_argument("--mode", type=_parse_modes, default=tuple(_MODE_NAMES.values()),
                          help="comma-separated: zero-shot,naive,context")
    optimize.add_argument("--out", type=Path, required=True)
    _add_service_args(optimize)

    evaluate = sub.add_parser("eval", help="score, compile, and time generated patches")
    evaluate.add_argument("--corpus", type=Path, required=True)
    evaluate.add_argument("--split", type=Path, required=True)
    evaluate.add_argument("--patches", type=Path, required=True)
    evaluate.add_argument("--mode", type=_parse_modes, default=tuple(_MODE_NAMES.values()))
    evaluate.add_argument("--reps", type=_positive_int, default=DEFAULT_REPS)
    evaluate.add_argument("--timeout", type=_positive_seconds, default=DEFAULT_TIMEOUT_S)
    evaluate.add_argument("--out", type=Path, required=True)

    return parser


def _build_llm(args: argparse.Namespace, parser: argparse.ArgumentParser) -> LlmClient:
    mode = "replay" if args.replay else "record" if args.record else "live"
    if mode == "replay" and os.environ.get(LLM_BASE_ENV):
        parser.error(f"--replay is offline; unset {LLM_BASE_ENV} to proceed")
    if mode == "live" and args.cassette is not None:  # a live run neither reads nor writes it
        parser.error("--cassette needs --record or --replay")
    if mode != "live" and args.cassette is None:
        parser.error(f"--{mode} requires --cassette")
    cassette = None if args.cassette is None else Cassette(args.cassette)
    return LlmClient(config=LlmConfig.from_env(), cassette=cassette, mode=mode)


def _build_provider(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if args.provider == "remote":
        if args.replay:
            parser.error(f"--replay is offline; use --provider local (not {EMBED_BASE_ENV})")
        return RemoteEmbeddingProvider.from_env()
    return LocalHashingProvider()


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "ingest":
            result = run_ingest(args.corpus, args.db_count, args.seed, args.out,
                                strict=args.strict)
            stats = result.corpus.stats
            print(f"ingested {len(result.corpus.pairs)} pair(s); "
                  f"{len(stats.errors)} bad line(s); "
                  f"split {len(result.split.database_set)}/{len(result.split.test_set)}")
            for label, count in sorted(stats.label_histogram.items(), key=lambda kv: kv[0].value):
                print(f"  {label.value}: {count}")
            for line_no, reason in stats.errors:
                print(f"  skipped line {line_no}: {reason}", file=sys.stderr)
            print(f"manifest: {result.manifest_path}")
            return EXIT_OK

        corpus, split = load_split(args.corpus, args.split)

        if args.command == "index":
            llm = _build_llm(args, parser)
            provider = _build_provider(args, parser)
            result = run_index(corpus, split, args.out, provider, llm,
                               resume=not args.no_resume)
            print(f"indexed {result.indexed_count} record(s); "
                  f"skipped {len(result.skipped)}")
            for entry in result.skipped:
                print(f"  skipped {entry['record_id']}: {entry['reason']}", file=sys.stderr)
            for kind, path in result.built.items():
                print(f"  {kind.value}: {path}")
            return EXIT_OK

        if args.command == "optimize":
            llm = _build_llm(args, parser)
            provider = _build_provider(args, parser)
            result = run_optimize(corpus, split, args.index, args.out, args.mode,
                                  llm, provider)
            total = sum(len(ids) for ids in result.written.values())
            print(f"wrote {total} patch(es); {len(result.failures)} failure(s)")
            for failure in result.failures:
                print(f"  failed {failure['mode']}/{failure['record_id']}: "
                      f"{failure['reason']}", file=sys.stderr)
            return EXIT_OK

        if args.command == "eval":
            result = run_eval(corpus, split, args.patches, args.out, args.mode,
                              args.reps, args.timeout,
                              parameters={"patches": str(args.patches)})
            print(result.report.render_text())
            print(f"report: {result.report_json_path}")
            for each in result.results:
                if each.outcome.status is not RunStatus.OK:
                    print(f"  {each.outcome.status.value} {each.mode}/{each.target_id}: "
                          f"{each.outcome.detail}", file=sys.stderr)
            for failure in result.failures:
                print(f"  not scored {failure['mode']}/{failure['record_id']}: "
                      f"{failure['reason']}", file=sys.stderr)
            if not result.report.common_executable_ids:
                print("no common executable set across modes", file=sys.stderr)
                return EXIT_NO_COMMON_SET
            return EXIT_OK

    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, AutopatchError) as exc:  # OSError: any other I/O error, naming its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    raise AssertionError(f"unhandled command {args.command!r}")


def entrypoint() -> None:
    raise SystemExit(main())
