from __future__ import annotations

import copy
import gc
import json
import random
import re
import sys
import threading
import tracemalloc
import weakref
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopatch import _io
from autopatch.cfg_diff import compute_diff, render_diff
from autopatch.corpus import CodePair, Corpus, CorpusSplit
from autopatch.errors import AutopatchError
from autopatch.prompting import (
    Cassette,
    LlmClient,
    LlmConfig,
    build_prompt,
    extract_code_block,
    generate_patch,
    generate_rationale,
    request_hash,
    EMPTY_DIFF_RATIONALE,
    OPTIMIZER_SYSTEM_TEXT,
)
from autopatch.pipeline import run_index
from autopatch.retrieval import (
    LocalHashingProvider,
    RemoteEmbeddingProvider,
    SourceKind,
    VectorIndex,
    save_index,
)

from helpers import fixture_pairs, make_scripted_transport, random_cfg


def _pair(record_id="t1", original="int main(){return 1;}", optimized="int main(){return 2;}"):
    return CodePair(
        id=record_id,
        problem_id="p",
        original_code=original,
        optimized_code=optimized,
        labels=frozenset(),
        testcases=(),
    )


TARGET = _pair()
EXAMPLE = _pair("e1", "int main(){return 3;}", "int main(){return 4;}")
DIFF_TEXT = "\u0394S: none\n\u0394F: none\n\u0394C:\n  block B1 -> B1:\n    replace: a -> b\n"

TARGET_HEADINGS = ["## Target program"]
EXAMPLE_HEADINGS = ["## Reference example: original", "## Reference example: optimized"]
CONTEXT_HEADINGS = [
    "## Control-flow changes in the reference example",
    "## Why the reference optimization works",
]
TASK_HEADINGS = ["## Task"]
ALL_HEADINGS = TARGET_HEADINGS + EXAMPLE_HEADINGS + CONTEXT_HEADINGS + TASK_HEADINGS


def _headings(text: str) -> list[str]:
    """The section headings of a prompt's user text, in order."""
    return [line for line in text.split("\n") if line in ALL_HEADINGS]


# --- build_prompt ------------------------------------------------------------------


def test_context_prompt_contains_all_sections():
    text = build_prompt(TARGET, EXAMPLE, (DIFF_TEXT, "cuts a loop"))
    for marker in ("\u0394S", "\u0394F", "\u0394C"):
        assert marker in text
    assert "## Why the reference optimization works" in text
    assert text.count("## Reference example: original") == 1
    assert text.count("## Reference example: optimized") == 1
    assert EXAMPLE.original_code in text
    assert EXAMPLE.optimized_code in text


def test_zero_shot_prompt_is_target_only():
    text = build_prompt(TARGET)
    assert TARGET.original_code in text
    assert "Reference example" not in text
    assert "\u0394S" not in text
    assert _headings(text) == TARGET_HEADINGS + TASK_HEADINGS


def test_modes_share_prompt_skeleton():
    texts = [
        build_prompt(TARGET),
        build_prompt(TARGET, EXAMPLE),
        build_prompt(TARGET, EXAMPLE, (DIFF_TEXT, "r")),
    ]
    for text in texts:
        assert text.startswith("## Target program")
        assert text.rstrip().endswith("Produce an optimized version of the target program.")


def test_prompt_deterministic():
    first = build_prompt(TARGET, EXAMPLE, (DIFF_TEXT, "r"))
    second = build_prompt(TARGET, EXAMPLE, (DIFF_TEXT, "r"))
    assert first.encode() == second.encode()


_codes = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\x00"), min_size=1, max_size=60
)


@settings(max_examples=80, deadline=None)
@given(
    sections=st.sampled_from(["target", "example", "context"]),
    target_code=_codes,
    example_code=_codes,
    rationale=_codes,
)
def test_prompt_invariants_over_random_valid_inputs(sections, target_code, example_code,
                                                    rationale):
    target = _pair("t", target_code, target_code + ";")
    example = _pair("e", example_code, example_code + ";")
    if sections == "target":
        assert _headings(build_prompt(target)) == TARGET_HEADINGS + TASK_HEADINGS
    elif sections == "example":
        text = build_prompt(target, example)
        assert _headings(text) == TARGET_HEADINGS + EXAMPLE_HEADINGS + TASK_HEADINGS
    else:
        text = build_prompt(target, example, (DIFF_TEXT, rationale))
        assert _headings(text) == ALL_HEADINGS
        assert DIFF_TEXT.rstrip() in text
        assert rationale.rstrip() in text


# --- code block extraction -----------------------------------------------------------


def test_extract_first_fenced_block():
    text = "prose\n```cpp\nint main(){}\n```\nmore\n```\nsecond block\n```\n"
    assert extract_code_block(text) == "int main(){}\n"


def test_extract_no_block_raises():
    with pytest.raises(AutopatchError, match="^response contains no fenced code block$"):
        extract_code_block("no fences here")


def test_extract_empty_block_raises():
    with pytest.raises(AutopatchError, match="^first fenced code block is empty$"):
        extract_code_block("```\n\n```")


# --- client record/replay -------------------------------------------------------------


def _canned_transport(content="```cpp\nint main(){return 9;}\n```"):
    calls = []

    def transport(request):
        calls.append(request)
        return {"choices": [{"message": {"content": content}}]}

    transport.calls = calls
    return transport


def test_live_request_shape(tmp_path):
    transport = _canned_transport()
    client = LlmClient(LlmConfig(model="m"), cassette=None, mode="live", transport=transport)
    client.complete("sys", "user")
    (request,) = transport.calls
    assert request == {
        "model": "m",
        "messages": [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user"},
        ],
        "temperature": 0.0,
    }


def test_record_then_replay_byte_identical(tmp_path):
    cassette_path = tmp_path / "cassette.json"
    transport = _canned_transport()
    recorder = LlmClient(
        LlmConfig(model="m"), Cassette(cassette_path), mode="record", transport=transport
    )
    recorded = recorder.complete("sys", "user")

    def exploding_transport(request):
        raise AssertionError("replay must not touch the transport")

    replayer = LlmClient(
        LlmConfig(model="m"), Cassette(cassette_path), mode="replay", transport=exploding_transport
    )
    replayed = replayer.complete("sys", "user")
    assert replayed.encode() == recorded.encode()
    assert len(transport.calls) == 1


def test_replay_miss(tmp_path):
    cassette = Cassette(tmp_path / "cassette.json")
    client = LlmClient(LlmConfig(model="m"), cassette, mode="replay")
    key = request_hash("m", "sys", "never recorded")
    with pytest.raises(AutopatchError, match=f"^no cassette entry for request {key}$"):
        client.complete("sys", "never recorded")


def test_client_is_freed_without_a_collector_pass(tmp_path):
    # A client must not reference itself: the cassette it holds (every
    # recorded exchange) is then freed as soon as the client is dropped.
    for transport in (None, _canned_transport()):
        client = LlmClient(LlmConfig(model="m"), Cassette(tmp_path / "c.jsonl"), mode="record",
                           transport=transport)
        freed = weakref.ref(client.cassette)
        gc.disable()
        try:
            del client
            assert freed() is None
        finally:
            gc.enable()


def test_cassette_file_format(tmp_path):
    cassette_path = tmp_path / "cassette.json"
    client = LlmClient(
        LlmConfig(model="m"), Cassette(cassette_path), mode="record",
        transport=_canned_transport(),
    )
    client.complete("sys", "user")
    client.complete("sys", "other user")
    lines = cassette_path.read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["key"] for e in entries] == [
        request_hash("m", "sys", "user"),
        request_hash("m", "sys", "other user"),
    ]
    for entry in entries:
        assert set(entry) == {"key", "request", "response", "timestamp"}


def _entry_line(key: str, content: str) -> str:
    return json.dumps({
        "key": key,
        "request": {"model": "m"},
        "response": {"choices": [{"message": {"content": content}}]},
        "timestamp": "2000-01-01T00:00:00Z",
    }) + "\n"


def _content(cassette: Cassette, key: str) -> str:
    return cassette.lookup(key)["response"]["choices"][0]["message"]["content"]


def test_cassette_last_line_for_a_key_wins(tmp_path):
    path = tmp_path / "cassette.jsonl"
    path.write_text(_entry_line("a", "old") + _entry_line("b", "b") + _entry_line("a", "new"))
    cassette = Cassette(path)
    assert _content(cassette, "a") == "new" and _content(cassette, "b") == "b"
    cassette.store("a", {"model": "m"}, {"choices": [{"message": {"content": "newest"}}]})
    assert _content(Cassette(path), "a") == "newest"


def test_cassette_legacy_map_is_read_and_converted_once(tmp_path):
    path = tmp_path / "cassette.json"
    legacy = {key: json.loads(_entry_line(key, key)) for key in ("k1", "k2")}
    for entry in legacy.values():
        del entry["key"]
    path.write_text(json.dumps(legacy, indent=1), encoding="utf-8")

    cassette = Cassette(path)
    assert _content(cassette, "k1") == "k1"
    cassette.store("k3", {"model": "m"}, {"choices": [{"message": {"content": "k3"}}]})
    keys = [json.loads(line)["key"] for line in path.read_text().splitlines()]
    assert keys == ["k1", "k2", "k3"]

    converted = path.read_bytes()
    cassette.store("k4", {"model": "m"}, {"choices": [{"message": {"content": "k4"}}]})
    assert path.read_bytes().startswith(converted)  # later stores only append
    reloaded = Cassette(path)
    assert [_content(reloaded, k) for k in ("k1", "k2", "k3", "k4")] == ["k1", "k2", "k3", "k4"]


def test_loading_a_json_lines_cassette_holds_no_whole_file_text(tmp_path):
    # About 1.5 MB of recorded chat exchanges, a few with non-ASCII text. A
    # probe that decoded the whole file as one document, to tell the older
    # map layout apart, held its text at once: a peak of 4 times the file.
    rng = random.Random(3)
    path = tmp_path / "cassette.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for i in range(250):
            program = "".join(f"  for (int i{j} = 0; i{j} < n; ++i{j}) s += {rng.randrange(99)};\n"
                              for j in range(60))
            note = " Δ" if i % 50 == 0 else ""
            handle.write(json.dumps({
                "key": f"{i:064x}",
                "request": {"model": "m", "messages": [
                    {"role": "system", "content": OPTIMIZER_SYSTEM_TEXT},
                    {"role": "user", "content": f"```cpp\nint main() {{\n{program}}}\n```{note}"}],
                    "temperature": 0.0},
                "response": {"choices": [{"message": {"content": f"```cpp\n{program}```"}}]},
                "timestamp": "2000-01-01T00:00:00Z",
            }, ensure_ascii=False) + "\n")
    size = path.stat().st_size
    assert size > 1_000_000
    tracemalloc.start()
    try:
        cassette = Cassette(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cassette.lookup(f"{249:064x}") is not None
    assert peak <= 2 * size, (peak, size)


def test_cassette_torn_final_line_is_dropped_then_rewritten(tmp_path, caplog):
    path = tmp_path / "cassette.jsonl"
    whole = _entry_line("a", "a")
    torn = whole + _entry_line("b", "b")[:25]
    path.write_text(torn, encoding="utf-8")

    with caplog.at_level("WARNING", logger="autopatch.prompting"):
        cassette = Cassette(path)
    assert "torn" in caplog.text
    assert _content(cassette, "a") == "a" and cassette.lookup("b") is None
    assert path.read_text(encoding="utf-8") == torn  # loading never writes

    cassette.store("c", {"model": "m"}, {"choices": [{"message": {"content": "c"}}]})
    text = path.read_text(encoding="utf-8")
    assert text.startswith(whole)
    assert [json.loads(line)["key"] for line in text.splitlines()] == ["a", "c"]
    assert not path.with_suffix(".jsonl.tmp").exists()

    cassette.store("d", {"model": "m"}, {"choices": [{"message": {"content": "d"}}]})
    assert path.read_text(encoding="utf-8").startswith(text)  # later stores only append


def test_cassette_garbage_line_raises(tmp_path):
    path = tmp_path / "cassette.jsonl"
    path.write_text(_entry_line("a", "a") + "not json\n" + _entry_line("b", "b"))
    corrupt = f"^{re.escape(str(path))}: line 2 is not a cassette entry$"
    with pytest.raises(AutopatchError, match=corrupt):
        Cassette(path)
    path.write_text(_entry_line("a", "a") + '{"no": "key"}\n' + _entry_line("b", "b"))
    with pytest.raises(AutopatchError, match=corrupt):
        Cassette(path)


def test_cassette_entry_that_is_not_valid_unicode_raises(tmp_path):
    # JSON can escape a lone surrogate, which the rewrite's UTF-8 cannot hold.
    path = tmp_path / "cassette.jsonl"
    path.write_text(_entry_line("a", "a") + _entry_line("b", "\ud800") + _entry_line("c", "c")[:25])
    with pytest.raises(AutopatchError, match=f"^{re.escape(str(path))}: line 2 is not a cassette entry$"):
        Cassette(path)

    legacy = tmp_path / "cassette.json"
    entries = {key: json.loads(_entry_line(key, content)) for key, content in (("a", "a"), ("b", "\ud800"))}
    legacy.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(AutopatchError, match=f"^{re.escape(str(legacy))}: map entry 2 is not a cassette entry$"):
        Cassette(legacy)


def _refuse_rename(self, target):
    raise OSError(28, "No space left on device")


# Writers that replace files whole as the cassette's rewrite does: each case
# names the files it replaces and how to rewrite them in a directory.
_OTHER_REWRITES = {
    "journal rename fails": (["index_journal.jsonl"], lambda out: run_index(
        Corpus((), (), None), CorpusSplit((), ()), out, LocalHashingProvider(),
        LlmClient(LlmConfig(), cassette=None, mode="live"), resume=False)),
    "save_index rename fails": (["index.jsonl", "index.jsonl.vec"], lambda out: save_index(
        VectorIndex(("r1",), np.ones((1, 4), np.float32), [("diff", "why")], SourceKind.RAW_SOURCE),
        out / "index.jsonl")),
    "_write_json rename fails": (["report.json"], lambda out: _io.write_json(
        out / "report.json", {"ok": True})),
}


@pytest.mark.parametrize("failure", ["unencodable entry", "rename fails", *_OTHER_REWRITES])
def test_cassette_rewrite_that_fails_leaves_the_file_as_it_was(tmp_path, monkeypatch, failure):
    if failure in _OTHER_REWRITES:
        names, rewrite = _OTHER_REWRITES[failure]
        previous = {name: f"previous {name}\n".encode() for name in names}
        for name, data in previous.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.setattr(Path, "replace", _refuse_rename)
        with pytest.raises(OSError, match="No space left on device"):
            rewrite(tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == previous
        return

    path = tmp_path / "cassette.jsonl"
    torn = _entry_line("a", "a") + _entry_line("b", "b")[:25]
    path.write_text(torn, encoding="utf-8")
    cassette = Cassette(path)
    content = "c"
    if failure == "unencodable entry":
        content = "\ud800"
        expected = pytest.raises(AutopatchError, match="^cassette entry for request c is not valid Unicode$")
    else:
        monkeypatch.setattr(type(path), "replace", _refuse_rename)
        expected = pytest.raises(OSError)

    with expected:
        cassette.store("c", {"model": "m"}, {"choices": [{"message": {"content": content}}]})
    assert path.read_text(encoding="utf-8") == torn
    assert not path.with_suffix(".jsonl.tmp").exists()
    assert cassette.lookup("c") is None

    monkeypatch.undo()
    cassette.store("d", {"model": "m"}, {"choices": [{"message": {"content": "d"}}]})
    assert [json.loads(line)["key"] for line in path.read_text(encoding="utf-8").splitlines()] == ["a", "d"]


def test_cassette_concurrent_stores_lose_nothing(tmp_path):
    path = tmp_path / "cassette.jsonl"
    cassette = Cassette(path)

    def store_many(worker: int) -> None:
        for i in range(50):
            cassette.store(f"{worker}-{i}", {"model": "m"},
                           {"choices": [{"message": {"content": str(i)}}]})

    threads = [threading.Thread(target=store_many, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 400
    reloaded = Cassette(path)
    assert all(_content(reloaded, f"{w}-{i}") == str(i) for w in range(8) for i in range(50))


def test_malformed_service_response_raises():
    bodies = (
        {"nope": 1},
        {"choices": []},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": ["int main() {}"]}}]},
    )
    for body in bodies:
        client = LlmClient(LlmConfig(model="m"), cassette=None, mode="live",
                           transport=lambda request: body)
        with pytest.raises(AutopatchError, match="^service returned 0: malformed chat response: "):
            client.complete("sys", "user")


@contextmanager
def _chat_service(body: bytes, authorizations: list | None = None, length: int | None = None):
    """A chat service on localhost that answers every POST with `body`,
    declared `length` bytes long (by default its true length), and appends
    each request's Authorization header (or None) to `authorizations`."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            if authorizations is not None:
                authorizations.append(self.headers.get("Authorization"))
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body) if length is None else length))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/chat"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.mark.parametrize("body", [b"<html>busy</html>", b"\xff\xfe"])
def test_live_client_non_json_body_is_service_error(monkeypatch, body):
    monkeypatch.setenv("no_proxy", "*")
    with _chat_service(body) as url:
        client = LlmClient(LlmConfig(base_url=url, model="m"), cassette=None, mode="live")
        with pytest.raises(AutopatchError, match="^service returned 200: response is not JSON: "):
            client.complete("sys", "user")


def test_reply_cut_short_is_service_error(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    body = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
    cut_short = r"^service returned 0: service unreachable: IncompleteRead\(\d+ bytes read, 10 more expected\)$"
    with _chat_service(body, length=len(body) + 10) as url:
        client = LlmClient(LlmConfig(base_url=url, model="m"), cassette=None, mode="live")
        with pytest.raises(AutopatchError, match=cut_short):
            client.complete("sys", "user")
        with pytest.raises(AutopatchError, match=cut_short):
            RemoteEmbeddingProvider(url, api_key="").embed("x")


def test_url_without_a_scheme_is_service_error():
    # urllib rejects such a URL with ValueError before it opens any connection.
    client = LlmClient(LlmConfig(base_url="chat.invalid/v1"), cassette=None, mode="live")
    with pytest.raises(AutopatchError, match=(
        r"^service returned 0: service unreachable: unknown url type: 'chat\.invalid/v1'$"
    )):
        client.complete("sys", "user")
    with pytest.raises(AutopatchError, match=(
        r"^service returned 0: service unreachable: unknown url type: 'embed\.invalid'$"
    )):
        RemoteEmbeddingProvider("embed.invalid", api_key="").embed("x")


def test_live_client_sends_bearer_header_only_with_a_key(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    body = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
    authorizations = []
    with _chat_service(body, authorizations) as url:
        for api_key in ("secret", ""):
            client = LlmClient(LlmConfig(base_url=url, api_key=api_key, model="m"),
                               cassette=None, mode="live")
            assert client.complete("sys", "user") == "ok"
    assert authorizations == ["Bearer secret", None]


def test_live_client_unreachable_service_is_service_error(monkeypatch):
    def refuse(request, timeout):
        raise ConnectionRefusedError(111, "Connection refused")

    monkeypatch.setattr("urllib.request.urlopen", refuse)
    client = LlmClient(LlmConfig(base_url="http://chat.invalid/v1", model="m"),
                       cassette=None, mode="live")
    with pytest.raises(AutopatchError, match=r"^service returned 0: service unreachable: \[Errno 111\] ") as excinfo:
        client.complete("sys", "user")
    assert isinstance(excinfo.value.__cause__, ConnectionRefusedError)


def test_request_hash_depends_on_all_parts():
    base = request_hash("m", "s", "u")
    assert request_hash("m", "s", "u") == base
    assert request_hash("m2", "s", "u") != base
    assert request_hash("m", "s2", "u") != base
    assert request_hash("m", "s", "u2") != base


# --- generate_patch / generate_rationale -----------------------------------------------


def test_generate_patch_extracts_code():
    transport = _canned_transport()
    client = LlmClient(LlmConfig(model="m"), cassette=None, mode="live", transport=transport)
    assert generate_patch(build_prompt(TARGET), client) == "int main(){return 9;}\n"
    (request,) = transport.calls
    assert request["messages"] == [{"role": "system", "content": OPTIMIZER_SYSTEM_TEXT},
                                   {"role": "user", "content": build_prompt(TARGET)}]


def test_generate_patch_without_block_is_error():
    client = LlmClient(
        LlmConfig(model="m"), cassette=None, mode="live",
        transport=lambda request: {"choices": [{"message": {"content": "no code"}}]},
    )
    with pytest.raises(AutopatchError, match="^response contains no fenced code block$"):
        generate_patch(build_prompt(TARGET), client)


def test_empty_diff_rationale_short_circuits():
    rng = random.Random(2)
    graph = random_cfg(rng)
    empty = compute_diff(graph, copy.deepcopy(graph))
    transport = _canned_transport()
    client = LlmClient(LlmConfig(model="m"), cassette=None, mode="live", transport=transport)
    assert generate_rationale(empty, TARGET, client) == EMPTY_DIFF_RATIONALE
    assert transport.calls == []


def test_scripted_rationale_references_diff_blocks(tmp_path):
    pairs = fixture_pairs()
    rng = random.Random(3)
    g_o = random_cfg(rng)
    g_p = random_cfg(rng)
    diff = compute_diff(g_o, g_p)
    assert not diff.is_empty()
    cassette_path = tmp_path / "cassette.json"
    recorder = LlmClient(
        LlmConfig(model="m"), Cassette(cassette_path), mode="record",
        transport=make_scripted_transport(pairs),
    )
    recorded = generate_rationale(diff, pairs[0], recorder)

    replayer = LlmClient(LlmConfig(model="m"), Cassette(cassette_path), mode="replay")
    replayed = generate_rationale(diff, pairs[0], replayer)
    assert replayed == recorded

    diff_block_ids = set(re.findall(r"\bB\d+\b", render_diff(diff)))
    assert any(block_id in recorded for block_id in diff_block_ids)
