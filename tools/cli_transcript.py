"""A transcript of `freecart` commands: argv, exit code and output hashes.

    python3 tools/cli_transcript.py SRC SEED [SEED ...]

For each seed, every query of both benchmark corpora (read from
bench/workloads.py), the other subcommands on the same term files (see
corpus_commands), MALFORMED_COMMANDS seeded `check` commands per mode on
corpus terms with a few characters deleted, inserted or cut off (see
malformed_texts), SYNTH_COMMANDS seeded `synth` commands per mode,
commands on files that test how a term file is read (see
file_commands), and the fixed command lines of ARGV_VARIANTS on two
corpus term files (see argv_commands) are run in process against the package in the
directory SRC.  One line is printed per command: the argv as JSON, the
exit code, and the sha256 of stdout and of stderr, separated by tabs.
Term files are written to a temporary directory, which is the working
directory while the commands run, under names that depend only on the
seed and the query; so the transcripts of two trees can be compared line
by line:

    python3 tools/cli_transcript.py ../old/src 1 7 > old.txt
    python3 tools/cli_transcript.py src 1 7 > new.txt
    diff old.txt new.txt

Help text is wrapped to the terminal's width (argparse reads COLUMNS, or
asks the terminal), so run both sides with the same COLUMNS, or both
with stdout redirected as above.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, build  # noqa: E402

SYNTH_COMMANDS = 6000  # per mode and seed
MALFORMED_COMMANDS = 1000  # per mode and seed
MODES = ("cartesian", "binary-products")
LETTERS = ("p", "q", "r")
# What an edit may insert: every token character, the product sign,
# space, a comment sign, characters that cannot start a name, and
# characters that are never allowed.
INSERTABLE = "{}()<>,.*×Tpq1_ \n#!A"
# Command lines that test how argv is read rather than the library:
# usage errors, help, abbreviations, --opt=value, options after the
# operands, and repeated options.  {0} and {1} stand for two term files.
ARGV_VARIANTS = (
    [],
    ["-h"],
    ["--help"],
    ["check", "-h"],
    ["equal", "--help"],
    ["collapse", "{0}", "{1}", "-h"],
    ["--mode"],
    ["--mode", "cubical", "check", "{0}"],
    ["--mode=cartesian", "graph", "{0}"],
    ["--mod", "cartesian", "check", "{0}"],
    ["--mode", "binary-products", "--mode", "cartesian", "check", "{0}"],
    ["check", "--mode", "cartesian", "{0}"],
    ["frobnicate", "{0}"],
    ["check"],
    ["check", "{0}", "{1}"],
    ["check", "{0}", "-x"],
    ["check", "--", "{0}"],
    ["--", "check", "{0}"],
    ["check", "-"],
    ["check", ""],
    ["normalize", "{0}", "--trace"],
    ["normalize", "--tr", "{0}"],
    ["normalize", "--trace", "--trace", "{0}"],
    ["equal", "{0}"],
    ["equal", "{0}", "{1}", "{1}"],
    ["equal", "--method"],
    ["equal", "--method", "approx", "{0}", "{1}"],
    ["equal", "--meth", "graph", "{0}", "{1}"],
    ["equal", "--method=normalize", "{0}", "{1}"],
    ["equal", "{0}", "{1}", "--method", "graph"],
    ["equal", "{0}", "--method", "graph", "{1}"],
    ["equal", "--method", "graph", "--method", "normalize", "{0}", "{1}"],
    ["synth", "p", "p"],
    ["synth", "p", "p", "[1]", "[1]"],
    ["synth", "p", "p", "-1"],
    ["synth", "--", "-p", "p", "[1]"],
    ["synth", "p", "p", "[" + "1" * 5000 + "]"],
)


def _object(rng, depth: int) -> tuple[str, list[str]]:
    """A random object's text and its letters in leaf order; T may occur."""
    if depth > 0 and rng.random() < 0.5:
        (left, ll), (right, rl) = _object(rng, depth - 1), _object(rng, depth - 1)
        return f"({left}*{right})", ll + rl
    if rng.random() < 0.15:
        return "T", []
    letter = rng.choice(LETTERS)
    return letter, [letter]


def _map(rng, sources: list[str], targets: list[str]) -> str:
    """A JSON map, mostly joining equal letters, sometimes not a graph at all."""
    entries = []
    for letter in targets:
        same = [i + 1 for i, s in enumerate(sources) if s == letter]
        if same and rng.random() < 0.85:
            entries.append(rng.choice(same))
        else:
            entries.append(rng.randint(0, len(sources) + 1))
    roll = rng.random()
    if roll < 0.03:
        entries.append(1)
    elif roll < 0.06 and entries:
        entries.pop()
    elif roll < 0.07:
        return rng.choice(["[1,", "[1.5]", "[true]", "{}", "1"])
    return json.dumps(entries)


def synth_commands(seed: int) -> list[list[str]]:
    commands = []
    for mode in MODES:
        rng = random.Random(f"synth:{mode}:{seed}")
        for _ in range(SYNTH_COMMANDS):
            (dom, sources), (cod, targets) = _object(rng, 3), _object(rng, 3)
            commands.append(["--mode", mode, "synth", dom, cod, _map(rng, sources, targets)])
    return commands


def corpus_commands(seed: int) -> list[list[str]]:
    """The benchmark queries of one seed, their term files written to the working directory.

    Each query is followed by `check`, `graph` and `normalize --trace`
    on each of its terms (a traced query runs that already), and a
    two-term query by `equal --method both` on its pair.
    """
    commands = []
    for workload in WORKLOADS:
        for i, query in enumerate(build(workload, seed)):
            files = []
            for k, term in enumerate(query.texts):
                name = f"s{seed}-{workload}-q{i}-{k}.term"
                Path(name).write_text(term + "\n", encoding="utf-8")
                files.append(name)
            commands.append(query.command(files))
            head = ["--mode", query.mode]
            for name in files:
                commands += [head + ["check", name], head + ["graph", name]]
                if query.kind != "trace":
                    commands.append(head + ["normalize", "--trace", name])
            if len(files) == 2:
                commands.append(head + ["equal", "--method", "both", *files])
    return commands


def _malform(rng, text: str) -> str:
    """text after 1-3 edits: each deletes a character, inserts one, or cuts the text short."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("delete", "insert", "truncate"))
        if edit == "delete":
            text = text[:i] + text[i + 1 :]
        elif edit == "insert":
            text = text[:i] + rng.choice(INSERTABLE) + text[i:]
        else:
            text = text[:i]
    return text


def malformed_texts(seed: int) -> dict[str, list[str]]:
    """MALFORMED_COMMANDS edited corpus terms per mode.

    The terms are those of both corpora in each mode, except the deep-
    nesting ones, and most of the edited texts are parse errors.
    """
    queries = [query for workload in WORKLOADS for query in build(workload, seed) if not query.deep]
    edited = {}
    for mode in MODES:
        texts = [text for query in queries if query.mode == mode for text in query.texts]
        rng = random.Random(f"malformed:{mode}:{seed}")
        edited[mode] = [_malform(rng, rng.choice(texts)) for _ in range(MALFORMED_COMMANDS)]
    return edited


def malformed_commands(seed: int) -> list[list[str]]:
    """`check` on malformed_texts, their files written to the working directory.

    The transcript thus records the diagnostics' bytes.
    """
    commands = []
    for mode, texts in malformed_texts(seed).items():
        for i, text in enumerate(texts):
            name = f"s{seed}-malformed-{mode}-{i}.term"
            Path(name).write_text(text, encoding="utf-8")
            commands.append(["--mode", mode, "check", name])
    return commands


def file_commands(seed: int) -> list[list[str]]:
    """`check` on files that test how a term file is read, and two pairs of them through `equal` and `collapse`.

    The files are written as bytes.  The pairs are the two terms of the
    seed's first `decide` query with CRLF line ends, and after a comment
    that a lone CR ends.  The single files are its first term after a
    byte order mark, and followed by a byte that is not UTF-8; a valid
    chain of `id{p}` longer than 64 KiB, alone and followed by such a
    byte; and an empty file.  The working directory itself and a path
    that holds a NUL are operands too.  corpus_commands writes the
    query's files, so it runs first.
    """
    texts = [Path(f"s{seed}-decide-q0-{k}.term").read_text(encoding="utf-8").strip() for k in (0, 1)]
    chain = " . ".join(["id{p}"] * 9000)
    pairs = {
        "crlf": [b"# line ends\r\n" + t.replace(" ", "\r\n").encode() + b"\r\n" for t in texts],
        "cr-comment": [b"# ended by a lone CR\r" + t.encode() + b"\r" for t in texts],
    }
    singles = {
        "bom": codecs.BOM_UTF8 + texts[0].encode() + b"\n",
        "latin1": texts[0].encode() + b" \xff\n",
        "latin1-long": chain.encode() + b" \xff\n",
        "empty": b"",
        "chain": chain.encode() + b"\n",
    }
    head = ["--mode", "cartesian"]
    commands = []
    for variant, blobs in pairs.items():
        files = [f"s{seed}-file-{variant}-{k}.term" for k in (0, 1)]
        for name, blob in zip(files, blobs):
            Path(name).write_bytes(blob)
            commands.append(head + ["check", name])
        commands += [head + ["equal", "--method", "graph", *files], head + ["collapse", *files]]
    for variant, blob in singles.items():
        name = f"s{seed}-file-{variant}.term"
        Path(name).write_bytes(blob)
        commands.append(head + ["check", name])
    return commands + [head + ["check", "."], head + ["check", "a\x00b"]]


def argv_commands(seed: int) -> list[list[str]]:
    """ARGV_VARIANTS on the two term files of the seed's first `decide` query.

    corpus_commands writes those files, so it runs first.
    """
    files = [f"s{seed}-decide-q0-{k}.term" for k in (0, 1)]
    return [[token.format(*files) for token in argv] for argv in ARGV_VARIANTS]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(run_cli, argv: list[str]) -> str:
    """The transcript line of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(run_cli(argv))
        except Exception as exc:  # run_cli should never raise; record it if it does
            code = f"raised {type(exc).__name__}"
    return "\t".join((json.dumps(argv), code, _digest(out.getvalue()), _digest(err.getvalue())))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import freecart

    if not Path(freecart.__file__).resolve().is_relative_to(src):
        print(f"error: freecart came from {freecart.__file__}, not {src}", file=sys.stderr)
        return 2
    run_cli = freecart.run_cli
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for seed in map(int, argv[1:]):
                commands = (
                    corpus_commands(seed)
                    + malformed_commands(seed)
                    + synth_commands(seed)
                    + file_commands(seed)
                    + argv_commands(seed)
                )
                for command in commands:
                    print(run(run_cli, command))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
