#!/usr/bin/env python3
"""sion-lint: project-specific determinism and hygiene linter.

The repo's hardest invariant is bit-identical virtual time: every benchmark
table and the golden determinism suite depend on the simulation consuming no
entropy from the host. Runtime tests catch a determinism leak only after it
has already skewed a schedule; this linter mechanically bans the code
patterns that cause them, at review time.

Rules (see --list-rules for the machine-readable table):

  wall-clock           no host clocks in simulation directories -- virtual
                       time comes from the engine/SimFs cost model only
  raw-random           no rand()/std::random_device/std::mt19937 & friends in
                       simulation directories -- all draws go through
                       common::Rng with a seed that is part of the scenario
  env-access           no getenv/setenv in simulation directories -- host
                       environment must not influence a simulated schedule
  unordered-iteration  no iteration over unordered_{map,set} in simulation
                       directories -- hash-order leaks into output, RNG draw
                       order, or comm ordering (collect + sort instead)
  stdout-logging       no printf/std::cout outside common/log -- diagnostics
                       go through the leveled logger so tools own stdout
  naked-new            no naked new/malloc in simulation directories --
                       ownership goes through unique_ptr/containers
  catch-all            no catch (...) -- it swallows the engine's
                       SION_CHECK failures and makes error paths untestable
  legacy-checkpoint-call
                       no direct write_checkpoint/read_checkpoint calls in
                       library internals (src/ext, src/workloads) -- the
                       free functions are compatibility wrappers; internals
                       go through workloads::CheckpointSession
  simfs-downcast       no dynamic_cast to SimFs and no #include of
                       fs/sim/simfs.h in src/ outside src/fs/sim/ -- the
                       library reaches the simulator only through
                       fs::FileSystem (machine models come in as data)

Suppression: append `// sion-lint: allow(<rule>[, <rule>...])` to the
offending line, or place the comment alone on the line directly above it.
Every suppression should carry a justification comment nearby.

Matching runs over a lightweight token view of each file: comments and
string/char literals are blanked before rules are applied (so a mention of
rand() in a comment never fires), while the comment text is scanned
separately for suppressions.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

# Directories (relative to the repo root) whose code runs inside the
# simulation and must stay deterministic.
SIM_DIRS = ("src/par/", "src/fs/sim/", "src/ext/", "src/workloads/")

SUPPRESS_RE = re.compile(r"sion-lint:\s*allow\(([^)]*)\)")

SOURCE_EXTENSIONS = (".h", ".cpp", ".cc", ".hpp")


class FileView:
    """Per-line code/comment split of one source file.

    `code[i]` is line i with comments and string/char literal *contents*
    blanked (delimiters kept, lengths preserved so columns stay meaningful);
    `comments[i]` is the concatenated comment text of line i.
    """

    def __init__(self, path, relpath, text):
        self.path = path
        self.relpath = relpath
        self.lines = text.splitlines()
        self.code = []
        self.comments = []
        self._lex(text)
        self.joined_code = "\n".join(self.code)

    def _lex(self, text):
        NORMAL, BLOCK, LINE, STRING, CHAR, RAW = range(6)
        state = NORMAL
        raw_delim = ""
        for line in text.splitlines():
            code_out = []
            comment_out = []
            i = 0
            n = len(line)
            if state == LINE:
                state = NORMAL  # line comments end at the newline
            while i < n:
                c = line[i]
                nxt = line[i + 1] if i + 1 < n else ""
                if state == NORMAL:
                    if c == "/" and nxt == "/":
                        state = LINE
                        comment_out.append(line[i + 2:])
                        code_out.append(" " * (n - i))
                        i = n
                    elif c == "/" and nxt == "*":
                        state = BLOCK
                        code_out.append("  ")
                        i += 2
                    elif c == '"':
                        raw = re.match(r'R"([^(\s\\]{0,16})\(',
                                       line[i:]) if i > 0 and \
                            line[i - 1] == "R" else None
                        if raw:
                            raw_delim = raw.group(1)
                            state = RAW
                            code_out.append(" " * len(raw.group(0)))
                            i += len(raw.group(0))
                        else:
                            state = STRING
                            code_out.append('"')
                            i += 1
                    elif c == "'":
                        state = CHAR
                        code_out.append("'")
                        i += 1
                    else:
                        code_out.append(c)
                        i += 1
                elif state == BLOCK:
                    if c == "*" and nxt == "/":
                        state = NORMAL
                        code_out.append("  ")
                        i += 2
                    else:
                        comment_out.append(c)
                        code_out.append(" ")
                        i += 1
                elif state in (STRING, CHAR):
                    quote = '"' if state == STRING else "'"
                    if c == "\\":
                        code_out.append("  ")
                        i += 2
                    elif c == quote:
                        state = NORMAL
                        code_out.append(quote)
                        i += 1
                    else:
                        code_out.append(" ")
                        i += 1
                elif state == RAW:
                    end = line.find(')' + raw_delim + '"', i)
                    if end == -1:
                        code_out.append(" " * (n - i))
                        i = n
                    else:
                        skip = end + len(raw_delim) + 2
                        code_out.append(" " * (skip - i))
                        i = skip
                        state = NORMAL
            # Unterminated ordinary string/char at EOL: not legal C++;
            # recover rather than poison the next line.
            if state in (STRING, CHAR, LINE):
                state = NORMAL
            self.code.append("".join(code_out))
            self.comments.append("".join(comment_out))

    def suppressed_rules(self, lineno):
        """Rules allowed on 1-based line `lineno` (same line or line above)."""
        allowed = set()
        for idx in (lineno - 1, lineno - 2):
            if 0 <= idx < len(self.comments):
                m = SUPPRESS_RE.search(self.comments[idx])
                if m:
                    allowed.update(
                        r.strip() for r in m.group(1).split(",") if r.strip())
        return allowed


def in_sim_dirs(relpath):
    return relpath.startswith(SIM_DIRS)


def _line_findings(view, pattern, message, scope=in_sim_dirs):
    if not scope(view.relpath):
        return
    for i, code in enumerate(view.code, start=1):
        m = pattern.search(code)
        if m:
            yield (i, message.format(match=m.group(0).strip()))


# --- rule: wall-clock -------------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"(?:std::)?chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\b(?:gettimeofday|clock_gettime|timespec_get|localtime|gmtime"
    r"|strftime|difftime)\s*\("
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\)"
    r"|\bclock\s*\(\s*\)")


def check_wall_clock(view):
    yield from _line_findings(
        view, WALL_CLOCK_RE,
        "host clock `{match}` in simulation code; charge virtual time via "
        "TaskState::advance_to / the SimFs cost model instead")


# --- rule: raw-random -------------------------------------------------------

RAW_RANDOM_RE = re.compile(
    r"\b(?:rand|srand|random|drand48|lrand48|mrand48|srandom)\s*\("
    r"|(?:std::)?random_device\b"
    r"|(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w+|knuth_b)\b")


def check_raw_random(view):
    yield from _line_findings(
        view, RAW_RANDOM_RE,
        "host entropy source `{match}` in simulation code; draw from "
        "common::Rng with a seed that is part of the scenario config")


# --- rule: env-access -------------------------------------------------------

ENV_ACCESS_RE = re.compile(
    r"\b(?:getenv|secure_getenv|setenv|putenv|unsetenv)\s*\(")


def check_env_access(view):
    yield from _line_findings(
        view, ENV_ACCESS_RE,
        "environment access `{match}` in simulation code; host environment "
        "must not influence a simulated schedule -- plumb it through config")


# --- rule: unordered-iteration ---------------------------------------------

UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_(?:map|set)\b")
UNORDERED_DECL_RE = re.compile(r"\b(?:std::)?unordered_(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*(?:\([^()]*\)[^;()]*)*)\)")
RANGE_SPLIT_RE = re.compile(r"(?<!:):(?!:)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(")


def _balanced_angle_end(text, start):
    """Index just past the `>` matching the `<` at `text[start]`, or -1."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            # Tolerate `>>` closing two levels (template syntax, not shift:
            # this runs only on declaration sites found by UNORDERED_DECL_RE).
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}" and depth == 0:
            return -1
        i += 1
    return -1


def _unordered_names(view):
    """Identifiers declared (heuristically) with an unordered container type,
    in this file or its companion header/source."""
    names = set()
    texts = [view.joined_code]
    base, ext = os.path.splitext(view.path)
    companion = base + (".h" if ext == ".cpp" else ".cpp")
    if os.path.isfile(companion):
        with open(companion, encoding="utf-8", errors="replace") as f:
            texts.append(
                FileView(companion, "companion", f.read()).joined_code)
    ident_after = re.compile(r"\s*&?\s*(\w+)\s*(?=[;={,)])")
    for text in texts:
        aliases = set(UNORDERED_ALIAS_RE.findall(text))
        decl_starts = [m.end() - 1 for m in UNORDERED_DECL_RE.finditer(text)]
        for alias in aliases:
            for m in re.finditer(r"\b%s\b" % re.escape(alias), text):
                if UNORDERED_ALIAS_RE.search(
                        text[max(0, m.start() - 64):m.end()]):
                    continue  # the alias definition itself
                pos = m.end()
                if pos < len(text) and text[pos:].lstrip()[:1] == "<":
                    pos = _balanced_angle_end(text, text.index("<", pos))
                    if pos == -1:
                        continue
                im = ident_after.match(text, pos)
                if im:
                    names.add(im.group(1))
        for start in decl_starts:
            end = _balanced_angle_end(text, start)
            if end == -1:
                continue
            im = ident_after.match(text, end)
            if im:
                names.add(im.group(1))
    return names


def check_unordered_iteration(view):
    if not in_sim_dirs(view.relpath):
        return
    names = _unordered_names(view)
    if not names:
        return
    msg = ("iteration over unordered container `{0}`: hash order leaks into "
           "output/draw/comm ordering; collect keys and sort, or use an "
           "ordered container")
    for i, code in enumerate(view.code, start=1):
        for m in RANGE_FOR_RE.finditer(code):
            parts = RANGE_SPLIT_RE.split(m.group(1))
            if len(parts) < 2:
                continue
            idents = re.findall(r"\w+", parts[-1])
            if idents and idents[-1] in names:
                yield (i, msg.format(idents[-1]))
        for m in BEGIN_CALL_RE.finditer(code):
            if m.group(1) in names:
                yield (i, msg.format(m.group(1)))


# --- rule: stdout-logging ---------------------------------------------------

STDOUT_RE = re.compile(
    r"\b(?:printf|fprintf|vprintf|vfprintf|puts|fputs|putchar|fputc)\s*\("
    r"|std::(?:cout|cerr|clog)\b")


def stdout_scope(relpath):
    # The leveled logger implements itself on fprintf; everything else in the
    # library reports through Status or common/log. (tools/, bench/ and
    # examples/ live outside src/ and legitimately own their stdout.)
    return relpath.startswith("src/") and \
        not relpath.startswith("src/common/log.")


def check_stdout_logging(view):
    yield from _line_findings(
        view, STDOUT_RE,
        "direct output `{match}` in library code; use SION_LOG (common/log.h)"
        " or return the text to the caller", scope=stdout_scope)


# --- rule: naked-new --------------------------------------------------------

NAKED_NEW_RE = re.compile(r"\bnew\b|\b(?:malloc|calloc|realloc|free)\s*\(")
OWNERSHIP_WRAP_RE = re.compile(
    r"unique_ptr|shared_ptr|make_unique|make_shared")


def check_naked_new(view):
    if not in_sim_dirs(view.relpath):
        return
    for i, code in enumerate(view.code, start=1):
        m = NAKED_NEW_RE.search(code)
        # `unique_ptr<T>(new T(...))` on one line is the idiom for types with
        # private constructors (make_unique cannot reach them) -- allowed.
        if m and not OWNERSHIP_WRAP_RE.search(code):
            yield (i, "naked `%s` in simulation code; own allocations with "
                      "unique_ptr/containers" % m.group(0).strip())


# --- rule: catch-all --------------------------------------------------------

CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")


def src_scope(relpath):
    return relpath.startswith("src/")


def check_catch_all(view):
    yield from _line_findings(
        view, CATCH_ALL_RE,
        "`catch (...)` swallows SION_CHECK failures and unknown errors; "
        "catch specific types or let it propagate", scope=src_scope)


# --- rule: legacy-checkpoint-call -------------------------------------------

LEGACY_CHECKPOINT_RE = re.compile(r"\b(?:write|read)_checkpoint\s*\(")

# The compatibility wrappers themselves (declaration + implementation).
LEGACY_CHECKPOINT_EXEMPT = (
    "src/workloads/checkpoint.h",
    "src/workloads/checkpoint.cpp",
)


def legacy_checkpoint_scope(relpath):
    return relpath.startswith(("src/ext/", "src/workloads/")) and \
        relpath not in LEGACY_CHECKPOINT_EXEMPT


def check_legacy_checkpoint_call(view):
    yield from _line_findings(
        view, LEGACY_CHECKPOINT_RE,
        "legacy one-shot call `{match})` in library internals; open a "
        "workloads::CheckpointSession (write_async/wait/close) or "
        "CheckpointSession::restore instead",
        scope=legacy_checkpoint_scope)


# --- rule: simfs-downcast ---------------------------------------------------

SIMFS_CAST_RE = re.compile(r"\bdynamic_cast\s*<[^>]*\bSimFs\b")
INCLUDE_RE = re.compile(r"^\s*#\s*include\s*\"")
SIMFS_INCLUDE_RE = re.compile(r"\"fs/sim/simfs\.h\"")


def simfs_downcast_scope(relpath):
    return relpath.startswith("src/") and \
        not relpath.startswith("src/fs/sim/")


def check_simfs_downcast(view):
    if not simfs_downcast_scope(view.relpath):
        return
    for i, code in enumerate(view.code, start=1):
        # The include path is a string literal, blanked in `code`: match the
        # raw line, but only where the code view shows a live #include.
        if SIMFS_CAST_RE.search(code) or (
                INCLUDE_RE.match(code) and
                SIMFS_INCLUDE_RE.search(view.lines[i - 1])):
            yield (i, "library code reaches past fs::FileSystem into SimFs; "
                      "add a FileSystem capability or pass the machine "
                      "model (fs::SimConfig) in as data")


RULES = [
    ("wall-clock", check_wall_clock,
     "no host clocks in " + ", ".join(SIM_DIRS)),
    ("raw-random", check_raw_random,
     "no host entropy (rand, random_device, mt19937, ...) in sim dirs"),
    ("env-access", check_env_access,
     "no getenv/setenv in sim dirs"),
    ("unordered-iteration", check_unordered_iteration,
     "no iteration over unordered_{map,set} in sim dirs"),
    ("stdout-logging", check_stdout_logging,
     "no printf/std::cout in src/ outside common/log"),
    ("naked-new", check_naked_new,
     "no naked new/malloc in sim dirs"),
    ("catch-all", check_catch_all,
     "no catch (...) anywhere in src/"),
    ("legacy-checkpoint-call", check_legacy_checkpoint_call,
     "no write_checkpoint/read_checkpoint calls in src/ext, src/workloads "
     "internals (use workloads::CheckpointSession)"),
    ("simfs-downcast", check_simfs_downcast,
     "no dynamic_cast to SimFs / #include \"fs/sim/simfs.h\" in src/ "
     "outside src/fs/sim/"),
]


def collect_files(root, paths):
    files = []
    for p in paths:
        ap = os.path.join(root, p) if not os.path.isabs(p) else p
        if os.path.isdir(ap):
            for dirpath, _dirnames, filenames in os.walk(ap):
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(ap):
            files.append(ap)
        else:
            raise FileNotFoundError(ap)
    return sorted(set(files))


def lint_files(root, files):
    findings = []
    suppressed = 0
    for path in files:
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            view = FileView(path, relpath, f.read())
        for rule_name, check, _desc in RULES:
            for lineno, message in check(view):
                if rule_name in view.suppressed_rules(lineno):
                    suppressed += 1
                    continue
                findings.append({
                    "file": relpath,
                    "line": lineno,
                    "rule": rule_name,
                    "message": message,
                })
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))
    return findings, suppressed


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sion-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint, relative to "
                             "--root (default: src)")
    parser.add_argument("--root", default=None,
                        help="repo root the rule scopes are resolved "
                             "against (default: parent of this script)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, _check, desc in RULES:
            print("%-20s %s" % (name, desc))
        return 0

    root = os.path.abspath(
        args.root if args.root else
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
    paths = args.paths if args.paths else ["src"]
    try:
        files = collect_files(root, paths)
    except FileNotFoundError as err:
        print("sion-lint: no such file or directory: %s" % err, file=sys.stderr)
        return 2

    findings, suppressed = lint_files(root, files)

    if args.json:
        json.dump({
            "version": 1,
            "root": root,
            "files_scanned": len(files),
            "rules": [name for name, _c, _d in RULES],
            "suppressed": suppressed,
            "findings": findings,
        }, sys.stdout, indent=2)
        print()
    else:
        for f in findings:
            print("%s:%d: [%s] %s" % (f["file"], f["line"], f["rule"],
                                      f["message"]))
        print("sion-lint: %d file(s), %d finding(s), %d suppressed"
              % (len(files), len(findings), suppressed))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
