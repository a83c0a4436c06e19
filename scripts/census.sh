#!/usr/bin/env bash
# Census of `pub` code nothing reaches (ROADMAP aim 2: each mechanism
# points at the bench row or the test that justifies it).
#
# Prints, one per line and sorted, every `pub` module and item under
# crates/*/src whose name occurs in no *other* .rs file of
#   crates src tests examples benchmark/src
# and, on stderr, the count. An occurrence is the name as a whole word in
# code: comments, `mod x;` lines and `pub use` re-exports do not count (a
# prelude line reaches nothing, though under `pub use x::A as B` a `B`
# anywhere is an `A`), and neither does the item's own file — its unit
# tests included. `pub(crate)` items, fields and everything from
# a file's `#[cfg(test)] mod … {` on are not censused. A module is listed,
# instead of its items, when it has `pub` items, none of them is reached
# and no other file writes `<module>::`.
#
# scripts/census.expected is this output with a reason after a tab on
# every line; scripts/tier1.sh diffs the two, so a new unreached item
# fails the gate by name.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import glob, os, re, sys

ROOTS = ["crates", "src", "tests", "examples", "benchmark/src"]
ITEM = re.compile(
    r"^([ \t]*)pub\s+(?:(?:(?:const|unsafe|async)\s+)*(fn)|(struct|enum|trait|type|const|static))\s+(\w+)",
    re.M,
)
TEST_MOD = re.compile(r"#\[cfg\(test\)\]\s*(?:pub\s+)?mod\s+\w+\s*\{")
COMMENT = re.compile(r"//[^\n]*")
REEXPORT = re.compile(r"^[ \t]*pub\s+use\s[^;]*;", re.M)
MOD_LINE = re.compile(r"^[ \t]*(?:pub(?:\([^)]*\))?\s+)?mod\s+\w+\s*;", re.M)

files = sorted(
    path
    for root in ROOTS
    for path in glob.glob(os.path.join(root, "**", "*.rs"), recursive=True)
)
texts = {}
words = {}
renamed = {}
for path in files:
    with open(path) as f:
        texts[path] = f.read()
    code = COMMENT.sub("", texts[path])
    for reexport in REEXPORT.findall(code):
        renamed.update((new, old) for old, new in re.findall(r"(\w+)\s+as\s+(\w+)", reexport))
    code = MOD_LINE.sub("", REEXPORT.sub("", code))
    words[path] = set(re.findall(r"\w+", code)) | set(re.findall(r"\w+::", code))
for seen in words.values():
    seen.update(renamed[new] for new in renamed.keys() & seen)


def reached(path, token):
    return any(token in seen for other, seen in words.items() if other != path)


lines = []
for path in files:
    if not re.fullmatch(r"crates/[^/]+/src/.*", path):
        continue
    cut = TEST_MOD.search(texts[path])
    body = COMMENT.sub("", texts[path][: cut.start()] if cut else texts[path])
    items = [(m.group(1) == "", m.group(2) or m.group(3), m.group(4)) for m in ITEM.finditer(body)]
    dead = {(kind, name) for _, kind, name in items if not reached(path, name)}
    top = {(kind, name) for top_level, kind, name in items if top_level}
    module = os.path.basename(os.path.dirname(path) if path.endswith("/mod.rs") else path[:-3])
    if top and top <= dead and not reached(path, module + "::"):
        lines.append(f"{path} mod {module}")
    else:
        lines.extend(f"{path} {kind} {name}" for kind, name in dead)

print("\n".join(sorted(lines)))
print(f"census: {len(lines)} unreached pub modules and items", file=sys.stderr)
EOF
