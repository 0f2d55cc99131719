#!/usr/bin/env python3
"""Project linter for ruidx: rules regex-checkable from single files.

Rules (each with the hazard it guards against):

  ptr-keyed-map
      Maps keyed by node pointers (`std::unordered_map<xml::Node*, ...>` and
      friends). Hash order over addresses varies run to run, so any iteration
      becomes a nondeterminism hazard; key side tables by Node::serial()
      (dense, stable across structural updates) instead. Pointer-keyed *sets*
      used purely for membership remain legal.

  raw-id-arithmetic
      Arithmetic (+ - * / %) on variables whose names mark them as ruid
      identifier components (global/local/kappa/fanout) outside src/core/.
      Identifier arithmetic belongs to the core scheme (rparent and friends);
      other layers must call the core API so the packed/BigUint paths stay in
      lockstep.

  core-no-storage-include
      src/core/ must not include storage headers: the paper's point is that
      identifier arithmetic runs on (kappa, K) alone, so the core layer must
      stay I/O-free. (Enforces the dependency direction storage -> core.)

  wal-bypass
      Direct `Pager::WritePage` / `->WritePage(` calls in src/ outside the
      durability layer itself (pager, buffer pool, write-ahead log). A page
      written behind the buffer pool's back is neither journaled nor
      checksummed, so a crash at the wrong moment silently loses or tears
      it. Go through the BufferPool (Fetch + Unpin-dirty + FlushAll); the
      crash-recovery path in ElementStore::Open is the one legitimate
      exception and carries a NOLINT.

  sync-outside-durability
      Direct `Sync(` / `WriteSpan(` calls in src/ outside the durability
      layer (pager, wal, buffer pool, flusher). With the background flusher
      in the picture, commit ordering is a protocol — journal sync before
      write-back before file sync — and an ad-hoc fsync elsewhere either
      does nothing (the pool may still hold dirty frames) or hides a write
      that bypassed the protocol. Call Flush()/FlushAll() instead; the
      recovery path in ElementStore::Open legitimately syncs the rolled-back
      image before the pool exists and carries a NOLINT.

  xpath-full-scan
      Full-store `ScanAll(` calls from src/xpath/. The query layer has
      secondary indexes for a reason: a step or join that enumerates the
      whole store silently degrades every query to O(document). Seed from
      ScanNameTerm/ScanPathTerm instead; when enumeration is genuinely the
      plan (no usable index), put it in a function whose name contains
      "Fallback" so the full scan is an explicit, named decision.

  raw-key-slice
      Byte-offset access into a storage-key buffer (`key[32]`,
      `key.data() + 16`, ...) outside the key codec files in src/storage/.
      The on-disk key layout (which halves hold the global/local index, the
      flag byte, the compressed-suffix geometry) is owned by the codecs; a
      layer that slices key bytes by hand silently breaks the moment the
      layout changes — exactly what the v1 -> v2 page format migration did.
      Encode/decode through EncodeIdKey/DecodeIdKey, the posting-key codec,
      or the leaf codec instead.

  naked-mutex
      Two halves of the lock-discipline contract (DESIGN.md sec. 13):
      (a) raw std sync primitives (`std::mutex`, `std::condition_variable`,
      `std::lock_guard`, `std::unique_lock`, ...) anywhere outside
      src/util/sync.{h,cc}. Raw primitives are invisible to Clang Thread
      Safety Analysis and to the runtime lock-rank validator; use
      ruidx::Mutex / MutexLock / CondVar so every lock carries annotations
      and a rank. (b) a `Mutex` member declared in src/ whose name never
      appears in a RUIDX_GUARDED_BY/REQUIRES elsewhere in the file — a lock
      that guards nothing statically is a lock the analysis cannot check
      anything against; tag the data it protects.

Escapes: a `// NOLINT(rule-name)` comment on the offending line, or the
rule-specific annotation documented above.

Usage:
  lint.py --root <repo>             lint the repo (exit 1 on violations)
  lint.py --root <repo> --self-test also check that every fixture under
                                    tools/lint_fixtures/ trips its rule
"""

import argparse
import os
import re
import sys

SOURCE_DIRS = ("src", "tools", "tests", "bench", "examples")
SOURCE_EXTS = (".cc", ".h")

POINTER_KEY = r"(?:const\s+)?(?:\w+::)*\w+\s*\*"
RE_PTR_KEYED_MAP = re.compile(
    r"\b(?:std::)?(?:unordered_)?map\s*<\s*" + POINTER_KEY + r"\s*,"
)
RE_RAW_ID_ARITH = re.compile(
    r"\b\w*(?:global|local|kappa|fanout)\w*(?:\(\))?\s*[+\-*/%]\s*\d"
)
RE_STORAGE_INCLUDE = re.compile(r'#include\s+"storage/')
RE_WAL_BYPASS = re.compile(r"(?:\.|->)\s*WritePage\s*\(")
# The durability layer owns the raw write path; everything else must go
# through the journaling buffer pool.
WAL_BYPASS_ALLOWED = (
    os.path.join("src", "storage", "pager.h"),
    os.path.join("src", "storage", "pager.cc"),
    os.path.join("src", "storage", "buffer_pool.cc"),
    os.path.join("src", "storage", "wal.cc"),
)
RE_SYNC_OUTSIDE = re.compile(r"(?:\.|->)\s*(?:Sync|WriteSpan)\s*\(")
# The commit protocol (journal sync -> write-back -> file sync) lives here;
# everything else requests durability via Flush()/FlushAll().
SYNC_OUTSIDE_ALLOWED = (
    os.path.join("src", "storage", "pager.h"),
    os.path.join("src", "storage", "pager.cc"),
    os.path.join("src", "storage", "wal.h"),
    os.path.join("src", "storage", "wal.cc"),
    os.path.join("src", "storage", "buffer_pool.cc"),
    os.path.join("src", "storage", "flusher.cc"),
)
# A literal subscript or a .data() pointer advance on a key-named buffer:
# both hard-code the key layout at the call site. Variable subscripts
# (keys[i] over a collection of keys) stay legal.
RE_RAW_KEY_SLICE = re.compile(
    r"\b\w*[Kk]ey\w*\s*\[\s*\d|\b\w*[Kk]ey\w*\.data\(\)\s*\+"
)
# The key codecs own the byte layout: the primary-key codec in
# element_store.cc, the posting-key codec in secondary_index.cc, and the
# prefix-compression codec (which slices suffixes by design).
KEY_SLICE_ALLOWED = (
    os.path.join("src", "storage", "element_store.cc"),
    os.path.join("src", "storage", "secondary_index.cc"),
    os.path.join("src", "storage", "leaf_codec.h"),
    os.path.join("src", "storage", "leaf_codec.cc"),
    os.path.join("src", "storage", "bptree.cc"),
)
RE_SCANALL = re.compile(r"(?:\.|->)\s*ScanAll\s*\(")
# Function definitions start at column 0 (LLVM style); the identifier just
# before the first '(' is the function name. Tracked so ScanAll calls inside
# an explicitly-named *Fallback* function stay legal.
RE_FN_DEF = re.compile(r"^[^\s/#{}].*?([A-Za-z_]\w*)\s*\(")
RE_STD_SYNC = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable(?:_any)?|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock)\b"
)
# The one home of the raw primitives: the annotated wrappers themselves.
STD_SYNC_ALLOWED = (
    os.path.join("src", "util", "sync.h"),
    os.path.join("src", "util", "sync.cc"),
)
# A Mutex member/local declaration: "mutable Mutex mu_{...};" and friends.
RE_MUTEX_DECL = re.compile(
    r"^\s*(?:mutable\s+)?(?:ruidx::)?Mutex\s+(\w+)\s*[;{]"
)
RE_NOLINT = re.compile(r"//\s*NOLINT\(([\w-]+)\)")


class Violation:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def has_nolint(line, rule):
    m = RE_NOLINT.search(line)
    return m is not None and m.group(1) == rule


def lint_file(root, rel_path, lines):
    violations = []
    in_core = rel_path.startswith("src/core/") or rel_path.startswith(
        "src" + os.sep + "core" + os.sep
    )
    in_xpath = rel_path.startswith("src/xpath/") or rel_path.startswith(
        "src" + os.sep + "xpath" + os.sep
    )
    enclosing_fn = ""

    for i, line in enumerate(lines, start=1):
        stripped = line.split("//", 1)[0] if "NOLINT" not in line else line

        fn_def = RE_FN_DEF.match(stripped)
        if fn_def and not stripped.rstrip().endswith(";"):
            enclosing_fn = fn_def.group(1)

        if RE_PTR_KEYED_MAP.search(stripped) and not has_nolint(
            line, "ptr-keyed-map"
        ):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "ptr-keyed-map",
                    "map keyed by a pointer: hash order over addresses is "
                    "nondeterministic; key by Node::serial() instead",
                )
            )

        if (
            not in_core
            and rel_path.startswith("src" + os.sep)
            and RE_RAW_ID_ARITH.search(stripped)
            and not has_nolint(line, "raw-id-arithmetic")
        ):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "raw-id-arithmetic",
                    "raw arithmetic on an identifier component outside "
                    "src/core/; call the core rparent/compare API instead",
                )
            )

        if in_core and RE_STORAGE_INCLUDE.search(line) and not has_nolint(
            line, "core-no-storage-include"
        ):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "core-no-storage-include",
                    "src/core/ must not depend on storage headers (the "
                    "identifier arithmetic layer is I/O-free)",
                )
            )

        if (
            rel_path.startswith("src" + os.sep)
            and rel_path not in WAL_BYPASS_ALLOWED
            and RE_WAL_BYPASS.search(stripped)
            and not has_nolint(line, "wal-bypass")
        ):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "wal-bypass",
                    "direct Pager::WritePage outside the durability layer: "
                    "the page is neither journaled nor checksummed; write "
                    "through the BufferPool instead",
                )
            )

        if (
            rel_path.startswith("src" + os.sep)
            and rel_path not in SYNC_OUTSIDE_ALLOWED
            and RE_SYNC_OUTSIDE.search(stripped)
            and not has_nolint(line, "sync-outside-durability")
        ):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "sync-outside-durability",
                    "direct Sync/WriteSpan outside the durability layer: "
                    "commit ordering (journal sync -> write-back -> file "
                    "sync) is the pool's protocol; request durability via "
                    "Flush()/FlushAll() instead",
                )
            )

        if (
            (
                rel_path.startswith("src" + os.sep)
                or rel_path.startswith("tools" + os.sep)
            )
            and rel_path not in KEY_SLICE_ALLOWED
            and RE_RAW_KEY_SLICE.search(stripped)
            and not has_nolint(line, "raw-key-slice")
        ):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "raw-key-slice",
                    "raw byte-offset access into a storage key outside the "
                    "key codec files: the layout belongs to the codecs "
                    "(EncodeIdKey/DecodeIdKey, posting keys, leaf codec); "
                    "hand-sliced offsets break silently on format changes",
                )
            )

        if RE_STD_SYNC.search(stripped) and rel_path not in STD_SYNC_ALLOWED \
                and not has_nolint(line, "naked-mutex"):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "naked-mutex",
                    "raw std sync primitive outside src/util/sync.h: "
                    "invisible to thread-safety analysis and the lock-rank "
                    "validator; use ruidx::Mutex/MutexLock/CondVar",
                )
            )

        if rel_path.startswith("src" + os.sep):
            decl = RE_MUTEX_DECL.match(stripped)
            if decl and not has_nolint(line, "naked-mutex"):
                name = re.escape(decl.group(1))
                used = re.compile(
                    r"RUIDX_(?:PT_)?GUARDED_BY\(\s*" + name + r"\s*\)|"
                    r"RUIDX_REQUIRES\(\s*" + name + r"\s*\)"
                )
                if not any(used.search(l) for l in lines):
                    violations.append(
                        Violation(
                            rel_path,
                            i,
                            "naked-mutex",
                            "Mutex '" + decl.group(1) + "' guards nothing: "
                            "no RUIDX_GUARDED_BY/REQUIRES in this file names "
                            "it, so the analysis can check nothing against "
                            "it; tag the data it protects",
                        )
                    )

        if (
            in_xpath
            and RE_SCANALL.search(stripped)
            and "fallback" not in enclosing_fn.lower()
            and not has_nolint(line, "xpath-full-scan")
        ):
            violations.append(
                Violation(
                    rel_path,
                    i,
                    "xpath-full-scan",
                    "full-store ScanAll from the query layer: seed from the "
                    "secondary indexes (ScanNameTerm/ScanPathTerm), or name "
                    "the enclosing function *Fallback* to make the full "
                    "enumeration an explicit decision",
                )
            )

    return violations


def iter_source_files(root):
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [
                d for d in dirnames if d not in ("lint_fixtures", "tsa_fixtures")
            ]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def lint_tree(root):
    violations = []
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        violations.extend(lint_file(root, rel, lines))
    return violations


def self_test(root):
    """Every bad_ fixture must trip the rule its filename names; every
    good_ fixture (a legal pattern near a rule's edge) must stay clean."""
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    failures = []
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith(SOURCE_EXTS)
    )
    if not fixtures:
        return ["no fixtures found in " + fixture_dir]
    for name in fixtures:
        # Fixtures for path-scoped rules declare their pretended location.
        with open(os.path.join(fixture_dir, name), encoding="utf-8") as f:
            lines = f.read().splitlines()
        pretend = "src/xpath/" + name
        for line in lines:
            m = re.match(r"//\s*lint-fixture-path:\s*(\S+)", line)
            if m:
                pretend = m.group(1)
        found = lint_file(root, pretend, lines)
        if name.startswith("good_"):
            if found:
                failures.append(
                    f"fixture {name} must be clean but tripped: "
                    f"{[v.rule for v in found]}"
                )
            continue
        rule = os.path.splitext(name)[0].replace("bad_", "").replace("_", "-")
        if not any(v.rule == rule for v in found):
            failures.append(
                f"fixture {name} did not trip rule {rule} "
                f"(got: {[v.rule for v in found] or 'nothing'})"
            )
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="also verify the negative fixtures trip their rules",
    )
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    violations = lint_tree(root)
    for v in violations:
        print(v)

    failures = []
    if args.self_test:
        failures = self_test(root)
        for f in failures:
            print("self-test:", f)

    if violations or failures:
        print(
            f"lint: {len(violations)} violation(s), "
            f"{len(failures)} self-test failure(s)"
        )
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
