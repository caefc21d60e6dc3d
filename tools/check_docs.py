#!/usr/bin/env python3
"""Documentation consistency checker, run under ctest (label: docs).

Keeps the prose honest against the tree:

  1. every library under src/ has its own bold-header paragraph
     (**`src/<lib>`...) in docs/ARCHITECTURE.md's Libraries section — a
     passing mention elsewhere is not documentation;
  2. every "DESIGN.md §N" reference in source comments points at a
     section that actually exists in DESIGN.md;
  3. CHANGES.md carries one "- PR N:" entry per landed PR, contiguously
     numbered (a PR that forgets its line fails the suite);
  4. every committed baseline bench/baselines/BENCH_*.json is covered by
     EXPERIMENTS.md (a bench without a write-up is an orphan artifact);
  5. every relative link in README.md resolves to a file or directory
     that exists in the tree;
  6. every tests/*_test.cc is registered in tests/CMakeLists.txt (a test
     file that never builds is silently dead coverage);
  7. every library under src/ with more than one source file has a
     DESIGN.md anchor (a "src/<lib>" mention) — a subsystem big enough
     to span files is big enough to owe the design doc a paragraph;
  8. every backticked tree path in the prose docs (DESIGN.md,
     docs/ARCHITECTURE.md, README.md, EXPERIMENTS.md) that starts with
     src/, bench/, tests/, tools/, examples/, perfbench/ or docs/ resolves,
     as given or with a .h/.cc/.cpp/.py suffix;
  9. every backticked `Class::Member` in those docs names a member that
     exists: Member appears inside the body of Class (a class, struct,
     enum or namespace) or as an out-of-line Class::Member, under src/,
     bench/ or perfbench/.

Usage: check_docs.py [repo_root]   (defaults to the parent of tools/)
"""

import glob
import os
import re
import sys

PROSE_DOCS = ("DESIGN.md", os.path.join("docs", "ARCHITECTURE.md"),
              "README.md", "EXPERIMENTS.md")
TREE_ROOTS = ("src", "bench", "tests", "tools", "examples", "perfbench",
              "docs")


def fail(errors):
    for e in errors:
        print("FAIL: %s" % e)
    print("%d documentation check(s) failed" % len(errors))
    return 1


def source_files(root):
    for base in ("src", "bench", "tests", "examples", "tools"):
        top = os.path.join(root, base)
        for dirpath, _, names in os.walk(top):
            for name in names:
                if name.endswith((".h", ".cc", ".cpp", ".py")):
                    yield os.path.join(dirpath, name)


def check_architecture(root, errors):
    arch_path = os.path.join(root, "docs", "ARCHITECTURE.md")
    if not os.path.exists(arch_path):
        errors.append("docs/ARCHITECTURE.md does not exist")
        return
    with open(arch_path, encoding="utf-8") as f:
        arch = f.read()
    libs = sorted(
        d for d in os.listdir(os.path.join(root, "src"))
        if os.path.isdir(os.path.join(root, "src", d))
    )
    if not libs:
        errors.append("no libraries found under src/ (wrong repo root?)")
    for lib in libs:
        if "src/%s" % lib not in arch:
            errors.append(
                "docs/ARCHITECTURE.md does not mention src/%s" % lib)
        elif "**`src/%s`" % lib not in arch:
            errors.append(
                "docs/ARCHITECTURE.md has no '**`src/%s`' library "
                "paragraph (a mention is not a description)" % lib)


def design_sections(root):
    with open(os.path.join(root, "DESIGN.md"), encoding="utf-8") as f:
        text = f.read()
    return set(
        int(m.group(1))
        for m in re.finditer(r"^## (\d+)\.", text, flags=re.MULTILINE)
    )


def check_design_refs(root, errors):
    sections = design_sections(root)
    if not sections:
        errors.append("DESIGN.md has no numbered '## N.' sections")
        return
    ref_re = re.compile(r"DESIGN\.md (?:§|section )(\d+)")
    for path in source_files(root):
        with open(path, encoding="utf-8", errors="replace") as f:
            for lineno, line in enumerate(f, 1):
                for m in ref_re.finditer(line):
                    num = int(m.group(1))
                    if num not in sections:
                        errors.append(
                            "%s:%d references DESIGN.md §%d, which does "
                            "not exist (sections: %s)"
                            % (os.path.relpath(path, root), lineno, num,
                               sorted(sections)))


def check_design_anchors(root, errors):
    """Multi-file src/ libraries must be anchored somewhere in DESIGN.md."""
    with open(os.path.join(root, "DESIGN.md"), encoding="utf-8") as f:
        design = f.read()
    src = os.path.join(root, "src")
    for lib in sorted(os.listdir(src)):
        lib_dir = os.path.join(src, lib)
        if not os.path.isdir(lib_dir):
            continue
        sources = [n for n in os.listdir(lib_dir)
                   if n.endswith((".h", ".cc", ".cpp"))]
        if len(sources) <= 1:
            continue
        if "src/%s" % lib not in design:
            errors.append(
                "DESIGN.md never mentions src/%s (%d source files) — "
                "multi-file subsystems need a design anchor"
                % (lib, len(sources)))


def check_changes(root, errors):
    path = os.path.join(root, "CHANGES.md")
    if not os.path.exists(path):
        errors.append("CHANGES.md does not exist")
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    prs = sorted(
        int(m.group(1))
        for m in re.finditer(r"^- PR (\d+):", text, flags=re.MULTILINE)
    )
    if not prs:
        errors.append("CHANGES.md has no '- PR N:' entries")
        return
    expected = list(range(prs[0], prs[0] + len(prs)))
    if prs != expected:
        missing = sorted(set(expected) - set(prs))
        errors.append(
            "CHANGES.md PR entries are not contiguous: have %s, missing %s"
            % (prs, missing))


def check_baseline_experiments(root, errors):
    """Every committed BENCH_*.json baseline needs an EXPERIMENTS.md entry."""
    baselines_dir = os.path.join(root, "bench", "baselines")
    if not os.path.isdir(baselines_dir):
        return
    exp_path = os.path.join(root, "EXPERIMENTS.md")
    if not os.path.exists(exp_path):
        errors.append("EXPERIMENTS.md does not exist")
        return
    with open(exp_path, encoding="utf-8") as f:
        exp = f.read()
    for name in sorted(os.listdir(baselines_dir)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            if name not in exp:
                errors.append(
                    "bench/baselines/%s is not covered by EXPERIMENTS.md "
                    "(orphan baseline artifact)" % name)


def check_test_registration(root, errors):
    """Every tests/*_test.cc must appear in tests/CMakeLists.txt."""
    tests_dir = os.path.join(root, "tests")
    cml_path = os.path.join(tests_dir, "CMakeLists.txt")
    if not os.path.exists(cml_path):
        errors.append("tests/CMakeLists.txt does not exist")
        return
    with open(cml_path, encoding="utf-8") as f:
        cml = f.read()
    for name in sorted(os.listdir(tests_dir)):
        if not name.endswith("_test.cc"):
            continue
        stem = name[:-len(".cc")]
        if not re.search(r"\b%s\b" % re.escape(stem), cml):
            errors.append(
                "tests/%s is not registered in tests/CMakeLists.txt "
                "(dead test file — it never builds or runs)" % name)


def check_readme_links(root, errors):
    """Relative README links must resolve inside the tree."""
    readme = os.path.join(root, "README.md")
    if not os.path.exists(readme):
        errors.append("README.md does not exist")
        return
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    with open(readme, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for m in link_re.finditer(line):
                target = m.group(1).split("#", 1)[0]
                if not target or "://" in target or target.startswith(
                        ("mailto:", "#")):
                    continue
                if not os.path.exists(os.path.join(root, target)):
                    errors.append(
                        "README.md:%d links to '%s', which does not exist"
                        % (lineno, target))


def backticked(root):
    """Yields (doc, lineno, text) for every `...` span in the prose docs."""
    for doc in PROSE_DOCS:
        path = os.path.join(root, doc)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for m in re.finditer(r"`([^`]+)`", line):
                    yield doc, lineno, m.group(1)


def check_doc_paths(root, errors):
    """Backticked tree paths in the prose docs must exist."""
    prefix_re = re.compile(r"^(?:%s)/" % "|".join(TREE_ROOTS))
    for doc, lineno, text in backticked(root):
        words = text.split()
        if not words or not prefix_re.match(words[0]):
            continue
        target = re.sub(r":\d.*$", "", words[0])  # drop a :line suffix
        if "<" in target:
            continue  # a placeholder such as src/<lib>
        candidates = [target] + [target + ext
                                 for ext in (".h", ".cc", ".cpp", ".py")]
        if not any(glob.glob(os.path.join(root, c)) for c in candidates):
            errors.append("%s:%d names `%s`, which does not exist"
                          % (doc, lineno, target))


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", " ", text)


def scope_bodies(text, name):
    """Bodies of every class/struct/enum/namespace `name` definition."""
    head_re = re.compile(
        r"\b(?:class|struct|enum(?:\s+class)?|namespace)\s+%s\b[^;{]*\{"
        % re.escape(name))
    for m in head_re.finditer(text):
        depth, i = 1, m.end()
        while depth and i < len(text):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        yield text[m.end():i]


def check_doc_members(root, errors):
    """Backticked Class::Member references must name a real member."""
    sources = []
    for base in ("src", "bench", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(root, base)):
            for name in names:
                if name.endswith((".h", ".cc", ".cpp")):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8", errors="replace") as f:
                        sources.append(strip_comments(f.read()))
    ref_re = re.compile(r"^([A-Za-z_]\w*)::(~?[A-Za-z_]\w*)")
    for doc, lineno, text in backticked(root):
        m = ref_re.match(text)
        if not m or m.group(1) == "std":
            continue
        owner, member = m.groups()
        member_re = re.compile(r"(?<![\w~])%s\b" % re.escape(member))
        qualified_re = re.compile(r"\b%s::%s\b"
                                  % (re.escape(owner), re.escape(member)))
        found = any(
            qualified_re.search(src) or
            any(member_re.search(body) for body in scope_bodies(src, owner))
            for src in sources)
        if not found:
            errors.append("%s:%d names `%s::%s`, which is not a member "
                          "under src/, bench/ or perfbench/"
                          % (doc, lineno, owner, member))


def main(argv):
    root = os.path.abspath(
        argv[1] if len(argv) > 1
        else os.path.join(os.path.dirname(__file__), os.pardir))
    errors = []
    check_architecture(root, errors)
    check_design_refs(root, errors)
    check_design_anchors(root, errors)
    check_changes(root, errors)
    check_baseline_experiments(root, errors)
    check_readme_links(root, errors)
    check_test_registration(root, errors)
    check_doc_paths(root, errors)
    check_doc_members(root, errors)
    if errors:
        return fail(errors)
    print("documentation checks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
