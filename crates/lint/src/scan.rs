//! Workspace file discovery and lint orchestration.
//!
//! Linting is a two-pass pipeline:
//!
//! 1. **Analyze** every in-scope file once: lex and strip test regions.
//! 2. **Check**: per-file token rules, then suppression resolution over
//!    the combined violation list — which is also where *unused*
//!    `allow(...)` directives are detected and reported under EF-L000 (a
//!    suppression that silences nothing is stale documentation at best
//!    and a hidden hole at worst).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, strip_test_regions, AllowDirective, LexedFile, Token};
use crate::rules::{check_tokens, rule_info, META_RULE};

/// One attributed violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id.
    pub rule: String,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Description.
    pub message: String,
}

/// Result of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Violations, ordered by file then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of suppressions that actually silenced a diagnostic.
    pub allows_used: usize,
}

impl LintReport {
    /// `true` when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Everything pass 1 computes for one source file.
#[derive(Debug, Clone)]
struct FileAnalysis {
    /// The crate the file belongs to (directory name under `crates/`).
    crate_name: String,
    /// Workspace-relative path, `/`-separated.
    file: String,
    /// Raw lexer output (tokens incl. test regions, allow directives).
    lexed: LexedFile,
    /// Token stream with test-only regions removed; rules run on this.
    stripped: Vec<Token>,
}

impl FileAnalysis {
    /// Runs pass 1 on one source string.
    fn new(crate_name: &str, file: &str, src: &str) -> Self {
        let lexed = lex(src);
        let stripped = strip_test_regions(&lexed.tokens);
        FileAnalysis {
            crate_name: crate_name.to_string(),
            file: file.to_string(),
            lexed,
            stripped,
        }
    }
}

/// Lints every in-scope source file under `root` (a workspace checkout).
///
/// Scanned: `crates/*/src/**/*.rs` and the facade's `src/**/*.rs`. The
/// vendored dependency shims (`shims/`), tests, benches, and examples are
/// out of scope — rules gate the guarantee-critical product code only.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            collect_rs_files(&dir.join("src"), &mut files, &name);
        }
    }
    collect_rs_files(&root.join("src"), &mut files, "elasticflow");
    let mut analyses = Vec::with_capacity(files.len());
    for (crate_name, path) in files {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        analyses.push(FileAnalysis::new(&crate_name, &rel, &src));
    }
    Ok(lint_analyses(&analyses))
}

/// Lints a set of in-memory sources `(crate_name, rel_path, src)`. This is
/// the full pipeline — the workspace scan above runs it on files read
/// from disk.
pub(crate) fn lint_files(files: &[(&str, &str, &str)]) -> LintReport {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(c, f, s)| FileAnalysis::new(c, f, s))
        .collect();
    lint_analyses(&analyses)
}

/// Lints a single source string as though it lived in `crate_name`.
/// Exposed for the rule/property tests.
pub fn lint_source(src: &str, crate_name: &str, file: &str) -> Vec<Violation> {
    lint_files(&[(crate_name, file, src)]).violations
}

/// Pass 2: rules, then suppression resolution.
fn lint_analyses(analyses: &[FileAnalysis]) -> LintReport {
    let mut report = LintReport {
        files_scanned: analyses.len(),
        ..LintReport::default()
    };
    let mut all: Vec<Violation> = Vec::new();

    for fa in analyses {
        let mut raw = check_tokens(&fa.stripped, &fa.crate_name);

        // Malformed directives are themselves violations (meta-rule), on
        // every scanned file regardless of crate scope.
        for &line in &fa.lexed.malformed_allows {
            raw.push(crate::rules::RawViolation {
                rule: META_RULE,
                line,
                message: "malformed suppression: expected \
                          `elasticflow-lint: allow(EF-L00N): <justification>`"
                    .to_string(),
            });
        }
        // Allows naming unknown rules are malformed too (typo protection).
        for a in &fa.lexed.allows {
            if rule_info(&a.rule).is_none() {
                raw.push(crate::rules::RawViolation {
                    rule: META_RULE,
                    line: a.line,
                    message: format!("suppression names unknown rule `{}`", a.rule),
                });
            }
        }
        all.extend(raw.into_iter().map(|v| Violation {
            rule: v.rule.to_string(),
            file: fa.file.clone(),
            line: v.line,
            message: v.message,
        }));
    }

    // Suppression resolution over the combined list. Each well-formed
    // allow suppresses matching violations on its target line; an allow
    // of a *known* rule that suppresses nothing is reported (EF-L000) so
    // stale suppressions cannot rot in place. (Unknown-rule allows were
    // already reported above.)
    for fa in analyses {
        let token_lines: BTreeSet<u32> = fa.lexed.tokens.iter().map(|t| t.line).collect();
        for a in &fa.lexed.allows {
            if rule_info(&a.rule).is_none() {
                continue;
            }
            let target = allow_target(a, &token_lines);
            let before = all.len();
            all.retain(|v| !(v.file == fa.file && v.rule == a.rule && v.line == target));
            let silenced = before - all.len();
            if silenced > 0 {
                report.allows_used += silenced;
            } else {
                all.push(Violation {
                    rule: META_RULE.to_string(),
                    file: fa.file.clone(),
                    line: a.line,
                    message: format!(
                        "suppression `allow({})` matches no finding on line {} \
                         — remove it or fix the directive placement",
                        a.rule, target
                    ),
                });
            }
        }
    }

    all.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.message.cmp(&b.message))
    });
    report.violations = all;
    report
}

/// The line a directive suppresses.
fn allow_target(allow: &AllowDirective, token_lines: &BTreeSet<u32>) -> u32 {
    if allow.trailing {
        allow.line
    } else {
        token_lines
            .range(allow.line + 1..)
            .next()
            .copied()
            .unwrap_or(allow.line)
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<(String, PathBuf)>, crate_name: &str) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out, crate_name);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((crate_name.to_string(), path));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_allow_suppresses_next_line() {
        let src = "fn f() {\n    // elasticflow-lint: allow(EF-L002): zero is an exact sentinel\n    a == 0.0;\n}";
        assert!(lint_source(src, "core", "x.rs").is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_its_line() {
        let src = "fn f() { a == 0.0; } // elasticflow-lint: allow(EF-L002): demo justification";
        assert!(lint_source(src, "core", "x.rs").is_empty());
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress_and_is_itself_unused() {
        let src = "fn f() {\n    // elasticflow-lint: allow(EF-L005): wrong rule\n    a == 0.0;\n}";
        let v = lint_source(src, "core", "x.rs");
        assert_eq!(v.len(), 2);
        // The original diagnostic survives…
        assert!(v.iter().any(|v| v.rule == "EF-L002" && v.line == 3));
        // …and the ineffective allow is flagged as unused.
        assert!(v.iter().any(|v| v.rule == "EF-L000"
            && v.line == 2
            && v.message.contains("matches no finding")));
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "fn f() {\n    // elasticflow-lint: allow(EF-L002): stale, code was fixed\n    a.checked_op();\n}";
        let v = lint_source(src, "core", "x.rs");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "EF-L000");
        assert!(v[0].message.contains("allow(EF-L002)"));
    }

    #[test]
    fn used_allow_is_not_reported_as_unused() {
        let src =
            "fn f() {\n    // elasticflow-lint: allow(EF-L002): invariant holds\n    a == 0.0;\n}";
        let report = lint_files(&[("core", "x.rs", src)]);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn allow_does_not_leak_past_its_target_line() {
        let src = "fn f() {\n    // elasticflow-lint: allow(EF-L002): first only\n    a == 0.0;\n    b == 0.0;\n}";
        let v = lint_source(src, "core", "x.rs");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn malformed_allow_is_reported() {
        let src = "fn f() {\n    // elasticflow-lint: allow(EF-L002)\n    a == 0.0;\n}";
        let rules: Vec<String> = lint_source(src, "core", "x.rs")
            .into_iter()
            .map(|v| v.rule)
            .collect();
        assert!(rules.contains(&"EF-L000".to_string()));
        assert!(rules.contains(&"EF-L002".to_string()));
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        // EF-L001 is a clippy lint, so the lint knows no rule by that id.
        for rule in ["EF-L999", "EF-L001"] {
            let src = format!("// elasticflow-lint: allow({rule}): no such rule\nfn f() {{}}");
            let v = lint_source(&src, "core", "x.rs");
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].rule, "EF-L000");
        }
    }

    #[test]
    fn violation_carries_file_and_line() {
        let src = "fn f() {\n    a == 0.0;\n}";
        let v = lint_source(src, "sim", "crates/sim/src/engine.rs");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, "crates/sim/src/engine.rs");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn allow_of_ef_l006_is_an_unknown_rule() {
        // Snapshot coverage is a compiler check now (exhaustive patterns in
        // every capture and restore), so an EF-L006 allow on a state field
        // names no rule the lint knows.
        let src = "pub struct S {\n    a: u32,\n    \
                   // elasticflow-lint: allow(EF-L006): transient scratch, never persisted\n    \
                   b: u32,\n}\n";
        let v = lint_source(src, "sim", "crates/sim/src/s.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "EF-L000");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("unknown rule `EF-L006`"), "{v:?}");
    }
}
