//! The float-literal rule: walks the token stream of one library source
//! file and reports every `==` / `!=` directly against a float literal
//! (`float-eq`).
//!
//! Test, example and bench trees are skipped by the driver;
//! `#[cfg(test)]` / `#[test]` items inside library files, with any
//! waiver comments in them, are masked out here. A site whose exact comparison is intended is waived with
//!
//! ```text
//! // lint: allow(float-eq, reason = "fract() == 0.0 is the exact integer-ness test")
//! ```
//!
//! placed on the offending line or the line directly above it. The
//! reason is mandatory and must be non-empty. A `// lint:` comment that
//! does not parse is itself a violation (`waiver-syntax`), and so is a
//! waiver that covers no site (`stale-waiver`): once its comparison is
//! gone, the waiver must go too.

use crate::lexer::{lex, Comment, Token, TokenKind};

pub const RULE_FLOAT_EQ: &str = "float-eq";
pub const RULE_WAIVER: &str = "waiver-syntax";
pub const RULE_STALE: &str = "stale-waiver";

#[derive(Debug)]
pub struct Violation {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Outcome of linting one file.
pub struct FileReport {
    /// Unwaived float-literal comparisons, malformed waivers and stale
    /// waivers.
    pub violations: Vec<Violation>,
    /// Every well-formed waiver comment in the file.
    pub waivers: Vec<WaiverSite>,
}

/// One well-formed `lint: allow(float-eq, …)` waiver, with its
/// documented reason and whether it covered a comparison on its line or
/// the next (`used == false` marks a stale waiver).
#[derive(Debug)]
pub struct WaiverSite {
    pub line: u32,
    pub reason: String,
    pub used: bool,
}

/// Lints one library source file.
pub fn check_file(src: &str) -> FileReport {
    let out = lex(src);
    let mask = test_exempt_mask(&out.tokens);
    // A comment between two masked tokens sits in test code, whose
    // comparisons need no waiver, so its `lint:` comments are skipped.
    let masked = |k: usize| mask.get(k).copied().unwrap_or(false);
    let comments = out
        .comments
        .iter()
        .filter(|c| !(c.next_token > 0 && masked(c.next_token - 1) && masked(c.next_token)));
    let (mut waivers, mut violations) = parse_waivers(comments);
    for v in float_comparisons(&out.tokens, &mask) {
        match waivers
            .iter_mut()
            .find(|w| w.line == v.line || w.line + 1 == v.line)
        {
            Some(w) => w.used = true,
            None => violations.push(v),
        }
    }
    violations.extend(waivers.iter().filter(|w| !w.used).map(|w| Violation {
        rule: RULE_STALE,
        line: w.line,
        message: format!(
            "waiver covers no float-literal comparison on its line or the next; \
             remove it (reason: \"{}\")",
            w.reason
        ),
    }));
    violations.sort_by_key(|v| (v.line, v.rule));
    FileReport {
        violations,
        waivers,
    }
}

/// Extracts `lint: allow(float-eq, reason = "…")` waivers from comments.
/// A comment that starts with `lint:` but does not parse is itself a
/// violation — silent typos must not mint accidental permissions.
fn parse_waivers<'a>(
    comments: impl Iterator<Item = &'a Comment>,
) -> (Vec<WaiverSite>, Vec<Violation>) {
    let mut waivers = Vec::new();
    let mut violations = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("lint:") else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok(reason) => waivers.push(WaiverSite {
                line: c.line,
                reason,
                used: false,
            }),
            Err(why) => violations.push(Violation {
                rule: RULE_WAIVER,
                line: c.line,
                message: why,
            }),
        }
    }
    (waivers, violations)
}

/// Parses the body after `lint:` and returns the waiver's reason.
fn parse_allow(s: &str) -> Result<String, String> {
    const SHAPE: &str = "expected `lint: allow(float-eq, reason = \"…\")`";
    let body = s
        .strip_prefix("allow(")
        .and_then(|b| b.strip_suffix(')'))
        .ok_or_else(|| SHAPE.to_string())?;
    let (rule, reason_part) = body
        .split_once(',')
        .ok_or_else(|| format!("waiver is missing a `reason` clause; {SHAPE}"))?;
    let rule = rule.trim();
    if rule != RULE_FLOAT_EQ {
        return Err(format!(
            "unknown rule `{rule}` in waiver (only `{RULE_FLOAT_EQ}` is waivable here)"
        ));
    }
    let reason = reason_part
        .trim()
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("malformed `reason` clause; {SHAPE}"))?;
    if reason.trim().is_empty() {
        return Err("waiver reason must not be empty".to_string());
    }
    Ok(reason.to_string())
}

/// Marks tokens that belong to `#[cfg(test)]` / `#[test]` items so the
/// float rule skips test code embedded in library files. An attribute
/// counts as a test gate when it mentions the bare ident `test` without
/// a `not(…)` (so `#[cfg(not(test))]` stays linted).
fn test_exempt_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = if inner { i + 2 } else { i + 1 };
        if !tokens.get(open).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, open, '[', ']') else {
            break;
        };
        let body = &tokens[open + 1..close];
        let gates_test =
            body.iter().any(|t| t.is_ident("test")) && !body.iter().any(|t| t.is_ident("not"));
        if !gates_test {
            i = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]` applies to the enclosing scope; from a
            // file-level linter's view that is the rest of the file.
            for m in mask.iter_mut().skip(i) {
                *m = true;
            }
            return mask;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = close + 1;
        while tokens.get(j).is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(tokens, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let end = item_end(tokens, j);
        let stop = end.min(tokens.len().saturating_sub(1));
        for m in mask.iter_mut().take(stop + 1).skip(i) {
            *m = true;
        }
        i = stop + 1;
    }
    mask
}

/// Index of the delimiter matching `tokens[open]`.
fn matching(tokens: &[Token], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the last token of the item starting at `start`: either a
/// `;` at top level or the `}` closing the item's body.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut paren = 0usize;
    let mut bracket = 0usize;
    let mut k = start;
    while k < tokens.len() {
        match &tokens[k].kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren = paren.saturating_sub(1),
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
            TokenKind::Punct(';') if paren == 0 && bracket == 0 => return k,
            TokenKind::Punct('{') if paren == 0 && bracket == 0 => {
                return matching(tokens, k, '{', '}').unwrap_or(tokens.len() - 1);
            }
            _ => {}
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Every `==` / `!=` outside masked tokens with a float literal on
/// either side.
fn float_comparisons(tokens: &[Token], mask: &[bool]) -> Vec<Violation> {
    let is_float = |k: usize| tokens.get(k).is_some_and(|t| t.kind == TokenKind::Float);
    tokens
        .iter()
        .enumerate()
        .filter(|&(i, t)| {
            !mask.get(i).copied().unwrap_or(false)
                && matches!(t.kind, TokenKind::EqEq | TokenKind::Ne)
                && ((i > 0 && is_float(i - 1)) || is_float(i + 1))
        })
        .map(|(_, t)| Violation {
            rule: RULE_FLOAT_EQ,
            line: t.line,
            message: "exact equality against a float literal; compare with a tolerance \
                      or waive it with a reason"
                .to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str) -> Vec<(&'static str, u32)> {
        check_file(src)
            .violations
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn flags_float_eq_only_against_literals() {
        assert_eq!(
            violations("fn f() { if x == 0.0 {} }"),
            vec![(RULE_FLOAT_EQ, 1)]
        );
        assert_eq!(
            violations("fn f() { if 1e-6 != y {} }"),
            vec![(RULE_FLOAT_EQ, 1)]
        );
        assert!(violations("fn f() { if x == y {} }").is_empty());
        assert!(violations("fn f() { if x == 0 {} }").is_empty());
        assert!(violations("fn f() { if x <= 0.0 {} }").is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x == 0.0; y != 1.0; }\n}\nfn lib2() { z == 0.0; }\n";
        assert_eq!(violations(src), vec![(RULE_FLOAT_EQ, 6)]);
    }

    #[test]
    fn waivers_inside_test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    // lint: allow(float-eq, reason = \"stale\")\n    // lint: allow(float-eq)\n    fn t() {}\n}\n// lint: allow(float-eq, reason = \"stale\")\nfn lib() {}\n";
        assert_eq!(violations(src), vec![(RULE_STALE, 7)]);
    }

    #[test]
    fn cfg_test_with_stacked_attributes() {
        let src = "#[cfg(test)]\n#[expect(dead_code)]\nmod tests { fn t() { x == 0.0; } }\n";
        assert!(violations(src).is_empty());
    }

    #[test]
    fn test_attribute_exempts_single_fn() {
        let src = "#[test]\nfn t() { x == 0.0; }\nfn lib() { y == 0.0; }\n";
        assert_eq!(violations(src), vec![(RULE_FLOAT_EQ, 3)]);
    }

    #[test]
    fn cfg_not_test_stays_linted() {
        let src = "#[cfg(not(test))]\nfn lib() { x == 0.0; }\n";
        assert_eq!(violations(src), vec![(RULE_FLOAT_EQ, 2)]);
    }

    #[test]
    fn waiver_on_previous_line_covers_site() {
        let src =
            "fn f() {\n    // lint: allow(float-eq, reason = \"exact zero\")\n    x == 0.0;\n}\n";
        let rep = check_file(src);
        assert!(rep.violations.is_empty());
        assert!(rep.waivers[0].used);
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "fn f() {\n    x == 0.0; // lint: allow(float-eq, reason = \"exact zero\")\n}\n";
        let rep = check_file(src);
        assert!(rep.violations.is_empty());
        assert!(rep.waivers[0].used);
    }

    #[test]
    fn waiver_sites_carry_reason_and_usage() {
        let src = "fn f() {\n    // lint: allow(float-eq, reason = \"exact zero\")\n    x == 0.0;\n    // lint: allow(float-eq, reason = \"stale\")\n}\n";
        let rep = check_file(src);
        assert_eq!(rep.waivers.len(), 2);
        assert_eq!(rep.waivers[0].reason, "exact zero");
        assert!(rep.waivers[0].used, "covering waiver must read as used");
        assert!(!rep.waivers[1].used, "idle waiver must read as stale");
    }

    #[test]
    fn stale_waiver_is_a_violation() {
        let src = "fn f() {\n    // lint: allow(float-eq, reason = \"the comparison moved away\")\n    x <= 0.0;\n}\n";
        let [v] = &check_file(src).violations[..] else {
            panic!("expected exactly one violation");
        };
        assert_eq!((v.rule, v.line), (RULE_STALE, 2));
        assert!(v.message.contains("the comparison moved away"));
    }

    #[test]
    fn waiver_does_not_leak_to_later_lines() {
        let src = "fn f() {\n    // lint: allow(float-eq, reason = \"only the next line\")\n    x == 0.0;\n    y == 0.0;\n}\n";
        assert_eq!(violations(src), vec![(RULE_FLOAT_EQ, 4)]);
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_apply() {
        let src =
            "fn f() {\n    // lint: allow(no-panic, reason = \"mismatched\")\n    x == 0.0;\n}\n";
        assert_eq!(violations(src), vec![(RULE_WAIVER, 2), (RULE_FLOAT_EQ, 3)]);
    }

    #[test]
    fn malformed_waivers_are_violations() {
        for src in [
            "// lint: allow(float-eq)\n",
            "// lint: allow(float-eq, reason = \"\")\n",
            "// lint: allow(bogus-rule, reason = \"x\")\n",
            "// lint: permit(float-eq, reason = \"x\")\n",
        ] {
            assert_eq!(violations(src), vec![(RULE_WAIVER, 1)], "src: {src}");
        }
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src =
            "fn f() -> &'static str {\n    // x == 0.0 in a comment\n    \"say x == 0.0\"\n}\n";
        assert!(violations(src).is_empty());
    }
}
