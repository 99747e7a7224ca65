//! Protocol-conformance lint over `crates/core/src/proto.rs`.
//!
//! The wire protocol has 18 frame tags, each with exactly one encoding
//! (`DESIGN.md` §2). The compiler cannot see the pairing — a new
//! `TAG_*` constant with an encode arm but no decode arm builds cleanly
//! and strands every peer. This pass extracts the frame-tag constants
//! and verifies, purely statically:
//!
//! * `tag-duplicate` — every `const TAG_*: u8` value is unique;
//! * `tag-unencoded` / `tag-undecoded` — every tag is referenced from
//!   both an encode body and a decode body.

use crate::scan::{Finding, ScannedFile};

/// Every rule this pass can emit.
pub const RULES: &[&str] = &[
    "tag-duplicate",
    "tag-unencoded",
    "tag-undecoded",
    "proto-structure",
];

/// A `(start, end)` 0-based inclusive line range of one function body.
#[derive(Clone, Copy, Debug)]
struct Region {
    start: usize,
    end: usize,
}

/// Brace-matched body regions of functions whose name is in `names`.
fn fn_regions(file: &ScannedFile, names: &[&str]) -> Vec<Region> {
    let mut regions = Vec::new();
    for (idx, line) in file.masked_lines.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        if !names
            .iter()
            .any(|n| line.contains(&format!("fn {n}(")) || line.contains(&format!("fn {n}<")))
        {
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = idx;
        while j < file.masked_lines.len() {
            for ch in file.masked_lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        regions.push(Region { start: idx, end: j });
    }
    regions
}

fn appears_in(file: &ScannedFile, regions: &[Region], word: &str, skip_line: usize) -> bool {
    regions.iter().any(|r| {
        (r.start..=r.end.min(file.masked_lines.len() - 1)).any(|i| {
            i != skip_line && !ScannedFile::word_positions(&file.masked_lines[i], word).is_empty()
        })
    })
}

/// Parses `const TAG_*: u8 = N;` declarations (optionally `pub`),
/// returning `(name, value, 0-based line)`.
fn tag_consts(file: &ScannedFile) -> Vec<(String, u8, usize)> {
    let mut out = Vec::new();
    for (idx, line) in file.masked_lines.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        let Some(at) = line.find("const ") else {
            continue;
        };
        let rest = &line[at + "const ".len()..];
        let name: String = rest
            .chars()
            .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
            .collect();
        if !name.starts_with("TAG_") {
            continue;
        }
        let Some(tail) = rest[name.len()..]
            .trim_start()
            .strip_prefix(':')
            .map(str::trim_start)
        else {
            continue;
        };
        let Some(assign) = tail.strip_prefix("u8").map(str::trim_start) else {
            continue;
        };
        let Some(value_str) = assign.strip_prefix('=').map(str::trim_start) else {
            continue;
        };
        let digits: String = value_str
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(v) = digits.parse::<u8>() {
            out.push((name, v, idx));
        }
    }
    out
}

/// Runs the conformance rules over the protocol source file.
pub fn check(file: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let push = |line: usize, rule: &str, message: String, findings: &mut Vec<Finding>| {
        findings.push(Finding {
            file: file.rel_path.clone(),
            line: line + 1,
            rule: rule.to_string(),
            message,
        });
    };

    let tags = tag_consts(file);
    if tags.is_empty() {
        push(
            0,
            "proto-structure",
            "no `const TAG_*: u8` frame-tag constants found; the conformance \
             pass has nothing to verify"
                .to_string(),
            &mut findings,
        );
        return findings;
    }

    // Tag values must be unique.
    for (i, (name, value, line)) in tags.iter().enumerate() {
        if let Some((other, _, _)) = tags[..i].iter().find(|(_, v, _)| v == value) {
            push(
                *line,
                "tag-duplicate",
                format!("frame tag {name} reuses wire value {value} of {other}"),
                &mut findings,
            );
        }
    }

    let encode_regions = fn_regions(file, &["encode", "encode_into"]);
    let decode_regions = fn_regions(file, &["decode"]);
    if encode_regions.is_empty() || decode_regions.is_empty() {
        push(
            0,
            "proto-structure",
            "could not locate encode/decode function bodies".to_string(),
            &mut findings,
        );
        return findings;
    }

    for (name, _, line) in &tags {
        if !appears_in(file, &encode_regions, name, *line) {
            push(
                *line,
                "tag-unencoded",
                format!("frame tag {name} is never written by an encode path"),
                &mut findings,
            );
        }
        if !appears_in(file, &decode_regions, name, *line) {
            push(
                *line,
                "tag-undecoded",
                format!("frame tag {name} has no decode match arm"),
                &mut findings,
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::new("core", "crates/core/src/proto.rs", src)
    }

    const GOOD: &str = "\
const TAG_REQUEST: u8 = 0;
const TAG_OFFER: u8 = 1;
impl Msg {
    pub fn encode(&self) -> Bytes {
        b.put_u8(TAG_REQUEST);
        b.put_u8(TAG_OFFER);
    }
    pub fn decode(buf: Bytes) -> Result<Self> {
        match get_u8(&mut buf)? {
            TAG_REQUEST => req(),
            TAG_OFFER => offer(),
            t => err(t),
        }
    }
}
";

    #[test]
    fn clean_protocol_passes() {
        let f = check(&scan(GOOD));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn duplicate_tag_values_are_flagged() {
        let src = GOOD.replace("const TAG_OFFER: u8 = 1;", "const TAG_OFFER: u8 = 0;");
        let f = check(&scan(&src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "tag-duplicate");
    }

    #[test]
    fn tag_without_decode_arm_is_flagged() {
        let src = GOOD.replace("TAG_OFFER => offer(),", "");
        let f = check(&scan(&src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "tag-undecoded");
        assert!(f[0].message.contains("TAG_OFFER"));
    }

    #[test]
    fn tag_without_encode_site_is_flagged() {
        let src = GOOD.replace("b.put_u8(TAG_OFFER);", "");
        let f = check(&scan(&src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "tag-unencoded");
    }

    #[test]
    fn missing_tag_constants_fail_structurally() {
        let f = check(&scan("fn encode() {} fn decode() {}"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "proto-structure");
    }

    #[test]
    fn commented_out_arms_do_not_count() {
        let src = GOOD.replace(
            "TAG_OFFER => offer(),",
            "// TAG_OFFER => offer(), (disabled)",
        );
        let f = check(&scan(&src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "tag-undecoded");
    }
}
