//! DESIGN §10 must document exactly the rules the binary registers:
//! the rule table's names are diffed against `adcast-lint --list-rules`
//! so the docs and the registry cannot drift apart. §8's wire table is
//! held to the codec's constants the same way.

use std::process::Command;

/// Rule names from `--list-rules`, in registry order.
fn registered_rules() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_adcast-lint"))
        .arg("--list-rules")
        .output()
        .expect("run adcast-lint --list-rules");
    assert!(out.status.success(), "--list-rules exited nonzero");
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    text.lines()
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// The body of the DESIGN.md section headed `## {number}`.
fn design_section(number: &str) -> &'static str {
    let design = include_str!("../../../DESIGN.md");
    let heading = format!("\n## {number}");
    let start = design.find(&heading).expect("DESIGN.md has the section") + heading.len();
    let body = &design[start..];
    body.find("\n## ").map_or(body, |end| &body[..end])
}

/// Rule names from the first column of DESIGN §10's rule table, in
/// document order. Table rows look like: | `rule-name` | scope | invariant |
fn documented_rules() -> Vec<String> {
    design_section("10")
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn design_rule_table_matches_list_rules() {
    let registered = registered_rules();
    let documented = documented_rules();
    assert!(
        registered.len() >= 12,
        "expected at least 12 registered rules, got {registered:?}"
    );
    assert_eq!(
        documented, registered,
        "DESIGN §10's rule table (left) drifted from `adcast-lint \
         --list-rules` (right); update the table or the registry"
    );
}

#[test]
fn every_listed_rule_has_a_doc_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_adcast-lint"))
        .arg("--list-rules")
        .output()
        .expect("run adcast-lint --list-rules");
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let name = parts.next().unwrap_or_default();
        assert!(
            parts.next().is_some(),
            "rule `{name}` has no one-line doc in --list-rules"
        );
    }
}

#[test]
fn unknown_rule_exits_2_with_the_listing() {
    let out = Command::new(env!("CARGO_BIN_EXE_adcast-lint"))
        .args(["--rule", "no-such-rule"])
        .output()
        .expect("run adcast-lint --rule no-such-rule");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains("unknown rule"), "{err}");
    assert!(
        err.contains("rpc-exhaustive") && err.contains("unsafe-needs-safety"),
        "error should carry the full rule listing:\n{err}"
    );
}

/// DESIGN §8's wire table must state the codec's `VERSION` and the
/// request (`< 0x80`) and response (`0x80..0xFF`) ranges of its `K_*`
/// kind bytes, each one contiguous range.
#[test]
fn design_wire_table_matches_codec() {
    let codec = include_str!("../../net/src/codec.rs");
    fn value(line: &str) -> Option<&str> {
        line.split(" = ").nth(1).map(|v| v.trim_end_matches(';'))
    }
    let version = codec
        .lines()
        .find(|l| l.starts_with("pub const VERSION: u16 = "))
        .and_then(value)
        .expect("codec declares VERSION");
    let mut kinds: Vec<u8> = codec
        .lines()
        .filter(|l| l.contains("const K_") && l.contains(": u8 = "))
        .filter_map(value)
        .map(|v| match v.strip_prefix("0x") {
            Some(hex) => u8::from_str_radix(hex, 16).expect("hex kind"),
            None => v.parse().expect("decimal kind"),
        })
        .filter(|&k| k != 0xFF)
        .collect();
    kinds.sort_unstable();
    let (requests, responses) = kinds.split_at(kinds.partition_point(|&k| k < 0x80));
    let range = |ks: &[u8]| {
        let (lo, hi) = (ks[0], ks[ks.len() - 1]);
        assert_eq!(
            usize::from(hi - lo) + 1,
            ks.len(),
            "kinds {ks:?} have a gap"
        );
        (lo, hi)
    };
    let ((req_lo, req_hi), (resp_lo, resp_hi)) = (range(requests), range(responses));
    let row = |field: &str| {
        let prefix = format!("| `{field}` |");
        design_section("8.")
            .lines()
            .find(|l| l.starts_with(&prefix))
            .expect("§8 wire table row")
    };
    let want_version = format!("currently {version} ");
    assert!(
        row("version").contains(&want_version),
        "§8 must say {want_version:?}"
    );
    let want_kinds = format!(
        "request kinds `{req_lo}..={req_hi}`, response kinds `0x{resp_lo:02X}..=0x{resp_hi:02X}`"
    );
    assert!(
        row("kind").contains(&want_kinds),
        "§8 must say {want_kinds:?}"
    );
}
