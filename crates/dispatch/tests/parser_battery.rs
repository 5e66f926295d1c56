//! Parser battery for the dispatcher's two text inputs: hosts files
//! ([`HostPool::parse`]) and `--fault` specs ([`parse_spec`]). Neither
//! may panic on any input — arbitrary bytes or mutations of valid
//! documents — and whatever they accept must satisfy the invariants the
//! dispatcher and transports index by (non-empty exec prefixes and fetch
//! commands, a slot total that fits, a bounded fault plan).
//!
//! Inputs come from the proptest shim's deterministic [`TestRng`], so a
//! failure names an input that reproduces on every run.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wcs_dispatch::fault::{parse_spec, MAX_SPAWN_FAILS};
use wcs_dispatch::{HostKind, HostPool};

const CASES: usize = 4000;

const HOSTS_DOCS: [&str; 4] = [
    "# fleet\nlocal\nlocal slots=2\n",
    "exec ssh user@hostA\nexec slots=4 exe=/opt/bin/repro ssh user@hostB  # comment\n",
    "exec fetch=\"scp hostC:{path} {path}\" ssh user@hostC\n",
    "local slots=4096\nexec slots=3 env\n",
];

const FAULT_SPECS: [&str; 5] = [
    "kill:1@2",
    "spawn-fail:0",
    "spawn-fail:2x3",
    "mute:4",
    "kill:0@0",
];

/// Fragments the mutator splices in: the grammars' own keywords and
/// delimiters, so mutants stay near the interesting boundaries.
const TOKENS: [&str; 20] = [
    "local",
    "exec",
    "slots=",
    "exe=",
    "fetch=",
    "\"",
    "#",
    " ",
    "\n",
    "{path}",
    "kill",
    "spawn-fail",
    "mute",
    ":",
    "@",
    "x",
    "=",
    "\t",
    "é",
    "\u{0}",
];

/// Numbers a mutation may put in place of a digit run: bounds of the
/// accepted ranges and of the integer types the parsers read into.
const NUMBERS: [&str; 8] = [
    "0",
    "1",
    "1000",
    "1001",
    "4097",
    "4294967295",
    "18446744073709551615",
    "18446744073709551616",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// Up to 120 arbitrary bytes, read as the parsers' `&str` input.
fn arbitrary_text(rng: &mut TestRng) -> String {
    let len = below(rng, 121);
    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Apply one to three random edits to `doc`.
fn mutate(rng: &mut TestRng, doc: &str) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for _ in 0..1 + below(rng, 3) {
        let at = below(rng, chars.len() + 1);
        match rng.next_u64() % 5 {
            0 if !chars.is_empty() => {
                let end = (at + 1 + below(rng, 4)).min(chars.len());
                chars.drain(at.min(end)..end);
            }
            1 => {
                let tok = pick(rng, &TOKENS);
                chars.splice(at..at, tok.chars());
            }
            2 if !chars.is_empty() => {
                let i = at.min(chars.len() - 1);
                chars[i] = pick(rng, &TOKENS).chars().next().unwrap_or(' ');
            }
            3 => {
                // Replace the digit run at or after `at` with a boundary
                // number.
                let Some(start) = (at..chars.len()).find(|&i| chars[i].is_ascii_digit()) else {
                    continue;
                };
                let end = (start..chars.len())
                    .find(|&i| !chars[i].is_ascii_digit())
                    .unwrap_or(chars.len());
                chars.splice(start..end, pick(rng, &NUMBERS).chars());
            }
            _ => {
                let end = (at + below(rng, 8)).min(chars.len());
                let copy: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, copy);
            }
        }
    }
    chars.into_iter().collect()
}

fn check_hosts(text: &str) {
    let parsed = catch_unwind(AssertUnwindSafe(|| HostPool::parse(text)));
    let Ok(result) = parsed else {
        panic!("HostPool::parse panicked on {text:?}");
    };
    let Ok(pool) = result else { return };
    let total = catch_unwind(AssertUnwindSafe(|| pool.total_slots()));
    assert!(total.is_ok(), "total_slots panicked for {text:?}");
    for host in &pool.hosts {
        assert!(host.slots >= 1, "zero-slot host from {text:?}");
        if let HostKind::Exec { prefix, fetch, .. } = &host.kind {
            assert!(!prefix.is_empty(), "empty exec prefix from {text:?}");
            assert!(
                fetch.as_ref().is_none_or(|f| !f.is_empty()),
                "empty fetch command from {text:?}"
            );
        }
    }
}

fn check_fault(text: &str) {
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_spec(text)));
    let Ok(result) = parsed else {
        panic!("parse_spec panicked on {text:?}");
    };
    if let Ok(entries) = result {
        assert!(
            !entries.is_empty() && entries.len() <= MAX_SPAWN_FAILS,
            "{} fault entries from {text:?}",
            entries.len()
        );
    }
}

#[test]
fn hosts_parser_never_panics_on_arbitrary_bytes() {
    let mut rng = TestRng::new(name_seed("hosts-arbitrary"));
    for _ in 0..CASES {
        check_hosts(&arbitrary_text(&mut rng));
    }
}

#[test]
fn hosts_parser_never_panics_on_mutated_documents() {
    let mut rng = TestRng::new(name_seed("hosts-mutated"));
    for _ in 0..CASES {
        let doc = pick(&mut rng, &HOSTS_DOCS);
        check_hosts(&mutate(&mut rng, doc));
    }
}

#[test]
fn fault_parser_never_panics_on_arbitrary_bytes() {
    let mut rng = TestRng::new(name_seed("fault-arbitrary"));
    for _ in 0..CASES {
        check_fault(&arbitrary_text(&mut rng));
    }
}

#[test]
fn fault_parser_never_panics_on_mutated_specs() {
    let mut rng = TestRng::new(name_seed("fault-mutated"));
    for _ in 0..CASES {
        let spec = pick(&mut rng, &FAULT_SPECS);
        check_fault(&mutate(&mut rng, spec));
    }
}

/// Inputs the battery found crashing before the parsers bounded their
/// counts; each must now be a clean parse error.
#[test]
fn found_crashes_are_parse_errors() {
    // One fault entry per failed attempt: usize::MAX attempts overflowed
    // the entry vector's capacity.
    check_fault("spawn-fail:0x18446744073709551615");
    assert!(parse_spec("spawn-fail:0x18446744073709551615").is_err());
    // Two maximal slot counts overflowed `total_slots`.
    let text = "local slots=18446744073709551615\nlocal slots=18446744073709551615\n";
    check_hosts(text);
    assert!(HostPool::parse(text).is_err());
}
