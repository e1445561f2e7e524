//! Round-trip property tests for the `Schedule` print/parse contract.
//!
//! `bonsai-mc` failure reports print the schedule that reaches the
//! failure, and `Checker::replay` parses it back — so the dotted-index
//! format is a contract, pinned here property-style.

use bonsai_mc::Schedule;

/// `display(parse(s))` is canonical and `parse` is its left inverse.
fn roundtrip(s: &str) -> Schedule {
    let parsed: Schedule = s.parse().expect("parses");
    let printed = parsed.to_string();
    let reparsed: Schedule = printed.parse().expect("canonical form reparses");
    assert_eq!(reparsed, parsed, "{s:?} -> {printed:?} not a fixed point");
    parsed
}

#[test]
fn empty_forms_parse_to_the_default_schedule() {
    for s in ["", "   ", "(default)", " (default) "] {
        let parsed = roundtrip(s);
        assert!(parsed.choices().is_empty(), "{s:?}");
        assert_eq!(parsed, Schedule::default());
        assert_eq!(parsed.to_string(), "(default)");
    }
}

#[test]
fn single_step_roundtrips() {
    let parsed = roundtrip("7");
    assert_eq!(parsed.choices(), &[7]);
    assert_eq!(parsed.to_string(), "7");
}

#[test]
fn large_indices_roundtrip_exactly() {
    let max = usize::MAX;
    let s = format!("{max}.0.{max}");
    let parsed = roundtrip(&s);
    assert_eq!(parsed.choices(), &[max, 0, max]);
    assert_eq!(parsed.to_string(), s);
}

#[test]
fn interior_whitespace_is_tolerated_and_canonicalized() {
    let parsed = roundtrip(" 3 . 1 . 2 ");
    assert_eq!(parsed.choices(), &[3, 1, 2]);
    assert_eq!(parsed.to_string(), "3.1.2");
}

#[test]
fn randomized_schedules_roundtrip() {
    // xorshift64*: bonsai-mc deliberately has no dependencies, dev or
    // otherwise, so the property loop brings its own generator.
    let mut state = 0x9e37_79b9_97f4_a7c5_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for _ in 0..500 {
        let len = (next() % 20) as usize;
        let choices: Vec<usize> = (0..len)
            .map(|_| match next() % 3 {
                0 => (next() % 4) as usize,              // small, the common case
                1 => next() as usize,                    // full-width
                _ => usize::MAX - (next() % 2) as usize, // boundary
            })
            .collect();
        let rendered = if choices.is_empty() {
            "(default)".to_string()
        } else {
            choices
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(".")
        };
        let parsed = roundtrip(&rendered);
        assert_eq!(parsed.choices(), &choices[..], "{rendered:?}");
    }
}

#[test]
fn malformed_inputs_are_rejected_with_the_offending_component() {
    for bad in [
        "1..2",
        "a.b",
        "1.-2",
        "1.2.",
        ".",
        "0x10",
        "1,2",
        "(default).1",
        "18446744073709551616", // usize::MAX + 1 overflows the parse
    ] {
        let err = bad.parse::<Schedule>().expect_err(bad);
        assert!(err.starts_with("bad schedule component "), "{bad:?}: {err}");
    }
}
