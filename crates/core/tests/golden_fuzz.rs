//! Totality of the golden-trace parser: `golden::parse` returns `Ok` or a
//! located `Err` on any text, and never panics.
//!
//! Three kinds of input: random strings over a JSON alphabet (multibyte
//! characters, escapes and keywords included), truncations of committed
//! fixtures at character boundaries, and single-bit flips of a fixture,
//! re-decoded lossily as UTF-8. Inputs stay at a few KB: the parser
//! re-validates the rest of its input for every string character, so its
//! cost grows with the square of the input. `PROPTEST_CASES` lengthens a
//! campaign (64 cases per property by default).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower::golden;
use proptest::prelude::*;
use proptest::sample::select;

/// Committed fixtures of 2–3 KB.
const FIXTURES: [&str; 2] = [
    include_str!("../../../tests/golden/hwieci_evals.json"),
    include_str!("../../../tests/golden/hwcwei_evals8_g2.json"),
];

/// Pieces the random strings are built from: every byte class the parser
/// branches on, whole keywords and escapes, and characters of two, three
/// and four UTF-8 bytes.
const ALPHABET: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "\n", "\t", "\r", "0", "1", "7", "9", "-", "+",
    ".", "e", "E", "a", "f", "n", "r", "t", "u", "true", "false", "null", "NaN", "inf", "-inf",
    "\\n", "\\\"", "\\u00e9", "\\uD83D", "\\u12", "\"key\":", "é", "€", "ß", "😀", "\u{2028}",
    "\u{0}",
];

/// A parse outcome is acceptable when it is a value, or an error that
/// names the byte where the parser stopped.
fn assert_total(text: &str) -> Result<golden::Value, String> {
    let outcome = golden::parse(text);
    if let Err(message) = &outcome {
        assert!(
            message.starts_with("byte "),
            "error without a location: {message:?}"
        );
    }
    outcome
}

#[test]
fn intact_fixtures_parse() {
    for fixture in FIXTURES {
        assert!(golden::parse(fixture).is_ok());
    }
}

proptest! {
    #[test]
    fn random_json_alphabet_strings_never_panic(
        pieces in proptest::collection::vec(select(ALPHABET.to_vec()), 0usize..400)
    ) {
        let _ = assert_total(&pieces.concat());
    }

    #[test]
    fn truncated_fixtures_never_panic(
        fixture in select(FIXTURES.to_vec()),
        cut in 0.0f64..1.0,
    ) {
        let mut end = (fixture.len() as f64 * cut) as usize;
        while !fixture.is_char_boundary(end) {
            end -= 1;
        }
        let prefix = &fixture[..end];
        // Only a cut into the trailing whitespace leaves a whole value.
        if assert_total(prefix).is_ok() {
            prop_assert_eq!(prefix.trim_end(), fixture.trim_end());
        }
    }

    #[test]
    fn bit_flipped_fixtures_never_panic(
        fixture in select(FIXTURES.to_vec()),
        position in 0.0f64..1.0,
    ) {
        let at = ((fixture.len() as f64 * position) as usize).min(fixture.len() - 1);
        for bit in 0..8 {
            let mut bytes = fixture.as_bytes().to_vec();
            bytes[at] ^= 1 << bit;
            let _ = assert_total(&String::from_utf8_lossy(&bytes));
        }
    }
}
