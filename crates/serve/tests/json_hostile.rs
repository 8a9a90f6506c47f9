//! Hostile-input tests for the serve crate's JSON reader.
//!
//! Mutated predict and `:train` bodies (every truncation and byte
//! replacement, random splices and duplications) must come back from
//! `parse`, `parse_inputs` and `parse_train` as typed results, never a
//! panic; wherever `parse` accepts the document, the typed readers must
//! agree with a walk of its `Value` tree. Encoded rows must survive
//! bitwise through any whitespace, and pathological bodies (a megabyte
//! string, 10 000-deep nesting) must parse in bounded time and stack.

use edm_serve::json::{self, Value};
use proptest::prelude::*;
use proptest::TestRng;
use std::time::{Duration, Instant};

/// The predict and `:train` bodies the socket-level smoke tests send,
/// plus one exercising escapes, non-ASCII text and skipped keys, and
/// one repeating every key (the first occurrence wins).
const SEEDS: &[&str] = &[
    r#"{"inputs": [[0.15, 0.2], [2.05, 2.0]]}"#,
    r#"{"inputs": [[0.15, 0.2]]}"#,
    r#"{"inputs": [[1, 2, 3]]}"#,
    r#"{"inputs": [[1, 1]]}"#,
    r#"{"inputs": [[0.5, 0.5]]}"#,
    r#"{"family": "ridge", "inputs": [[0, 0], [1, 0], [0, 1], [1, 1]], "targets": [0, 5, 5, 10]}"#,
    r#"{"note": "éé😀 \"q\"", "inputs": [[-0.0, 1e-300]], "targets": null}"#,
    r#"{"inputs": [[1, 2]], "family": "a", "targets": [1], "inputs": [[3]], "family": 1, "targets": "x"}"#,
];

/// Bytes that change the meaning of a JSON document wherever they land.
const SHARP_BYTES: &[u8] = b"\"\\[]{},:-+0.eEnt \x01";

type Bits = Vec<Vec<u64>>;

fn bits(rows: &[Vec<f64>]) -> Bits {
    rows.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}

/// The rows a `Value` tree holds under `inputs`, if it has that shape.
fn tree_rows(inputs: Option<&Value>) -> Option<Vec<Vec<f64>>> {
    inputs?
        .as_array()?
        .iter()
        .map(|row| row.as_array()?.iter().map(Value::as_f64).collect())
        .collect()
}

/// The `:train` fields a `Value` tree holds, if it has that shape.
fn tree_train(doc: &Value) -> Option<(String, Bits, Vec<u64>)> {
    let family = doc.get("family")?.as_str()?.to_string();
    let rows = tree_rows(doc.get("inputs"))?;
    let targets: Vec<f64> = match doc.get("targets") {
        None | Some(Value::Null) => Vec::new(),
        Some(v) => v.as_array()?.iter().map(Value::as_f64).collect::<Option<_>>()?,
    };
    Some((family, bits(&rows), targets.iter().map(|t| t.to_bits()).collect()))
}

/// Runs every reader on `body`. Each must return, with any error
/// offset inside the body; on a document `parse` accepts, the typed
/// readers must agree with the tree walk.
fn check(body: &str) {
    let doc = json::parse(body);
    let inputs = json::parse_inputs(body);
    let train = json::parse_train(body);
    for offset in [doc.as_ref().err(), inputs.as_ref().err(), train.as_ref().err()]
        .into_iter()
        .flatten()
        .map(|e| e.offset)
    {
        assert!(offset <= body.len(), "error offset {offset} past the end of {body:?}");
    }
    if let Ok(doc) = doc {
        assert_eq!(
            inputs.ok().map(|rows| bits(&rows)),
            tree_rows(doc.get("inputs")).map(|rows| bits(&rows)),
            "parse_inputs disagrees with the tree on {body:?}"
        );
        assert_eq!(
            train.ok().map(|(family, rows, targets)| {
                (family, bits(&rows), targets.iter().map(|t| t.to_bits()).collect())
            }),
            tree_train(&doc),
            "parse_train disagrees with the tree on {body:?}"
        );
    }
}

fn check_bytes(bytes: &[u8]) {
    check(&String::from_utf8_lossy(bytes));
}

#[test]
fn seeds_parse_and_agree_with_the_tree() {
    for seed in SEEDS {
        assert!(json::parse(seed).is_ok(), "seed {seed:?} must be valid JSON");
        assert!(json::parse_inputs(seed).is_ok(), "seed {seed:?} carries inputs");
        check(seed);
    }
}

#[test]
fn every_truncation_is_a_typed_result() {
    for seed in SEEDS {
        for end in 0..=seed.len() {
            check_bytes(&seed.as_bytes()[..end]);
        }
    }
}

#[test]
fn every_sharp_byte_replacement_is_a_typed_result() {
    for seed in SEEDS {
        let mut bytes = seed.as_bytes().to_vec();
        for at in 0..bytes.len() {
            let original = bytes[at];
            for &b in SHARP_BYTES {
                bytes[at] = b;
                check_bytes(&bytes);
            }
            bytes[at] = original;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_byte_replacements_are_typed_results(
        seed in 0..SEEDS.len(), at in 0usize..4096, byte in 0u8..255
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        check_bytes(&bytes);
    }

    #[test]
    fn splices_are_typed_results(
        a in 0..SEEDS.len(), b in 0..SEEDS.len(), cut_a in 0usize..4096, cut_b in 0usize..4096
    ) {
        let (a, b) = (SEEDS[a].as_bytes(), SEEDS[b].as_bytes());
        let mut bytes = a[..cut_a % (a.len() + 1)].to_vec();
        bytes.extend_from_slice(&b[cut_b % (b.len() + 1)..]);
        check_bytes(&bytes);
    }

    #[test]
    fn duplications_are_typed_results(
        seed in 0..SEEDS.len(), from in 0usize..4096, len in 0usize..32, to in 0usize..4096
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        let from = from % bytes.len();
        let piece = bytes[from..(from + len).min(bytes.len())].to_vec();
        let to = to % (bytes.len() + 1);
        bytes.splice(to..to, piece);
        check_bytes(&bytes);
    }
}

/// A finite `f64`, weighted toward the values that break float
/// printing and parsing: signed zeros, subnormals, the extremes.
struct Cell;

impl Strategy for Cell {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        const SPECIAL: [f64; 8] =
            [0.0, -0.0, f64::MAX, -f64::MAX, f64::MIN_POSITIVE, 5e-324, -2.5e-310, 1.0];
        match rng.below(3) {
            0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            1 => loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            },
            _ => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(41) as i32 - 20),
        }
    }
}

/// `compact` with 0–2 random whitespace bytes around every structural
/// character (the document holds no string containing one).
fn with_whitespace(compact: &str, rng: &mut TestRng) -> String {
    fn pad(out: &mut String, rng: &mut TestRng) {
        for _ in 0..rng.below(3) {
            out.push([' ', '\t', '\n', '\r'][rng.below(4) as usize]);
        }
    }
    let mut out = String::new();
    pad(&mut out, rng);
    for c in compact.chars() {
        if matches!(c, ']' | '}') {
            pad(&mut out, rng);
        }
        out.push(c);
        if matches!(c, '{' | '[' | ',' | ':') {
            pad(&mut out, rng);
        }
    }
    pad(&mut out, rng);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rows_survive_encoding_bitwise(
        rows in collection::vec(collection::vec(Cell, 0..17), 0..9), ws_seed in 0u64..u64::MAX
    ) {
        let doc = Value::Object(vec![(
            "inputs".to_string(),
            Value::Array(
                rows.iter()
                    .map(|row| Value::Array(row.iter().map(|&v| Value::Number(v)).collect()))
                    .collect(),
            ),
        )]);
        let body = with_whitespace(&doc.encode(), &mut TestRng::new(ws_seed));
        let parsed = json::parse_inputs(&body).expect("an encoded matrix parses");
        prop_assert_eq!(bits(&parsed), bits(&rows), "{}", body);
        check(&body);
    }
}

/// Parses `body` with all three readers, each within `limit`.
fn assert_parses_within(body: &str, limit: Duration) {
    for (name, reader) in [
        ("parse", (|b| json::parse(b).map(drop)) as fn(&str) -> Result<(), json::JsonError>),
        ("parse_inputs", |b| json::parse_inputs(b).map(drop)),
        ("parse_train", |b| json::parse_train(b).map(drop)),
    ] {
        let start = Instant::now();
        let _ = reader(body);
        let took = start.elapsed();
        assert!(took < limit, "{name} took {took:?} on a {}-byte body", body.len());
    }
}

#[test]
fn megabyte_strings_parse_in_linear_time() {
    // Both run shapes: one unescaped run, and a run of escapes.
    for unit in ["a", "\\\""] {
        let note = unit.repeat((1 << 20) / unit.len() - 64);
        let body = format!(r#"{{"inputs": [[1.4, 1.6]], "note": "{note}"}}"#);
        assert!(body.len() < 1 << 20, "stays under the default max_body_bytes");
        assert_eq!(json::parse_inputs(&body).expect("valid body"), vec![vec![1.4, 1.6]]);
        assert_parses_within(&body, Duration::from_secs(2));
    }
}

#[test]
fn deep_nesting_in_a_skipped_key_is_an_error_not_a_stack_overflow() {
    for (open, close) in [("[", "]"), (r#"{"k":"#, "}")] {
        let deep = open.repeat(10_000) + "1" + &close.repeat(10_000);
        let body = format!(r#"{{"x": {deep}, "inputs": [[1]], "family": "ridge"}}"#);
        assert!(json::parse(&body).is_err());
        assert!(json::parse_inputs(&body).is_err());
        assert!(json::parse_train(&body).is_err());
        assert_parses_within(&body, Duration::from_secs(2));
    }
}
