//! Hostile-input property tests for the runtime's JSON surfaces.
//!
//! The distributed backend makes the parser network-facing: `ASSIGN` and
//! `PEERS` payloads and `TRACE` flight dumps are JSON, and can arrive over a
//! socket from a peer that was SIGKILLed mid-write or is simply hostile.
//! (Binary payloads go through `proc::Reader`, whose metrics decoding
//! `tests/props.rs` attacks the same way.) The contract under
//! test: every byte sequence either parses or yields a *typed* error
//! ([`json::JsonError`]) — **never** a panic, never an unbounded
//! allocation.

use proptest::prelude::*;
use ssp_runtime::json;

/// The character soup JSON documents are made of.
const JSONISH: &[u8] = b"{}[]\",:0123456789eE+-.ntf\\ ";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser is a total function over arbitrary bytes.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(0u16..256, 0..512),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text); // Ok or Err — reaching here is the property.
    }

    /// JSON-shaped garbage (braces, quotes, digits, escapes) never panics
    /// and never hangs on pathological nesting.
    #[test]
    fn jsonish_garbage_never_panics(
        picks in prop::collection::vec(0usize..JSONISH.len(), 0..300),
    ) {
        let s: String = picks.into_iter().map(|i| JSONISH[i] as char).collect();
        let _ = json::parse(&s);
    }
}

/// Deterministic spot-checks for the cases that have bitten JSON parsers
/// elsewhere: deep nesting (stack exhaustion) and huge scalars.
#[test]
fn deep_nesting_and_huge_scalars_are_rejected_not_fatal() {
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    assert!(json::parse(&deep).is_err(), "depth cap must reject 100k nesting");
    let huge = format!("{{\"step\":{}}}", "9".repeat(5000));
    let _ = json::parse(&huge); // numeric overflow must not panic
}
