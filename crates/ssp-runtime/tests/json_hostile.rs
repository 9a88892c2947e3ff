//! Hostile-input property tests for the runtime's JSON surfaces.
//!
//! The distributed backend makes these readers network-facing: a metrics
//! dump (`ssp-dist` workers ship one in every `GROUP_DONE` frame) can
//! arrive over a socket from a peer that was SIGKILLed mid-write, is
//! running a different version, or is simply hostile. The contract under
//! test: every byte sequence either parses or yields a *typed* error
//! ([`json::JsonError`]) — **never** a panic, never an unbounded
//! allocation.

use proptest::prelude::*;
use ssp_runtime::json;
use ssp_runtime::{run_simulated, ChannelId, Effect, Process, RoundRobin, RunMetrics, Topology};

/// A deterministic two-rank ping-pong, just enough to mint real metrics
/// documents with traffic on both channels.
struct Pinger {
    rank: usize,
    rounds: u64,
    sent: u64,
    got: u64,
    waiting: bool,
}

impl Process for Pinger {
    type Msg = u64;

    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        if let Some(m) = delivery {
            self.got = self.got.wrapping_mul(37).wrapping_add(m);
            self.waiting = false;
        }
        if self.waiting {
            return Effect::Recv { chan: ChannelId(1 - self.rank) };
        }
        if self.sent == self.rounds {
            return Effect::Halt;
        }
        self.sent += 1;
        if self.rank == 0 && self.sent > self.got.count_ones() as u64 {
            // Interleave a receive so both queue directions get exercised.
            self.waiting = true;
        }
        Effect::Send { chan: ChannelId(self.rank), msg: self.sent * 10 + self.rank as u64 }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.got.to_le_bytes().to_vec();
        b.extend_from_slice(&self.sent.to_le_bytes());
        b
    }

    fn msg_size_bytes(_msg: &u64) -> u64 {
        8
    }
}

/// The metrics document of a real run of `rounds` ping-pong rounds.
fn metrics_json(rounds: u64) -> String {
    let mut topo = Topology::new(2);
    topo.connect(0, 1);
    topo.connect(1, 0);
    let procs = (0..2).map(|rank| Pinger { rank, rounds, sent: 0, got: 0, waiting: false });
    let out = run_simulated(topo, procs.collect(), &mut RoundRobin::new()).unwrap();
    out.metrics.to_json()
}

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

    /// The metrics reader (GROUP_DONE payloads carry this JSON) is total
    /// over truncations and mutations of real documents.
    #[test]
    fn metrics_json_reader_is_total(
        rounds in 0u64..8,
        cut_frac in 0.0f64..1.0,
        pos_frac in 0.0f64..1.0,
        byte in 0u16..256,
    ) {
        let byte = byte as u8;
        let full = metrics_json(rounds);
        prop_assert!(RunMetrics::from_json(&full).is_ok(), "the intact document reads back");
        let cut = ((full.len() as f64) * cut_frac) as usize;
        let mut t = cut.min(full.len());
        while !full.is_char_boundary(t) { t -= 1; }
        let _ = RunMetrics::from_json(&full[..t]);
        let mut bytes = full.clone().into_bytes();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] = byte;
        let _ = RunMetrics::from_json(&String::from_utf8_lossy(&bytes));
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
    assert!(RunMetrics::from_json(&deep).is_err());
}
