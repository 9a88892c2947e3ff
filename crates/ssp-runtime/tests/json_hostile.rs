//! Hostile-input property tests for the runtime's JSON surfaces.
//!
//! The distributed backend (PR 7) makes these readers network-facing: a
//! checkpoint manifest or metrics dump can now arrive over a socket from a
//! peer that was SIGKILLed mid-write, is running a different version, or is
//! simply hostile. The contract under test: every byte sequence either
//! parses or yields a *typed* error ([`RunError::Protocol`] on the
//! checkpoint path, [`json::JsonError`] below it) — **never** a panic,
//! never an unbounded allocation.

use proptest::prelude::*;
use ssp_runtime::json;
use ssp_runtime::{
    replay_checkpoint, Checkpoint, ChannelId, Effect, FaultPlan, JsonValue, Process, RoundRobin,
    RunError, RunMetrics, SchedulePolicy, Simulator, Topology, Trace,
};

/// A deterministic two-rank ping-pong, just enough to mint real
/// checkpoint manifests with non-empty queues and snapshots.
#[derive(Clone)]
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

    fn progress(&self) -> u64 {
        self.sent * 2 + u64::from(self.waiting)
    }
}

fn topo() -> Topology {
    let mut t = Topology::new(2);
    t.connect(0, 1);
    t.connect(1, 0);
    t
}

fn procs() -> Vec<Pinger> {
    (0..2).map(|rank| Pinger { rank, rounds: 6, sent: 0, got: 0, waiting: false }).collect()
}

fn msg_bytes(m: &u64) -> Vec<u8> {
    m.to_le_bytes().to_vec()
}

/// The character soup JSON documents are made of.
const JSONISH: &[u8] = b"{}[]\",:0123456789eE+-.ntf\\ ";

/// A genuine mid-run checkpoint manifest, taken after `steps` steps.
fn manifest_after(steps: usize) -> String {
    let mut sim = Simulator::new(topo(), procs());
    let mut trace = Trace::default();
    let mut picks = Vec::new();
    let mut policy = RoundRobin::new();
    for _ in 0..steps {
        let runnable = sim.runnable();
        if runnable.is_empty() {
            break;
        }
        let p = policy.pick(&runnable);
        sim.step_process(p, &mut trace).unwrap();
        picks.push(p);
    }
    let ck = Checkpoint::take(picks.len() as u64, &picks, &sim, &FaultPlan::none(), &trace);
    ck.to_json(msg_bytes)
}

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

    /// Every truncation of a real checkpoint manifest is a typed
    /// protocol error through the replay path — a torn frame can hand
    /// the reader exactly this.
    #[test]
    fn truncated_manifests_yield_typed_errors(steps in 1usize..20, keep_frac in 0.0f64..1.0) {
        let full = manifest_after(steps);
        let keep = ((full.len() as f64) * keep_frac) as usize;
        prop_assume!(keep < full.len());
        // Cut on a char boundary (the manifest is ASCII, but be precise).
        let mut cut = keep;
        while !full.is_char_boundary(cut) { cut -= 1; }
        let r = replay_checkpoint(&full[..cut], topo(), procs(), msg_bytes);
        match r {
            Err(RunError::Protocol { .. }) => {}
            Err(other) => prop_assert!(false, "expected Protocol, got {other:?}"),
            Ok(_) => prop_assert!(false, "truncated manifest replayed successfully"),
        }
    }

    /// Byte-level mutations (bit flips, overwrites) never panic the
    /// replay path; whatever happens is Ok or a typed error.
    #[test]
    fn mutated_manifests_never_panic(
        steps in 1usize..20,
        pos_frac in 0.0f64..1.0,
        byte in 0u16..256,
    ) {
        let byte = byte as u8;
        let full = manifest_after(steps);
        let mut bytes = full.into_bytes();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] = byte;
        let text = String::from_utf8_lossy(&bytes).into_owned();
        match replay_checkpoint(&text, topo(), procs(), msg_bytes) {
            Ok(_) => {}                              // benign mutation (e.g. same byte)
            Err(RunError::Protocol { .. }) => {}     // caught by parse or fingerprint
            Err(RunError::Deadlock { .. }) => {}     // mutated picks can wedge the replay
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// The metrics reader (GROUP_DONE payloads carry this JSON) is total
    /// over truncations and mutations of real documents.
    #[test]
    fn metrics_json_reader_is_total(
        cut_frac in 0.0f64..1.0,
        pos_frac in 0.0f64..1.0,
        byte in 0u16..256,
    ) {
        let byte = byte as u8;
        let full = RunMetrics::for_topology(&topo()).to_json();
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
    assert!(replay_checkpoint(&deep, topo(), procs(), msg_bytes).is_err());
}

/// A manifest written by another format version — or carrying none — is
/// refused, not replayed as if it were the current one.
#[test]
fn manifests_of_another_or_no_version_are_rejected_typed() {
    let good = manifest_after(7);
    assert!(replay_checkpoint(&good, topo(), procs(), msg_bytes).is_ok());
    let JsonValue::Obj(doc) = json::parse(&good).unwrap() else {
        panic!("a checkpoint manifest is a JSON object");
    };
    let mut future = doc.clone();
    future.insert("version".to_string(), JsonValue::Num(2.0));
    let mut missing = doc;
    missing.remove("version");
    for (bad, what) in [(future, "unsupported version 2"), (missing, "missing version")] {
        let text = JsonValue::Obj(bad).to_json();
        match replay_checkpoint(&text, topo(), procs(), msg_bytes) {
            Err(RunError::Protocol { detail, .. }) => assert!(detail.contains(what), "{detail}"),
            Err(other) => panic!("expected Protocol ({what}), got {other:?}"),
            Ok(_) => panic!("manifest with {what} replayed successfully"),
        }
    }
}
