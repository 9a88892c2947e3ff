//! Dynamic validation of the Definition §2.2 restrictions.
//!
//! A data-exchange operation is *a set of assignment statements* such that:
//!
//! * **(i)** if an atomic data object is the target of an assignment, it is
//!   not referenced in any other assignment;
//! * **(ii)** no left-hand or right-hand side may reference atomic data
//!   objects belonging to more than one of the N simulated-local-data
//!   partitions (though the two sides may belong to *different* partitions);
//! * **(iii)** for each simulated process `i`, at least one assignment must
//!   assign a value to a variable in `i`'s local data.
//!
//! Restriction (iii) is checked only for the processes the operation's own
//! geometry reaches. A boundary exchange that refreshes one side's ghosts
//! only (a stencil differencing in one direction reads one side) gives the
//! rank at the far corner of the process grid no inbound link, so no
//! assignment targets it; for that rank the operation is send-only. That is
//! sound: Theorem 1's proof uses (i) and (ii) — the assignments commute and
//! each becomes one send/receive pair — and never (iii), which only keeps a
//! process from being idle in the operation. What the checker still catches
//! is the real defect (iii) guards against here: a rank that *has* an
//! inbound link under the exchange's face sets and is assigned nothing.
//!
//! The simulated-parallel driver reports each exchange it performs as a set
//! of [`ExchangeAssign`] records and runs them through this checker — the
//! paper's precondition for the mechanical conversion to message passing,
//! enforced at runtime rather than assumed.

use std::collections::HashSet;

/// An abstract view of one assignment inside a data-exchange operation:
/// `partition dst_rank, object dst_slot  ←  f(partition src_rank, objects src_slots)`.
///
/// Slots are opaque identifiers, unique per (rank, atomic object) within one
/// exchange — e.g. "ghost cell (f, i, j, k) of field 2".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeAssign {
    /// Partition (simulated process) owning the target object.
    pub dst_rank: usize,
    /// The target atomic object within the destination partition.
    pub dst_slot: u64,
    /// Partition owning every object on the right-hand side.
    pub src_rank: usize,
    /// The source atomic objects within the source partition.
    pub src_slots: Vec<u64>,
}

/// A violation of the Definition's restrictions.
///
/// `Ord` gives violations a canonical order (by kind, then rank, then
/// slot), which [`check_exchange`] uses to report a sorted, deduplicated
/// list — the same input always yields the same report, regardless of
/// assignment order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExchangeViolation {
    /// Restriction (i): the same target object assigned more than once.
    DuplicateTarget {
        /// Offending partition.
        rank: usize,
        /// Offending object.
        slot: u64,
    },
    /// Restriction (i): an object is both a target and a source.
    TargetAlsoRead {
        /// Offending partition.
        rank: usize,
        /// Offending object.
        slot: u64,
    },
    /// Restriction (iii): a process with an inbound link receives no
    /// assignment.
    ProcessReceivesNothing {
        /// The starved process.
        rank: usize,
    },
}

impl std::fmt::Display for ExchangeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeViolation::DuplicateTarget { rank, slot } => {
                write!(f, "restriction (i): object {slot} of process {rank} assigned twice")
            }
            ExchangeViolation::TargetAlsoRead { rank, slot } => write!(
                f,
                "restriction (i): object {slot} of process {rank} is both target and source"
            ),
            ExchangeViolation::ProcessReceivesNothing { rank } => write!(
                f,
                "restriction (iii): process {rank} receives no assignment in the exchange"
            ),
        }
    }
}

/// Check one data-exchange operation against restrictions (i) and (iii).
/// Restriction (ii) — each side references a single partition — is
/// structural in [`ExchangeAssign`] (`src_rank`/`dst_rank` are scalars), so
/// it cannot be violated by construction; the record type *is* the check.
///
/// The returned violations are sorted (by kind, then rank, then slot) and
/// deduplicated: an object assigned three times is one `DuplicateTarget`,
/// not two, and a target read by several assignments is one
/// `TargetAlsoRead`. Reordering the assignment set never changes the
/// report, so [`ValidationReport`] counts are stable across runs.
///
/// `must_receive[r]` says whether process `r` of the `must_receive.len()`
/// participants has an inbound link in this operation (see the module doc
/// on restriction (iii)); a full exchange passes all-true.
pub fn check_exchange(
    must_receive: &[bool],
    assigns: &[ExchangeAssign],
) -> Result<(), Vec<ExchangeViolation>> {
    let mut violations = Vec::new();

    // (i) part 1: each target assigned at most once.
    let mut targets: HashSet<(usize, u64)> = HashSet::new();
    for a in assigns {
        if !targets.insert((a.dst_rank, a.dst_slot)) {
            violations.push(ExchangeViolation::DuplicateTarget {
                rank: a.dst_rank,
                slot: a.dst_slot,
            });
        }
    }

    // (i) part 2: no target is also read.
    for a in assigns {
        for &s in &a.src_slots {
            if targets.contains(&(a.src_rank, s)) {
                violations.push(ExchangeViolation::TargetAlsoRead {
                    rank: a.src_rank,
                    slot: s,
                });
            }
        }
    }

    // (iii): every process with an inbound link receives an assignment.
    let receivers: HashSet<usize> = assigns.iter().map(|a| a.dst_rank).collect();
    for (r, &must) in must_receive.iter().enumerate() {
        if must && !receivers.contains(&r) {
            violations.push(ExchangeViolation::ProcessReceivesNothing { rank: r });
        }
    }

    violations.sort();
    violations.dedup();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Accumulates validation results over a whole simulated-parallel run.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Number of data-exchange operations checked.
    pub exchanges_checked: u64,
    /// All violations found, tagged with the phase name.
    pub violations: Vec<(String, ExchangeViolation)>,
    /// Number of replicated-predicate evaluations checked for agreement.
    pub predicates_checked: u64,
    /// Names of while-loops whose predicate diverged across ranks.
    pub diverged_predicates: Vec<String>,
}

impl ValidationReport {
    /// True if the run satisfied every checked restriction.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.diverged_predicates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(dst_rank: usize, dst_slot: u64, src_rank: usize, src_slots: &[u64]) -> ExchangeAssign {
        ExchangeAssign { dst_rank, dst_slot, src_rank, src_slots: src_slots.to_vec() }
    }

    #[test]
    fn clean_symmetric_exchange_passes() {
        // Two processes swap boundary values into each other's ghosts:
        // ghost slots 100.., interior slots 0..
        let assigns = vec![a(0, 100, 1, &[0]), a(1, 100, 0, &[3])];
        assert!(check_exchange(&[true; 2], &assigns).is_ok());
    }

    #[test]
    fn duplicate_target_is_flagged() {
        let assigns = vec![a(0, 100, 1, &[0]), a(0, 100, 1, &[1]), a(1, 100, 0, &[0])];
        let errs = check_exchange(&[true; 2], &assigns).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, ExchangeViolation::DuplicateTarget { rank: 0, slot: 100 })));
    }

    #[test]
    fn target_also_read_is_flagged() {
        // Process 1's slot 100 is written, and process 0 reads 1's slot 100.
        let assigns = vec![a(1, 100, 0, &[5]), a(0, 7, 1, &[100])];
        let errs = check_exchange(&[true; 2], &assigns).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, ExchangeViolation::TargetAlsoRead { rank: 1, slot: 100 })));
    }

    #[test]
    fn starved_process_is_flagged() {
        let assigns = vec![a(0, 1, 1, &[0]), a(1, 1, 0, &[0])];
        let errs = check_exchange(&[true; 3], &assigns).unwrap_err();
        assert_eq!(errs, vec![ExchangeViolation::ProcessReceivesNothing { rank: 2 }]);
    }

    #[test]
    fn a_process_without_an_inbound_link_may_receive_nothing() {
        // One-sided exchange on a line of three: data flows 2 → 1 → 0, so
        // rank 2 has no inbound link and is send-only.
        let assigns = vec![a(0, 1 << 63, 1, &[0]), a(1, 1 << 63, 2, &[0])];
        assert!(check_exchange(&[true, true, false], &assigns).is_ok());
        // The same assignments under a full exchange starve rank 2.
        let errs = check_exchange(&[true; 3], &assigns).unwrap_err();
        assert_eq!(errs, vec![ExchangeViolation::ProcessReceivesNothing { rank: 2 }]);
    }

    #[test]
    fn reports_are_sorted_deduped_and_order_independent() {
        // Slot (0, 100) assigned three times AND read twice; rank 2 starves.
        let assigns = vec![
            a(0, 100, 1, &[0]),
            a(0, 100, 1, &[1]),
            a(0, 100, 1, &[2]),
            a(1, 5, 0, &[100]),
            a(1, 6, 0, &[100]),
        ];
        let errs = check_exchange(&[true; 3], &assigns).unwrap_err();
        assert_eq!(
            errs,
            vec![
                ExchangeViolation::DuplicateTarget { rank: 0, slot: 100 },
                ExchangeViolation::TargetAlsoRead { rank: 0, slot: 100 },
                ExchangeViolation::ProcessReceivesNothing { rank: 2 },
            ],
            "one entry per distinct violation, in canonical order"
        );
        // Any permutation of the assignment set yields the same report.
        let mut reversed = assigns.clone();
        reversed.reverse();
        assert_eq!(check_exchange(&[true; 3], &reversed).unwrap_err(), errs);
    }

    #[test]
    fn reading_own_partition_is_fine() {
        // Both sides may be the same partition — restriction (ii) only bars
        // *mixing* partitions within one side.
        let assigns = vec![a(0, 10, 0, &[0, 1]), a(1, 10, 1, &[2])];
        assert!(check_exchange(&[true; 2], &assigns).is_ok());
    }

    #[test]
    fn report_cleanliness() {
        let mut r = ValidationReport::default();
        assert!(r.is_clean());
        r.diverged_predicates.push("loop".into());
        assert!(!r.is_clean());
    }
}
