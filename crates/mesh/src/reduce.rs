//! Reduction schedules.
//!
//! §4.2: *"Reduction operations can be supported by several communication
//! patterns depending on their implementation — for example, all-to-one/
//! one-to-all or recursive doubling."* Both are implemented here, as
//! **schedules**: pure data listing, stage by stage, which process combines
//! whose partial into whose. Every placement of a plan, from the
//! simulated-parallel program to the message-passing one, executes the
//! *same schedule*, which is what makes their floating-point results
//! bitwise identical — the combine order is a property of the schedule,
//! not of the execution.
//!
//! Within a stage, every combine reads its source's *pre-stage* partial
//! (message-passing semantics: everyone sends before anyone combines). The
//! result of executing a full plan is that **every** rank holds the reduced
//! value — copy consistency for the replicated global it feeds.

/// The elementwise combining operator of a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Floating-point sum (commutative, **not** associative — the crux of
    /// the paper's far-field result).
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl ReduceOp {
    /// Combine two values.
    ///
    /// Max and Min use IEEE-754 *total order* (`f64::total_cmp`), not
    /// `f64::max`/`min`: the latter may return either operand for
    /// `max(+0.0, -0.0)`, which would make the reduction's *bit pattern*
    /// depend on combine order and break the archetype's bitwise
    /// schedule-independence guarantee. Under total order (-0.0 < +0.0,
    /// NaNs ordered by payload) Max/Min are true semilattice operations on
    /// bit patterns: associative, commutative, idempotent.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        use std::cmp::Ordering;
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => match a.total_cmp(&b) {
                Ordering::Less => b,
                _ => a,
            },
            ReduceOp::Min => match a.total_cmp(&b) {
                Ordering::Greater => b,
                _ => a,
            },
        }
    }

    /// Combine `src` into `dst` elementwise.
    pub fn combine_vec(self, dst: &mut [f64], src: &[f64]) {
        assert_eq!(dst.len(), src.len(), "reduction partials must have equal length");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = self.combine(*d, s);
        }
    }

    /// Short name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }
}

/// Which communication pattern implements the reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceAlgo {
    /// Every process sends its partial to the root, which combines them in
    /// rank order, then sends the result back to everyone. 2(P−1) messages,
    /// 2 stages, but the root is a serial bottleneck.
    AllToOne,
    /// Hypercube pairwise exchange ("recursive doubling", Van de Velde,
    /// paper ref. 22): ⌈log₂P⌉ stages of symmetric exchanges, after a fold stage for
    /// non-power-of-two P. Every rank finishes with the result directly.
    RecursiveDoubling,
}

impl ReduceAlgo {
    /// Short name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            ReduceAlgo::AllToOne => "all-to-one",
            ReduceAlgo::RecursiveDoubling => "recursive-doubling",
        }
    }
}

/// One message of a reduction schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceStep {
    /// `dst.partial ← op(dst.partial, src.partial_before_stage)`.
    Combine {
        /// Sender of the partial.
        src: usize,
        /// Receiver, whose partial is updated.
        dst: usize,
    },
    /// `dst.partial ← src.partial_before_stage` (result distribution).
    Copy {
        /// Sender of the finished value.
        src: usize,
        /// Receiver, whose partial is replaced.
        dst: usize,
    },
}

impl ReduceStep {
    /// The sending rank.
    pub fn src(self) -> usize {
        match self {
            ReduceStep::Combine { src, .. } | ReduceStep::Copy { src, .. } => src,
        }
    }

    /// The receiving rank.
    pub fn dst(self) -> usize {
        match self {
            ReduceStep::Combine { dst, .. } | ReduceStep::Copy { dst, .. } => dst,
        }
    }
}

/// A staged reduction schedule over `p` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducePlan {
    /// Number of participating ranks.
    pub p: usize,
    /// Stages, executed in order; within a stage all sends logically precede
    /// all combines, and a rank's combines apply in step order.
    pub stages: Vec<Vec<ReduceStep>>,
}

impl ReducePlan {
    /// Build the schedule for `algo` over `p` ranks.
    pub fn build(algo: ReduceAlgo, p: usize) -> Self {
        assert!(p > 0);
        match algo {
            ReduceAlgo::AllToOne => Self::all_to_one(p, 0),
            ReduceAlgo::RecursiveDoubling => Self::recursive_doubling(p),
        }
    }

    /// All-to-one with explicit `root`, then one-to-all distribution.
    pub fn all_to_one(p: usize, root: usize) -> Self {
        assert!(root < p);
        let mut stages = Vec::new();
        if p > 1 {
            let combine: Vec<ReduceStep> = (0..p)
                .filter(|&r| r != root)
                .map(|r| ReduceStep::Combine { src: r, dst: root })
                .collect();
            let distribute: Vec<ReduceStep> = (0..p)
                .filter(|&r| r != root)
                .map(|r| ReduceStep::Copy { src: root, dst: r })
                .collect();
            stages.push(combine);
            stages.push(distribute);
        }
        ReducePlan { p, stages }
    }

    /// Recursive doubling for arbitrary `p`: ranks ≥ m (the largest power of
    /// two ≤ p) fold into their low partners, the low `m` ranks run the
    /// hypercube exchange, and the folded ranks get the result copied back.
    pub fn recursive_doubling(p: usize) -> Self {
        let mut stages = Vec::new();
        if p == 1 {
            return ReducePlan { p, stages };
        }
        let m = 1usize << (usize::BITS - 1 - p.leading_zeros()); // 2^⌊log₂p⌋
        let rem = p - m;
        if rem > 0 {
            stages.push(
                (0..rem).map(|i| ReduceStep::Combine { src: m + i, dst: i }).collect(),
            );
        }
        let mut d = 1;
        while d < m {
            let mut stage = Vec::new();
            for r in 0..m {
                if r & d == 0 {
                    let partner = r | d;
                    // Symmetric exchange: both ranks combine the other's
                    // pre-stage partial. f64 sum/max/min are commutative, so
                    // both end with bitwise-equal partials.
                    stage.push(ReduceStep::Combine { src: r, dst: partner });
                    stage.push(ReduceStep::Combine { src: partner, dst: r });
                }
            }
            stages.push(stage);
            d <<= 1;
        }
        if rem > 0 {
            stages.push((0..rem).map(|i| ReduceStep::Copy { src: i, dst: m + i }).collect());
        }
        ReducePlan { p, stages }
    }

    /// Execute the schedule on a vector of per-rank partials (reference
    /// implementation; both drivers follow exactly this order). After the
    /// call every rank's partial equals the reduced result.
    pub fn execute(&self, op: ReduceOp, partials: &mut [Vec<f64>]) {
        assert_eq!(partials.len(), self.p, "one partial per rank");
        for stage in &self.stages {
            // All sends read pre-stage values.
            let pre: Vec<Vec<f64>> = stage
                .iter()
                .map(|s| partials[s.src()].clone())
                .collect();
            for (step, sent) in stage.iter().zip(pre) {
                match *step {
                    ReduceStep::Combine { dst, .. } => {
                        op.combine_vec(&mut partials[dst], &sent);
                    }
                    ReduceStep::Copy { dst, .. } => {
                        partials[dst] = sent;
                    }
                }
            }
        }
    }

    /// Total number of messages the schedule sends.
    pub fn message_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// Number of stages (≈ latency-critical path length).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Sanity checks: endpoints in range, no rank both sends and receives a
    /// *Copy* and a *Combine* of the same stage in conflicting ways, and a
    /// rank receives at most once per stage (so "arrival order" is the step
    /// order, deterministically). All-to-one violates the at-most-once rule
    /// at the root deliberately — there, arrival order = rank order by
    /// construction of the stage.
    pub fn validate(&self) -> Result<(), String> {
        for (si, stage) in self.stages.iter().enumerate() {
            for step in stage {
                if step.src() >= self.p || step.dst() >= self.p {
                    return Err(format!("stage {si}: endpoint out of range {step:?}"));
                }
                if step.src() == step.dst() {
                    return Err(format!("stage {si}: self-loop {step:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Sequentially reduce `partials` in rank order — the result an all-to-one
/// schedule produces (for tests and as the "reference parallel order").
pub fn rank_order_reduce(op: ReduceOp, partials: &[Vec<f64>]) -> Vec<f64> {
    let mut acc = partials[0].clone();
    for p in &partials[1..] {
        op.combine_vec(&mut acc, p);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sum::magnitude_spread_workload;

    fn partials(p: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        (0..p)
            .map(|r| magnitude_spread_workload(len, 10, seed.wrapping_add(r as u64)))
            .collect()
    }

    #[test]
    fn max_and_min_are_order_insensitive_on_signed_zero() {
        // f64::max(+0.0, -0.0) may return either operand, which would make
        // Max/Min results depend on combination order at the bit level.
        // total_cmp fixes an order: -0.0 < +0.0.
        assert_eq!(ReduceOp::Max.combine(0.0, -0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(ReduceOp::Max.combine(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(ReduceOp::Min.combine(0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(ReduceOp::Min.combine(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn all_to_one_matches_rank_order_reference() {
        for p in [1usize, 2, 3, 5, 8] {
            let plan = ReducePlan::build(ReduceAlgo::AllToOne, p);
            plan.validate().unwrap();
            let mut parts = partials(p, 16, 100);
            let expect = rank_order_reduce(ReduceOp::Sum, &parts);
            plan.execute(ReduceOp::Sum, &mut parts);
            for (r, part) in parts.iter().enumerate() {
                assert_eq!(
                    part.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "rank {r} of {p}"
                );
            }
        }
    }

    #[test]
    fn recursive_doubling_all_ranks_agree_bitwise() {
        for p in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16] {
            let plan = ReducePlan::build(ReduceAlgo::RecursiveDoubling, p);
            plan.validate().unwrap();
            let mut parts = partials(p, 8, 7);
            plan.execute(ReduceOp::Sum, &mut parts);
            for r in 1..p {
                assert_eq!(
                    parts[r].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    parts[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "rank {r} of {p} diverged"
                );
            }
        }
    }

    #[test]
    fn recursive_doubling_is_numerically_close_to_all_to_one() {
        for p in [3usize, 4, 7, 8] {
            let mut a = partials(p, 8, 55);
            let mut b = a.clone();
            ReducePlan::build(ReduceAlgo::AllToOne, p).execute(ReduceOp::Sum, &mut a);
            ReducePlan::build(ReduceAlgo::RecursiveDoubling, p).execute(ReduceOp::Sum, &mut b);
            for (x, y) in a[0].iter().zip(&b[0]) {
                let scale = x.abs().max(y.abs()).max(1e-300);
                assert!((x - y).abs() / scale < 1e-9, "{x} vs {y} at p={p}");
            }
        }
    }

    #[test]
    fn algorithms_can_differ_bitwise_demonstrating_reordering() {
        // With wide-magnitude data, different combine orders generally give
        // different last bits — the non-associativity the paper tripped on.
        let mut found = false;
        for seed in 0..20u64 {
            let mut a = partials(5, 4, seed);
            let mut b = a.clone();
            ReducePlan::build(ReduceAlgo::AllToOne, 5).execute(ReduceOp::Sum, &mut a);
            ReducePlan::build(ReduceAlgo::RecursiveDoubling, 5).execute(ReduceOp::Sum, &mut b);
            if a[0].iter().zip(&b[0]).any(|(x, y)| x.to_bits() != y.to_bits()) {
                found = true;
                break;
            }
        }
        assert!(found, "expected at least one seed to expose non-associativity");
    }

    #[test]
    fn max_min_reduce_exactly() {
        let parts = vec![vec![3.0, -1.0], vec![2.0, 5.0], vec![4.0, 0.0]];
        let mut a = parts.clone();
        ReducePlan::build(ReduceAlgo::RecursiveDoubling, 3).execute(ReduceOp::Max, &mut a);
        assert_eq!(a[0], vec![4.0, 5.0]);
        let mut b = parts;
        ReducePlan::build(ReduceAlgo::AllToOne, 3).execute(ReduceOp::Min, &mut b);
        assert_eq!(b[2], vec![2.0, -1.0]);
    }

    #[test]
    fn message_counts_match_theory() {
        // All-to-one: 2(P-1) messages, depth 2.
        let plan = ReducePlan::build(ReduceAlgo::AllToOne, 8);
        assert_eq!(plan.message_count(), 14);
        assert_eq!(plan.depth(), 2);
        // Recursive doubling at P=8: 3 stages × 8 messages.
        let plan = ReducePlan::build(ReduceAlgo::RecursiveDoubling, 8);
        assert_eq!(plan.message_count(), 24);
        assert_eq!(plan.depth(), 3);
        // P=5: fold + 2 hypercube stages + unfold.
        let plan = ReducePlan::build(ReduceAlgo::RecursiveDoubling, 5);
        assert_eq!(plan.depth(), 4);
    }

    #[test]
    fn p1_plans_are_empty() {
        for algo in [ReduceAlgo::AllToOne, ReduceAlgo::RecursiveDoubling] {
            let plan = ReducePlan::build(algo, 1);
            assert_eq!(plan.message_count(), 0);
            let mut parts = vec![vec![1.0, 2.0]];
            plan.execute(ReduceOp::Sum, &mut parts);
            assert_eq!(parts[0], vec![1.0, 2.0]);
        }
    }
}
