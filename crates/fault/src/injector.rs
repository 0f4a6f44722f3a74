//! Scheduled fault plans: deterministic injection hooks for the
//! factorization drivers.

use crate::bitflip::flip_bit;
use ft_matrix::Matrix;

/// How the element is corrupted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Flip one bit of the IEEE-754 representation.
    BitFlip(u8),
    /// Add a fixed perturbation (controlled-magnitude experiments).
    Add(f64),
    /// Overwrite with a fixed value.
    Set(f64),
}

impl FaultKind {
    /// The corrupted value.
    pub fn apply(self, v: f64) -> f64 {
        match self {
            FaultKind::BitFlip(bit) => flip_bit(v, bit),
            FaultKind::Add(delta) => v + delta,
            FaultKind::Set(x) => x,
        }
    }
}

/// Instrumentation points inside one panel iteration, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Before the panel is sent to the host (iteration boundary — where
    /// the paper's Figure 2 faults strike).
    IterationStart,
    /// After the trailing updates, before detection runs.
    BeforeDetection,
}

/// One fault: a location plus a corruption.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fault {
    /// Target row.
    pub row: usize,
    /// Target column.
    pub col: usize,
    /// Corruption applied to the element.
    pub kind: FaultKind,
}

impl Fault {
    /// Additive fault of magnitude `delta` at `(row, col)` — the
    /// controlled corruption used by most experiments.
    pub fn add(row: usize, col: usize, delta: f64) -> Self {
        Fault {
            row,
            col,
            kind: FaultKind::Add(delta),
        }
    }

    /// Bit-flip fault.
    pub fn bitflip(row: usize, col: usize, bit: u8) -> Self {
        Fault {
            row,
            col,
            kind: FaultKind::BitFlip(bit),
        }
    }
}

/// A fault pinned to an iteration and phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledFault {
    /// Panel iteration at which to fire.
    pub iteration: usize,
    /// Instrumentation point within the iteration.
    pub phase: Phase,
    /// The fault itself.
    pub fault: Fault,
}

/// A record of an injection that actually happened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppliedFault {
    /// Iteration at which the injection happened.
    pub iteration: usize,
    /// Instrumentation point.
    pub phase: Phase,
    /// Corrupted row.
    pub row: usize,
    /// Corrupted column.
    pub col: usize,
    /// Value before corruption.
    pub old: f64,
    /// Value after corruption.
    pub new: f64,
}

/// An ordered plan of scheduled faults. Drivers call
/// [`FaultPlan::apply_due`] at each instrumentation point; the plan
/// injects everything due and records what it did.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pending: Vec<ScheduledFault>,
    applied: Vec<AppliedFault>,
}

impl FaultPlan {
    /// The empty plan (fault-free execution).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Plan with a single fault at the start of `iteration`
    /// ([`Phase::IterationStart`]).
    pub fn one(iteration: usize, fault: Fault) -> Self {
        FaultPlan::new(vec![ScheduledFault {
            iteration,
            phase: Phase::IterationStart,
            fault,
        }])
    }

    /// Plan from explicit scheduled faults.
    pub fn new(faults: Vec<ScheduledFault>) -> Self {
        FaultPlan {
            pending: faults,
            applied: vec![],
        }
    }

    /// Adds another scheduled fault.
    pub fn push(&mut self, f: ScheduledFault) {
        self.pending.push(f);
    }

    /// `true` if no faults remain to inject.
    pub fn is_exhausted(&self) -> bool {
        self.pending.is_empty()
    }

    /// Faults injected so far.
    pub fn applied(&self) -> &[AppliedFault] {
        &self.applied
    }

    /// Faults due at `(iteration, phase)` without applying them (used by
    /// timing-only simulations that never touch real data).
    pub fn peek_due(&self, iteration: usize, phase: Phase) -> Vec<ScheduledFault> {
        self.pending
            .iter()
            .filter(|f| f.iteration == iteration && f.phase == phase)
            .copied()
            .collect()
    }

    /// Marks all faults due at `(iteration, phase)` as handled without
    /// touching data (timing-only mode).
    pub fn consume_due(&mut self, iteration: usize, phase: Phase) -> usize {
        let before = self.pending.len();
        self.pending
            .retain(|f| !(f.iteration == iteration && f.phase == phase));
        before - self.pending.len()
    }

    /// Injects every fault due at `(iteration, phase)` into `m`, returning
    /// the applied records. Out-of-bounds faults panic (a plan bug).
    pub fn apply_due(
        &mut self,
        iteration: usize,
        phase: Phase,
        m: &mut Matrix,
    ) -> Vec<AppliedFault> {
        let mut done = vec![];
        let mut rest = Vec::with_capacity(self.pending.len());
        for sf in self.pending.drain(..) {
            if sf.iteration == iteration && sf.phase == phase {
                let old = m[(sf.fault.row, sf.fault.col)];
                let new = sf.fault.kind.apply(old);
                m[(sf.fault.row, sf.fault.col)] = new;
                let rec = AppliedFault {
                    iteration,
                    phase,
                    row: sf.fault.row,
                    col: sf.fault.col,
                    old,
                    new,
                };
                done.push(rec);
            } else {
                rest.push(sf);
            }
        }
        self.pending = rest;
        self.applied.extend_from_slice(&done);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_apply() {
        assert_eq!(FaultKind::Add(0.5).apply(1.0), 1.5);
        assert_eq!(FaultKind::Set(-3.0).apply(1.0), -3.0);
        assert_eq!(FaultKind::BitFlip(63).apply(2.0), -2.0);
    }

    #[test]
    fn plan_applies_at_the_right_point() {
        let mut m = Matrix::zeros(4, 4);
        m[(1, 2)] = 10.0;
        let mut plan = FaultPlan::one(3, Fault::add(1, 2, 1.0));

        assert!(plan.apply_due(2, Phase::IterationStart, &mut m).is_empty());
        assert!(plan.apply_due(3, Phase::BeforeDetection, &mut m).is_empty());
        assert_eq!(m[(1, 2)], 10.0);

        let done = plan.apply_due(3, Phase::IterationStart, &mut m);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].old, 10.0);
        assert_eq!(done[0].new, 11.0);
        assert_eq!(m[(1, 2)], 11.0);
        assert!(plan.is_exhausted());
        assert_eq!(plan.applied().len(), 1);
    }

    #[test]
    fn multiple_simultaneous_faults() {
        let mut m = Matrix::zeros(5, 5);
        let mut plan = FaultPlan::new(vec![
            ScheduledFault {
                iteration: 1,
                phase: Phase::IterationStart,
                fault: Fault::add(0, 0, 1.0),
            },
            ScheduledFault {
                iteration: 1,
                phase: Phase::IterationStart,
                fault: Fault::add(2, 3, 2.0),
            },
            ScheduledFault {
                iteration: 2,
                phase: Phase::IterationStart,
                fault: Fault::add(4, 4, 3.0),
            },
        ]);
        let done = plan.apply_due(1, Phase::IterationStart, &mut m);
        assert_eq!(done.len(), 2);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(2, 3)], 2.0);
        assert_eq!(m[(4, 4)], 0.0);
        assert!(!plan.is_exhausted());
    }

    #[test]
    fn peek_and_consume_for_timing_mode() {
        let plan0 = FaultPlan::one(2, Fault::bitflip(1, 1, 10));
        let mut plan = plan0.clone();
        assert_eq!(plan.peek_due(2, Phase::IterationStart).len(), 1);
        assert_eq!(plan.peek_due(1, Phase::IterationStart).len(), 0);
        assert_eq!(plan.consume_due(2, Phase::IterationStart), 1);
        assert!(plan.is_exhausted());
        assert!(
            plan.applied().is_empty(),
            "consume does not fabricate records"
        );
    }
}
