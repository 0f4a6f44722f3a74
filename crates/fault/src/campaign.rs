//! Seeded random fault campaigns: sweep areas × moments with reproducible
//! fault placements, the experimental protocol behind Figure 6's gray
//! uncertainty bands and Tables II/III.

use crate::injector::{Fault, FaultKind, FaultPlan, Phase, ScheduledFault};
use crate::region::{sample_in_region, Moment, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Panel width of the factorization under test.
    pub nb: usize,
    /// Regions to target.
    pub regions: Vec<Region>,
    /// Moments to inject at.
    pub moments: Vec<Moment>,
    /// Independent trials per (region, moment) cell.
    pub trials: usize,
    /// Base RNG seed; each trial derives its own stream.
    pub seed: u64,
    /// Corruption magnitude for additive faults; `None` uses random
    /// mantissa bit flips instead.
    pub magnitude: Option<f64>,
}

impl CampaignConfig {
    /// Number of panel iterations of the target factorization.
    pub fn iterations(&self) -> usize {
        if self.n < 3 {
            0
        } else {
            (self.n - 2).div_ceil(self.nb)
        }
    }

    /// Generates one trial of the `(region, moment)` cell deterministically
    /// from the config seed — the unit [`Campaign::generate`] iterates.
    /// Returns `None` when the region does not exist at the moment's
    /// frontier (e.g. Area 1 at the very beginning).
    ///
    /// The derived RNG stream depends only on `(seed, region, moment,
    /// trial_index)`, never on iteration order, so a trial generated here
    /// is bit-identical to the same cell of a full campaign.
    pub fn trial(&self, region: Region, moment: Moment, trial_index: usize) -> Option<Trial> {
        let iters = self.iterations();
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((region as u64) << 32)
            .wrapping_add((moment as u64) << 16)
            .wrapping_add(trial_index as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let iteration = moment.iteration(iters);
        // Frontier when the fault strikes: `iteration` full panels are
        // complete (fault at IterationStart of the next one).
        let k = (iteration * self.nb).min(self.n.saturating_sub(1));
        let (row, col) = sample_in_region(self.n, k, region, &mut rng)?;
        let kind = match self.magnitude {
            Some(mag) => {
                // Random sign.
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                FaultKind::Add(sign * mag)
            }
            None => FaultKind::BitFlip(rng.gen_range(20..52)),
        };
        let fault = ScheduledFault {
            iteration,
            phase: Phase::IterationStart,
            fault: Fault { row, col, kind },
        };
        Some(Trial {
            region,
            moment,
            trial_index,
            plan: FaultPlan::new(vec![fault]),
            fault,
        })
    }
}

/// One trial of a campaign: a fault plan plus its provenance.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Targeted region.
    pub region: Region,
    /// Injection moment.
    pub moment: Moment,
    /// Index within the (region, moment) cell.
    pub trial_index: usize,
    /// Ready-to-use plan for the factorization driver.
    pub plan: FaultPlan,
    /// The raw fault for reporting.
    pub fault: ScheduledFault,
}

/// A generated campaign: the cross product regions × moments × trials.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// The generating configuration.
    pub config: CampaignConfig,
    /// All generated trials.
    pub trials: Vec<Trial>,
}

impl Campaign {
    /// Generates the campaign deterministically from the config seed.
    ///
    /// The fault is placed relative to the frontier *at the moment of
    /// injection* (`k = iteration × nb`), so Area 1/3 faults are only
    /// generated for moments where those regions exist.
    pub fn generate(config: CampaignConfig) -> Campaign {
        let mut trials = vec![];
        for &region in &config.regions {
            for &moment in &config.moments {
                for t in 0..config.trials {
                    if let Some(trial) = config.trial(region, moment, t) {
                        trials.push(trial);
                    }
                }
            }
        }
        Campaign { config, trials }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::classify;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            n: 96,
            nb: 16,
            regions: vec![Region::Area1, Region::Area2, Region::Area3],
            moments: Moment::ALL.to_vec(),
            trials: 5,
            seed: 42,
            magnitude: Some(1.0),
        }
    }

    #[test]
    fn deterministic() {
        let c1 = Campaign::generate(cfg());
        let c2 = Campaign::generate(cfg());
        assert_eq!(c1.trials.len(), c2.trials.len());
        for (a, b) in c1.trials.iter().zip(&c2.trials) {
            assert_eq!(a.fault, b.fault);
        }
    }

    #[test]
    fn faults_land_in_their_region() {
        let c = Campaign::generate(cfg());
        assert!(!c.trials.is_empty());
        for t in &c.trials {
            let k = (t.fault.iteration * c.config.nb).min(c.config.n - 1);
            assert_eq!(
                classify(c.config.n, k, t.fault.fault.row, t.fault.fault.col),
                t.region,
                "trial {t:?}"
            );
        }
    }

    #[test]
    fn area1_at_beginning_skipped_when_frontier_empty() {
        // Moment::Beginning → iteration 0 → k = 0: Area 1/3 do not exist.
        let mut config = cfg();
        config.moments = vec![Moment::Beginning];
        let c = Campaign::generate(config);
        assert!(c.trials.iter().all(|t| t.region == Region::Area2));
    }

    #[test]
    fn single_trial_matches_campaign_cell() {
        // The per-job hook must reproduce exactly the trial the full
        // campaign generates for the same cell.
        let config = cfg();
        let c = Campaign::generate(config.clone());
        for t in &c.trials {
            let solo = config
                .trial(t.region, t.moment, t.trial_index)
                .expect("cell exists in the generated campaign");
            assert_eq!(solo.fault, t.fault);
        }
        // Nonexistent cell: Area 1 at the beginning has an empty frontier.
        assert!(config.trial(Region::Area1, Moment::Beginning, 0).is_none());
    }

    #[test]
    fn bitflip_mode() {
        let mut config = cfg();
        config.magnitude = None;
        let c = Campaign::generate(config);
        for t in &c.trials {
            assert!(matches!(t.fault.fault.kind, FaultKind::BitFlip(b) if b < 52));
        }
    }

    #[test]
    fn iteration_count() {
        let c = cfg();
        assert_eq!(c.iterations(), 94usize.div_ceil(16));
        let tiny = CampaignConfig { n: 2, ..cfg() };
        assert_eq!(tiny.iterations(), 0);
    }
}
