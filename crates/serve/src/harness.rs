//! The open-loop load harness: controlled arrival processes and sojourn-time
//! latency.
//!
//! A load generator's arrival discipline decides what its latency numbers
//! mean. A **closed-loop** driver only offers the next request after an
//! earlier one completes, so the arrival rate adapts to the system under test
//! and queueing delay never accumulates — its percentiles describe service
//! time at the generator's pace, not what independent users would see (the
//! classic *coordinated omission* trap). An **open-loop** driver commits to an
//! arrival schedule up front and offers on schedule no matter how the system
//! is doing; latency is **sojourn time** — scheduled arrival to completion,
//! queueing included — which is the quantity an SLO constrains.
//!
//! [`run_load`] drives a [`Pipeline`] — any placement — with either discipline:
//!
//! * [`ArrivalProcess::Poisson`] / [`ArrivalProcess::Periodic`] — open loop at
//!   a controlled offered rate. The schedule is precomputed and deadlines are
//!   anchored to *scheduled* arrivals, so a driver that falls behind cannot
//!   silently relax the measurement.
//! * [`ArrivalProcess::Closed`] — a fixed number of always-busy clients; the
//!   saturation-throughput probe that anchors an offered rate.

use crate::pipeline::Pipeline;
use crate::request::{Priority, Request, NO_DEADLINE};
use crate::stats::StageStats;
use crate::ServeError;
use dmt_data::Query;
use dmt_metrics::{Histogram, LatencyPercentiles, ThroughputWindow};
use serde::Serialize;
use std::collections::HashMap;
use std::time::Duration;

/// How a harness run gives up on a wedged pipeline instead of spinning
/// forever: no run is allowed to outlive this wall-clock budget (5 minutes).
const HARNESS_STALL_LIMIT_US: u64 = 300_000_000;

/// The arrival discipline of one load run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: `clients` always-busy virtual users, each offering its
    /// next request as soon as one of its outstanding ones completes. Measures
    /// saturation throughput; its latency excludes open-queue waiting by
    /// construction.
    Closed {
        /// Concurrent in-flight requests the driver maintains.
        clients: usize,
    },
    /// Open loop, deterministic schedule: one arrival every `1/qps` seconds.
    Periodic {
        /// Offered arrival rate, requests per second.
        qps: f64,
    },
    /// Open loop, memoryless schedule: exponential inter-arrival gaps with
    /// mean `1/qps`, from a seeded generator (runs are reproducible).
    Poisson {
        /// Offered arrival rate, requests per second.
        qps: f64,
        /// Seed of the gap sequence.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// The first `n` arrival offsets in microseconds from the run's start.
    /// Closed loops have no schedule (arrivals are completion-driven) and
    /// return all zeros.
    #[must_use]
    pub fn schedule(&self, n: usize) -> Vec<u64> {
        match *self {
            ArrivalProcess::Closed { .. } => vec![0; n],
            ArrivalProcess::Periodic { qps } => {
                let gap_us = 1e6 / qps.max(f64::MIN_POSITIVE);
                (0..n).map(|i| (i as f64 * gap_us) as u64).collect()
            }
            ArrivalProcess::Poisson { qps, seed } => {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mean_gap_us = 1e6 / qps.max(f64::MIN_POSITIVE);
                let mut at = 0.0f64;
                (0..n)
                    .map(|_| {
                        let tick = at as u64;
                        // Inverse-CDF exponential gap; 1-U keeps ln() finite.
                        let u: f64 = 1.0 - rng.gen::<f64>();
                        at += -u.ln() * mean_gap_us;
                        tick
                    })
                    .collect()
            }
        }
    }
}

/// One load run's traffic description.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Requests to offer.
    pub requests: usize,
    /// Arrival discipline.
    pub arrivals: ArrivalProcess,
    /// Per-request completion budget in microseconds, anchored to the
    /// scheduled arrival ([`NO_DEADLINE`] = none).
    pub deadline_us: u64,
    /// Percent of requests offered at [`Priority::Low`].
    pub low_percent: u32,
    /// Percent of requests offered at [`Priority::High`] (the remainder is
    /// [`Priority::Standard`]).
    pub high_percent: u32,
}

impl LoadConfig {
    /// `requests` all-Standard requests with no deadline under `arrivals`.
    #[must_use]
    pub fn new(requests: usize, arrivals: ArrivalProcess) -> Self {
        Self {
            requests,
            arrivals,
            deadline_us: NO_DEADLINE,
            low_percent: 0,
            high_percent: 0,
        }
    }

    /// Sets the per-request deadline budget (microseconds after scheduled
    /// arrival).
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = deadline_us;
        self
    }

    /// Sets the priority mix (percent low, percent high; the rest standard).
    #[must_use]
    pub fn with_mix(mut self, low_percent: u32, high_percent: u32) -> Self {
        assert!(
            low_percent + high_percent <= 100,
            "priority mix exceeds 100%"
        );
        self.low_percent = low_percent;
        self.high_percent = high_percent;
        self
    }

    /// The deterministic priority class of request `i` under this mix —
    /// classes interleave through the stream instead of clustering, so every
    /// window of traffic carries the configured blend.
    #[must_use]
    pub fn priority_of(&self, i: usize) -> Priority {
        // 61 is coprime with 100: the residues cycle through all of 0..100.
        let r = u32::try_from((i as u64 * 61) % 100).expect("residue < 100");
        if r < self.low_percent {
            Priority::Low
        } else if r < self.low_percent + self.high_percent {
            Priority::High
        } else {
            Priority::Standard
        }
    }
}

/// The outcome of one load run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Requests offered (admitted + shed).
    pub offered: usize,
    /// Requests past admission.
    pub admitted: usize,
    /// Requests completed (equals `admitted` on a clean run).
    pub completed: usize,
    /// Requests shed, per priority class (index = `Priority::index`).
    pub shed_by_class: [u64; 3],
    /// Offered arrival rate actually realized, requests/second.
    pub offered_qps: f64,
    /// Completed-request throughput over the run's wall window.
    pub rate: ThroughputWindow,
    /// Sojourn time of *admitted* traffic, seconds: scheduled arrival →
    /// completion, queueing included.
    pub sojourn: LatencyPercentiles,
    /// Admitted requests that completed after their deadline. Under a
    /// correctly-provisioned admission policy this stays 0 — infeasible
    /// requests are shed up front instead.
    pub deadline_misses: u64,
    /// The engine's accounting over the run.
    pub stats: StageStats,
}

impl LoadReport {
    /// Completed requests per second.
    #[must_use]
    pub fn completed_qps(&self) -> f64 {
        self.rate.per_second()
    }

    /// Requests shed, all classes.
    #[must_use]
    pub fn total_shed(&self) -> u64 {
        self.shed_by_class.iter().sum()
    }
}

/// Drives `config.requests` requests from `next_queries` through `engine`
/// under the configured arrival discipline and reports sojourn percentiles,
/// throughput and shedding.
///
/// Open-loop runs anchor both deadlines and sojourn measurement to the
/// *scheduled* arrival instants, so a driver that falls behind the schedule
/// inflates the recorded latency rather than hiding it (no coordinated
/// omission). Closed-loop runs anchor to the actual offer instants.
///
/// # Errors
///
/// Surfaces pipeline failures; shed requests are counted, not errors.
pub fn run_load(
    engine: &mut Pipeline,
    config: &LoadConfig,
    mut next_queries: impl FnMut() -> Vec<Query>,
) -> Result<LoadReport, ServeError> {
    let schedule = config.arrivals.schedule(config.requests);
    let clients = match config.arrivals {
        ArrivalProcess::Closed { clients } => Some(clients.max(1)),
        _ => None,
    };
    let base = engine.now_us();
    let stall_by = base.saturating_add(HARNESS_STALL_LIMIT_US);
    // Completions are absorbed as they drain instead of being hoarded until the
    // end: each one removes its anchor, bumps the counters and records into a
    // bounded histogram, so the harness's memory stays flat on long soak runs
    // (the old design kept every CompletedRequest plus a per-request Vec<f64>).
    let mut anchor_of: HashMap<u64, u64> = HashMap::with_capacity(config.requests);
    let sojourns = Histogram::new();
    let mut completed = 0usize;
    let mut deadline_misses = 0u64;
    let mut shed_by_class = [0u64; 3];
    let mut admitted = 0usize;
    let absorb = |engine: &mut Pipeline,
                  anchor_of: &mut HashMap<u64, u64>,
                  completed: &mut usize,
                  deadline_misses: &mut u64|
     -> Result<(), ServeError> {
        for c in engine.drain()? {
            let anchor = anchor_of.remove(&c.seq).unwrap_or(c.arrival_us);
            sojourns.record(c.done_us.saturating_sub(anchor) as f64 * 1e-6);
            if !c.met_deadline() {
                *deadline_misses += 1;
            }
            *completed += 1;
        }
        Ok(())
    };

    for (i, offset) in schedule.iter().enumerate() {
        let scheduled = base + offset;
        // Wait for the request's turn, harvesting completions meanwhile.
        loop {
            engine.pump()?;
            absorb(engine, &mut anchor_of, &mut completed, &mut deadline_misses)?;
            let now = engine.now_us();
            if now > stall_by {
                return Err(stalled(admitted, completed));
            }
            // Ready at the scheduled instant (open loop) or on a free client
            // slot (closed loop). Until then, idle up to the next thing this
            // driver must act on — a batch close, the arrival — or until the
            // stages finish a batch.
            let (ready, wake) = match clients {
                Some(cap) => (admitted - completed < cap, u64::MAX),
                None => (now >= scheduled, scheduled),
            };
            if ready {
                break;
            }
            let wake = wake.min(engine.next_close_us().unwrap_or(u64::MAX));
            if wake > now {
                engine.wait(Duration::from_micros((wake - now).min(200)));
            }
        }
        // Deadlines anchor to the schedule, not to when the driver got here.
        let anchor = if clients.is_some() {
            engine.now_us()
        } else {
            scheduled
        };
        let priority = config.priority_of(i);
        // Saturating: a budget of `NO_DEADLINE` stays `NO_DEADLINE`.
        let request = Request::new(next_queries())
            .with_deadline_us(anchor.saturating_add(config.deadline_us))
            .with_priority(priority);
        match engine.offer(request) {
            Ok(seq) => {
                anchor_of.insert(seq, anchor);
                admitted += 1;
            }
            Err(e) if e.is_shed() => shed_by_class[priority.index()] += 1,
            Err(e) => return Err(e),
        }
    }

    engine.flush()?;
    while completed < admitted {
        absorb(engine, &mut anchor_of, &mut completed, &mut deadline_misses)?;
        if engine.now_us() > stall_by {
            return Err(stalled(admitted, completed));
        }
        engine.wait(Duration::from_micros(200));
    }

    let wall_s = (engine.now_us() - base) as f64 * 1e-6;
    Ok(LoadReport {
        offered: config.requests,
        admitted,
        completed,
        shed_by_class,
        offered_qps: config.requests as f64 / wall_s.max(1e-12),
        rate: ThroughputWindow::new(completed, wall_s),
        sojourn: sojourns.percentiles().unwrap_or_default(),
        deadline_misses,
        stats: engine.stats(),
    })
}

fn stalled(admitted: usize, completed: usize) -> ServeError {
    ServeError::Rank {
        rank: 0,
        message: format!(
            "load harness stalled: {completed} of {admitted} admitted requests completed \
             within the stall limit"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_schedule_is_evenly_spaced() {
        let s = ArrivalProcess::Periodic { qps: 1000.0 }.schedule(4);
        assert_eq!(s, vec![0, 1000, 2000, 3000]);
    }

    #[test]
    fn poisson_schedule_is_reproducible_and_rate_matched() {
        let p = ArrivalProcess::Poisson {
            qps: 10_000.0,
            seed: 7,
        };
        let a = p.schedule(2_000);
        let b = p.schedule(2_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a[0], 0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        // Mean gap over 2000 draws should land near 100us (1/10k s).
        let mean_gap = *a.last().unwrap() as f64 / (a.len() - 1) as f64;
        assert!(
            (60.0..=140.0).contains(&mean_gap),
            "mean gap {mean_gap}us far from the 100us target"
        );
        // Different seed, different schedule.
        assert_ne!(
            ArrivalProcess::Poisson {
                qps: 10_000.0,
                seed: 8
            }
            .schedule(2_000),
            a
        );
    }

    #[test]
    fn priority_mix_interleaves_and_matches_percentages() {
        let config = LoadConfig::new(1_000, ArrivalProcess::Closed { clients: 1 }).with_mix(30, 10);
        let mut counts = [0usize; 3];
        for i in 0..1_000 {
            counts[config.priority_of(i).index()] += 1;
        }
        assert_eq!(counts[Priority::Low.index()], 300);
        assert_eq!(counts[Priority::High.index()], 100);
        assert_eq!(counts[Priority::Standard.index()], 600);
        // Interleaved: the first 20 requests already carry more than one class.
        let head: std::collections::HashSet<_> = (0..20).map(|i| config.priority_of(i)).collect();
        assert!(head.len() > 1);
    }
}
