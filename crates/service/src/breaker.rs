//! Per-device circuit breakers: the health-gating state machine that
//! quarantines a flaky simulated GPU instead of letting it poison every
//! subsequent request.
//!
//! ```text
//!            FAULT_THRESHOLD consecutive faults
//!   CLOSED ────────────────────────────────────▶ OPEN
//!     ▲                                           │ probation backoff
//!     │ probe succeeds                            ▼ elapses
//!     └──────────────────────────────────────  HALF-OPEN
//!                    probe faults: back to OPEN, backoff doubles
//! ```
//!
//! The probation backoff saturates at a cap (same rationale as
//! `RetryPolicy::backoff_for`: `factor^k` overflows to infinity long
//! before `u32::MAX` spells).

/// The three breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the device is eligible for any dispatch.
    Closed,
    /// Quarantined: no dispatch may touch the device until its
    /// probation window elapses.
    Open,
    /// Probation: the device may receive *probe* traffic (at most one
    /// half-open device per dispatch) to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Short stable label used in events, reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        }
    }
}

/// Consecutive faults that trip a closed breaker open.
pub const FAULT_THRESHOLD: u32 = 3;
/// First probation window, seconds.
pub const PROBATION_BASE_S: f64 = 2.0;
/// Probation growth per consecutive open spell (>= 1).
pub const PROBATION_FACTOR: f64 = 2.0;
/// Saturation cap on the probation window, seconds.
pub const PROBATION_CAP_S: f64 = 64.0;

/// The probation window after `spell` consecutive open spells (0-based:
/// the first trip waits [`PROBATION_BASE_S`]), saturating at
/// [`PROBATION_CAP_S`] instead of overflowing.
pub fn probation_for(spell: u32) -> f64 {
    let raw = PROBATION_BASE_S * PROBATION_FACTOR.powi(spell.min(i32::MAX as u32) as i32);
    if raw.is_finite() {
        raw.min(PROBATION_CAP_S)
    } else {
        PROBATION_CAP_S
    }
}

/// One recorded breaker transition — the pool-state timeline entry and
/// the payload of `Breaker` service events and telemetry instants.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolTransition {
    /// Device the transition belongs to.
    pub device: usize,
    /// Transition time, simulated seconds.
    pub t_s: f64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Short cause label (`"fault-threshold"`, `"probation-elapsed"`,
    /// `"probe-success"`, `"probe-fault"`).
    pub cause: &'static str,
}

/// The breaker state machine for one device.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_faults: u32,
    /// Completed open spells (drives the probation backoff).
    open_spells: u32,
    /// When the current open spell's probation elapses.
    open_until_s: f64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A fresh closed breaker.
    pub fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_faults: 0,
            open_spells: 0,
            open_until_s: 0.0,
        }
    }

    /// Rebuilds a breaker from durable recovery state.
    ///
    /// `open_spells` and `open_until_s` are reconstructed from the
    /// journal's `Breaker` transition records; `consecutive_faults`
    /// legitimately resets to zero across a restart (the fault streak
    /// was in volatile memory, and a conservative reset only delays —
    /// never skips — the next trip).
    pub fn restore(state: BreakerState, open_spells: u32, open_until_s: f64) -> Self {
        Self { state, consecutive_faults: 0, open_spells, open_until_s }
    }

    /// Current state (as of the last `poll`).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times this breaker has tripped open so far.
    pub fn open_spells(&self) -> u32 {
        self.open_spells
    }

    /// When the current probation window elapses (meaningful only while
    /// [`BreakerState::Open`]).
    pub fn open_until_s(&self) -> f64 {
        self.open_until_s
    }

    /// Advances the clock: an open breaker whose probation elapsed moves
    /// to half-open.
    pub fn poll(&mut self, device: usize, now_s: f64) -> Option<PoolTransition> {
        if self.state == BreakerState::Open && now_s >= self.open_until_s {
            self.state = BreakerState::HalfOpen;
            return Some(PoolTransition {
                device,
                t_s: now_s,
                from: BreakerState::Open,
                to: BreakerState::HalfOpen,
                cause: "probation-elapsed",
            });
        }
        None
    }

    /// Records a successful job on this device. A half-open probe
    /// success re-admits the device (half-open → closed).
    pub fn on_success(&mut self, device: usize, now_s: f64) -> Option<PoolTransition> {
        self.consecutive_faults = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            return Some(PoolTransition {
                device,
                t_s: now_s,
                from: BreakerState::HalfOpen,
                to: BreakerState::Closed,
                cause: "probe-success",
            });
        }
        None
    }

    /// Records a fault charged to this device. A closed breaker trips
    /// open at the threshold; a half-open probe fault re-opens
    /// immediately with a doubled (saturating) probation window.
    pub fn on_fault(&mut self, device: usize, now_s: f64) -> Option<PoolTransition> {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_faults = self.consecutive_faults.saturating_add(1);
                if self.consecutive_faults >= FAULT_THRESHOLD {
                    self.trip(now_s);
                    return Some(PoolTransition {
                        device,
                        t_s: now_s,
                        from: BreakerState::Closed,
                        to: BreakerState::Open,
                        cause: "fault-threshold",
                    });
                }
                None
            }
            BreakerState::HalfOpen => {
                self.trip(now_s);
                Some(PoolTransition {
                    device,
                    t_s: now_s,
                    from: BreakerState::HalfOpen,
                    to: BreakerState::Open,
                    cause: "probe-fault",
                })
            }
            // Faults reported against an already-open breaker (a job
            // dispatched just before the trip) change nothing.
            BreakerState::Open => None,
        }
    }

    fn trip(&mut self, now_s: f64) {
        self.state = BreakerState::Open;
        self.open_until_s = now_s + probation_for(self.open_spells);
        self.open_spells = self.open_spells.saturating_add(1);
        self.consecutive_faults = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_trips_open_at_threshold_and_probation_readmits() {
        let mut b = CircuitBreaker::new();
        assert!(b.on_fault(0, 1.0).is_none());
        assert!(b.on_fault(0, 2.0).is_none());
        let t = b.on_fault(0, 3.0).expect("third fault trips");
        assert_eq!((t.from, t.to), (BreakerState::Closed, BreakerState::Open));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.open_until_s(), 3.0 + PROBATION_BASE_S);

        // Probation elapses → half-open; probe success → closed.
        assert!(b.poll(0, 4.0).is_none(), "probation not elapsed yet");
        let t = b.poll(0, 3.0 + PROBATION_BASE_S).expect("half-open");
        assert_eq!(t.to, BreakerState::HalfOpen);
        let t = b.on_success(0, 6.0).expect("re-admitted");
        assert_eq!(t.to, BreakerState::Closed);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_fault_reopens_with_doubled_backoff() {
        let mut b = CircuitBreaker::new();
        for _ in 0..FAULT_THRESHOLD {
            b.on_fault(1, 0.0);
        }
        b.poll(1, 100.0);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        let t = b.on_fault(1, 100.0).expect("probe fault reopens");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
        // Second spell waits base * factor.
        assert_eq!(b.open_until_s(), 100.0 + PROBATION_BASE_S * PROBATION_FACTOR);
    }

    #[test]
    fn probation_backoff_saturates_at_the_cap() {
        // base 2, factor 2, cap 64 → saturation at spell 5 (2·2^5 = 64).
        assert_eq!(probation_for(4), 32.0);
        assert_eq!(probation_for(5), 64.0);
        assert_eq!(probation_for(6), 64.0);
        for spell in [64, 1_000, u32::MAX] {
            let p = probation_for(spell);
            assert!(p.is_finite(), "spell {spell} overflowed: {p}");
            assert_eq!(p, PROBATION_CAP_S);
        }
    }

    #[test]
    fn success_resets_the_fault_streak() {
        let mut b = CircuitBreaker::new();
        b.on_fault(2, 0.0);
        b.on_fault(2, 1.0);
        b.on_success(2, 2.0);
        assert!(b.on_fault(2, 3.0).is_none(), "streak was reset");
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
