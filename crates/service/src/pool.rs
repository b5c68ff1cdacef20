//! The health-gated device pool: one circuit breaker and one busy
//! horizon per simulated GPU.

use crate::breaker::{BreakerState, CircuitBreaker, PoolTransition};

/// A pool of simulated GPUs gated by per-device circuit breakers.
#[derive(Clone, Debug)]
pub struct DevicePool {
    breakers: Vec<CircuitBreaker>,
    /// Per-device time until which the device is executing a job.
    busy_until_s: Vec<f64>,
}

impl DevicePool {
    /// A pool of `n` healthy idle devices.
    pub fn new(n: usize) -> Self {
        Self::restore(vec![CircuitBreaker::new(); n])
    }

    /// Rebuilds a pool from restored breakers (crash recovery).
    ///
    /// Busy horizons reset to idle — any in-flight work was lost with
    /// the crash and is re-dispatched by the service.
    pub fn restore(breakers: Vec<CircuitBreaker>) -> Self {
        let n = breakers.len();
        Self { breakers, busy_until_s: vec![0.0; n] }
    }

    /// Number of devices in the pool (healthy or not).
    pub fn n_devices(&self) -> usize {
        self.breakers.len()
    }

    /// Current breaker state of a device.
    pub fn state(&self, device: usize) -> BreakerState {
        self.breakers[device].state()
    }

    /// How many times a device's breaker has tripped open.
    pub fn open_spells(&self, device: usize) -> u32 {
        self.breakers[device].open_spells()
    }

    /// Earliest time at or after `now_s` when an open breaker moves to
    /// half-open, if any breaker is open.
    pub fn next_probation_end(&self) -> Option<f64> {
        self.breakers
            .iter()
            .filter(|b| b.state() == BreakerState::Open)
            .map(|b| b.open_until_s())
            .min_by(f64::total_cmp)
    }

    /// Advances the clock: moves every open breaker whose probation
    /// elapsed to half-open, returning the transitions.
    pub fn poll(&mut self, now_s: f64) -> Vec<PoolTransition> {
        self.breakers.iter_mut().enumerate().filter_map(|(d, b)| b.poll(d, now_s)).collect()
    }

    /// The devices a dispatch at `now_s` may use: `(closed, half_open)`,
    /// both restricted to idle devices. Open-breaker devices are never
    /// returned — that is the SVC-002 invariant.
    pub fn allocatable(&self, now_s: f64) -> (Vec<usize>, Vec<usize>) {
        let mut closed = Vec::new();
        let mut half_open = Vec::new();
        for (d, b) in self.breakers.iter().enumerate() {
            if self.busy_until_s[d] > now_s {
                continue;
            }
            match b.state() {
                BreakerState::Closed => closed.push(d),
                BreakerState::HalfOpen => half_open.push(d),
                BreakerState::Open => {}
            }
        }
        (closed, half_open)
    }

    /// Marks `devices` busy until `until_s`.
    pub fn allocate(&mut self, devices: &[usize], until_s: f64) {
        for &d in devices {
            self.busy_until_s[d] = until_s;
        }
    }

    /// Records a successful job on a device; a half-open probe success
    /// re-admits it.
    pub fn record_success(&mut self, device: usize, now_s: f64) -> Option<PoolTransition> {
        self.breakers[device].on_success(device, now_s)
    }

    /// Records a fault charged to a device; may trip its breaker open.
    pub fn record_fault(&mut self, device: usize, now_s: f64) -> Option<PoolTransition> {
        self.breakers[device].on_fault(device, now_s)
    }

    /// True when **no** device is dispatchable or on probation — every
    /// breaker is open. The service classifies queued work shed in this
    /// state as [`crate::job::ShedReason::PoolQuarantined`].
    pub fn fully_quarantined(&self) -> bool {
        self.breakers.iter().all(|b| b.state() == BreakerState::Open)
    }

    /// Final breaker states, indexed by device.
    pub fn final_states(&self) -> Vec<BreakerState> {
        self.breakers.iter().map(|b| b.state()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::FAULT_THRESHOLD;

    #[test]
    fn open_devices_are_never_allocatable() {
        let mut pool = DevicePool::new(4);
        for _ in 0..FAULT_THRESHOLD {
            pool.record_fault(2, 1.0);
        }
        assert_eq!(pool.state(2), BreakerState::Open);
        let (closed, half) = pool.allocatable(1.0);
        assert_eq!(closed, vec![0, 1, 3]);
        assert!(half.is_empty());
    }

    #[test]
    fn busy_devices_are_not_allocatable_until_released() {
        let mut pool = DevicePool::new(2);
        pool.allocate(&[0], 5.0);
        let (closed, _) = pool.allocatable(4.0);
        assert_eq!(closed, vec![1]);
        let (closed, _) = pool.allocatable(5.0);
        assert_eq!(closed, vec![0, 1]);
    }

    #[test]
    fn fully_quarantined_requires_every_breaker_open() {
        let mut pool = DevicePool::new(2);
        for d in 0..2 {
            for _ in 0..FAULT_THRESHOLD {
                pool.record_fault(d, 0.0);
            }
        }
        assert!(pool.fully_quarantined());
        // Probation elapses → half-open → not quarantined.
        let end = pool.next_probation_end().expect("open breakers have ends");
        assert_eq!(pool.poll(end).len(), 2, "both probations end together");
        assert!(!pool.fully_quarantined());
    }
}
