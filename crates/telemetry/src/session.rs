//! The process-global capture session and its simulated-clock cursor.
//!
//! Instrumented crates do not thread a collector handle through their
//! call graphs; they emit into a process-wide session, mirroring the
//! capture idiom of `distmsm_gpu_sim::trace` (begin → run workload →
//! end). The session additionally owns the **simulated clock**: a cursor
//! in simulated seconds that sequential top-level operations (the four
//! MSMs of a Groth16 proof, the NTT stage after them) advance, so their
//! spans lay out one after another on the timeline instead of all
//! starting at zero.
//!
//! Every mutator is a no-op while no session is active, so hooks can be
//! called unconditionally from instrumented code. A session belongs to
//! the thread that began it: hooks reached from any other thread (a
//! second test of the same process running its own engine, say) see no
//! session, so they cannot write into someone else's timeline or move
//! its clock. Every emitter in the workspace runs on its caller's
//! thread. A panicking workload
//! thread must not wedge the collector: the mutex recovers its
//! (plain-data) state from a poisoned lock.

use crate::span::{CounterSample, Histogram, Instant, Span, Timeline};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;

static ACTIVE: AtomicBool = AtomicBool::new(false);

struct SessionState {
    timeline: Timeline,
    clock_s: f64,
    /// The thread that called [`begin`].
    owner: Option<ThreadId>,
}

static STATE: Mutex<SessionState> = Mutex::new(SessionState {
    timeline: Timeline {
        spans: Vec::new(),
        instants: Vec::new(),
        counters: Vec::new(),
        histograms: Vec::new(),
    },
    clock_s: 0.0,
    owner: None,
});

fn state() -> MutexGuard<'static, SessionState> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts a capture session: clears any previous timeline and resets the
/// simulated clock to zero.
pub fn begin() {
    let mut st = state();
    st.timeline = Timeline::default();
    st.clock_s = 0.0;
    st.owner = Some(std::thread::current().id());
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Ends the session and returns the captured [`Timeline`]. Returns an
/// empty timeline if no session was active.
pub fn end() -> Timeline {
    ACTIVE.store(false, Ordering::SeqCst);
    std::mem::take(&mut state().timeline)
}

/// True while a capture session begun by the calling thread is active.
/// Hooks use this to skip argument marshalling when nobody is listening.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) && state().owner == Some(std::thread::current().id())
}

/// Current simulated-clock cursor in seconds (`0.0` when inactive).
pub fn clock_s() -> f64 {
    if !active() {
        return 0.0;
    }
    state().clock_s
}

/// Advances the simulated clock by `dt_s` seconds. No-op when inactive.
pub fn advance_s(dt_s: f64) {
    if !active() {
        return;
    }
    state().clock_s += dt_s;
}

/// Records a span. No-op when inactive.
pub fn push_span(span: Span) {
    if !active() {
        return;
    }
    state().timeline.spans.push(span);
}

/// Records an instant marker. No-op when inactive.
pub fn push_instant(instant: Instant) {
    if !active() {
        return;
    }
    state().timeline.instants.push(instant);
}

/// Records a counter sample. No-op when inactive.
pub fn push_counter(sample: CounterSample) {
    if !active() {
        return;
    }
    state().timeline.counters.push(sample);
}

/// Records `value` into the histogram named `name`, creating it on first
/// use. No-op when inactive.
pub fn record_histogram(name: &str, value: f64) {
    if !active() {
        return;
    }
    let mut st = state();
    match st.timeline.histograms.iter_mut().find(|h| h.name == name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new(name);
            h.record(value);
            st.timeline.histograms.push(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Lane;
    use std::sync::OnceLock;

    /// The session is process-global; tests in this module serialise on
    /// one lock so `cargo test`'s threading cannot interleave captures.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn span_at(t0: f64, t1: f64) -> Span {
        Span {
            name: "x".into(),
            cat: "scatter".into(),
            lane: Lane::Device(0),
            t0_s: t0,
            t1_s: t1,
            args: Vec::new(),
        }
    }

    #[test]
    fn inactive_session_drops_everything() {
        let _g = guard();
        assert!(!active());
        push_span(span_at(0.0, 1.0));
        push_instant(Instant {
            name: "i".into(),
            cat: "fault".into(),
            lane: Lane::Supervisor,
            t_s: 0.0,
            args: Vec::new(),
        });
        record_histogram("h", 1.0);
        advance_s(5.0);
        assert_eq!(clock_s(), 0.0);
        assert_eq!(end(), Timeline::default());
    }

    #[test]
    fn capture_round_trip_with_clock() {
        let _g = guard();
        begin();
        assert!(active());
        assert_eq!(clock_s(), 0.0);
        push_span(span_at(0.0, 2.5));
        advance_s(2.5);
        assert_eq!(clock_s(), 2.5);
        push_span(span_at(2.5, 3.0));
        push_counter(CounterSample {
            name: "bytes".into(),
            lane: Lane::Fabric,
            t_s: 2.5,
            value: 64.0,
        });
        record_histogram("dur", 2.0);
        record_histogram("dur", 4.0);
        let tl = end();
        assert!(!active());
        assert_eq!(tl.spans.len(), 2);
        assert_eq!(tl.counters.len(), 1);
        assert_eq!(tl.histograms.len(), 1);
        assert_eq!(tl.histograms[0].n, 2);
        // a fresh session starts clean
        begin();
        assert_eq!(clock_s(), 0.0);
        assert!(end().spans.is_empty());
    }

    #[test]
    fn other_threads_see_no_session() {
        let _g = guard();
        begin();
        push_span(span_at(0.0, 1.0));
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!active());
                push_span(span_at(1.0, 2.0));
                advance_s(9.0);
            });
        });
        assert_eq!(clock_s(), 0.0);
        assert_eq!(end().spans.len(), 1);
    }
}
