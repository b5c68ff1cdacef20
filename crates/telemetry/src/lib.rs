//! `distmsm-telemetry` — deterministic tracing and metrics for the
//! DistMSM reproduction.
//!
//! The paper's whole evaluation (Figs. 8–12, Tables 3–4) is an exercise
//! in *attributing simulated milliseconds*: to scatter vs bucket-sum, to
//! one device vs the fabric, to primary work vs recovery. The engine,
//! comms and fault layers each carry those attributions through their own
//! report structs; this crate gives them a single live representation —
//! a timeline of [`Span`]s, [`Instant`]s and [`CounterSample`]s on
//! per-device, fabric, host, supervisor and prover [`Lane`]s — that can
//! be exported as a Chrome-trace / Perfetto JSON file and re-aggregated
//! into the Fig. 10 phase breakdown from the spans alone.
//!
//! # Design constraints
//!
//! * **No external tracing dependency.** The crate is a leaf: plain
//!   structs, a process-global session, hand-rolled JSON.
//! * **Deterministic, simulated timestamps.** Every span boundary is a
//!   value of the `gpu_sim::cost` model (seconds of *simulated* time),
//!   never wall clock — identical runs produce byte-identical traces.
//! * **One build.** Every hook is always compiled; with no session
//!   begun a hook costs one relaxed atomic load ([`session::active`]),
//!   and recording never feeds back into a simulated number.
//!
//! # Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`span`] | [`Lane`], [`Span`], [`Instant`], [`CounterSample`], [`Histogram`], [`Timeline`] with well-nesting + phase aggregation |
//! | [`session`] | the process-global capture session with its simulated-clock cursor |
//! | [`export`] | Chrome-trace JSON emission and the live-span phase table |
//! | [`json`] | minimal JSON parser and the Chrome-trace schema validator |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod session;
pub mod span;

pub use export::{phase_table, to_chrome_trace};
pub use json::{parse as parse_json, validate_chrome_trace, JsonValue};
pub use session::{active, advance_s, begin, clock_s, end};
pub use span::{CounterSample, Histogram, Instant, Lane, Span, Timeline};
