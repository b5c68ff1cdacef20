//! Frozen wire vectors, round-trip and hostile-byte tests for the
//! service journal codec. The hex strings pin every byte on the wire: a
//! change that moves one of them is a format break, not a refactor.

use distmsm_journal::Wire;
use distmsm_service::{
    AdmissionError, AdmissionOutcome, BreakerState, JobClass, PoolTransition, ServiceEvent,
    ServiceEventKind, ServiceRecord, ShedReason,
};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

fn ev(t_s: f64, job: Option<u64>, tenant: Option<usize>, kind: ServiceEventKind) -> ServiceEvent {
    ServiceEvent { t_s, job, tenant, kind }
}

fn admission(class: JobClass, outcome: AdmissionOutcome) -> ServiceRecord {
    ServiceRecord::Admission { t_s: 0.5, id: 3, tenant: 1, class, outcome }
}

fn rejected(error: AdmissionError) -> ServiceRecord {
    admission(JobClass::Batch, AdmissionOutcome::Rejected { error })
}

fn breaker(from: BreakerState, to: BreakerState, cause: &'static str) -> ServiceRecord {
    ServiceRecord::Event(ev(
        1.5,
        None,
        None,
        ServiceEventKind::Breaker {
            transition: PoolTransition { device: 2, t_s: 1.5, from, to, cause },
        },
    ))
}

fn job_event(kind: ServiceEventKind) -> ServiceRecord {
    ServiceRecord::Event(ev(2.0, Some(7), Some(1), kind))
}

/// One vector per record variant and per arm of every nested enum.
fn record_vectors() -> Vec<(ServiceRecord, &'static str)> {
    use BreakerState::{Closed, HalfOpen, Open};
    vec![
        (
            admission(JobClass::Interactive, AdmissionOutcome::Admitted { queue_len: 2 }),
            "00000000000000e03f0300000000000000010000000000000000000200000000000000",
        ),
        (
            rejected(AdmissionError::QueueFull { tenant: "acme".into(), capacity: 8 }),
            "00000000000000e03f030000000000000001000000000000000101000400000061636d650800000000000000",
        ),
        (
            rejected(AdmissionError::Shedding { tenant: "acme".into(), pressure: 0.75 }),
            "00000000000000e03f030000000000000001000000000000000101010400000061636d65000000000000e83f",
        ),
        (
            rejected(AdmissionError::DeadlineInfeasible { needed_s: 2.0, available_s: 1.0 }),
            "00000000000000e03f030000000000000001000000000000000101020000000000000040000000000000f03f",
        ),
        (
            rejected(AdmissionError::MalformedInput { detail: "point 2 off curve".into() }),
            "00000000000000e03f0300000000000000010000000000000001010311000000706f696e742032206f6666206375727665",
        ),
        (rejected(AdmissionError::PodPartitioned { since_s: 2.75 }), "00000000000000e03f030000000000000001000000000000000101040000000000000640"),
        (job_event(ServiceEventKind::Arrival { class: JobClass::Interactive }), "0100000000000000400107000000000000000101000000000000000000"),
        (job_event(ServiceEventKind::Arrival { class: JobClass::Batch }), "0100000000000000400107000000000000000101000000000000000001"),
        (job_event(ServiceEventKind::Admitted { queue_len: 4 }), "010000000000000040010700000000000000010100000000000000010400000000000000"),
        (
            job_event(ServiceEventKind::Rejected {
                error: AdmissionError::QueueFull { tenant: "t".into(), capacity: 1 },
            }),
            "010000000000000040010700000000000000010100000000000000020001000000740100000000000000",
        ),
        (
            job_event(ServiceEventKind::Dispatched {
                devices: vec![0, 2],
                attempt: 1,
                degraded: true,
            }),
            "010000000000000040010700000000000000010100000000000000030200000000000000000000000000000002000000000000000100000001",
        ),
        (job_event(ServiceEventKind::Requeued { attempt: 2 }), "0100000000000000400107000000000000000101000000000000000402000000"),
        (
            job_event(ServiceEventKind::Completed {
                deadline_met: false,
                sojourn_s: 1.25,
                attempts: 3,
            }),
            "0100000000000000400107000000000000000101000000000000000500000000000000f43f03000000",
        ),
        (job_event(ServiceEventKind::Failed { error: "device 1 lost".into() }), "010000000000000040010700000000000000010100000000000000060d0000006465766963652031206c6f7374"),
        (job_event(ServiceEventKind::Shed { reason: ShedReason::Starvation }), "0100000000000000400107000000000000000101000000000000000700"),
        (job_event(ServiceEventKind::Shed { reason: ShedReason::PoolQuarantined }), "0100000000000000400107000000000000000101000000000000000701"),
        (breaker(Closed, Open, "fault-threshold"), "01000000000000f83f0000080200000000000000000000000000f83f000100"),
        (breaker(Open, HalfOpen, "probation-elapsed"), "01000000000000f83f0000080200000000000000000000000000f83f010201"),
        (breaker(HalfOpen, Closed, "probe-success"), "01000000000000f83f0000080200000000000000000000000000f83f020002"),
        (breaker(HalfOpen, Open, "probe-fault"), "01000000000000f83f0000080200000000000000000000000000f83f020103"),
        (breaker(Closed, Closed, "unknown"), "01000000000000f83f0000080200000000000000000000000000f83f0000ff"),
        (
            ServiceRecord::Event(ev(
                3.5,
                None,
                None,
                ServiceEventKind::Recovered { replayed: 2, requeued: 1, rearrived: 0 },
            )),
            "010000000000000c40000009020000000000000001000000000000000000000000000000",
        ),
        (
            ServiceRecord::Completed {
                event: ev(
                    2.0,
                    Some(3),
                    Some(1),
                    ServiceEventKind::Completed { deadline_met: true, sojourn_s: 1.5, attempts: 1 },
                ),
                result: vec![0, 1, 2, 3],
                used_readmitted: true,
            },
            "0200000000000000400103000000000000000101000000000000000501000000000000f83f01000000040000000001020301",
        ),
        (ServiceRecord::Absorbed { t_s: 2.5, id: 9, tenant: 0, attempt: 2 }, "0300000000000004400900000000000000000000000000000002000000"),
        (ServiceRecord::StolenOut { t_s: 3.0, id: 9, attempt: 1 }, "040000000000000840090000000000000001000000"),
    ]
}

#[test]
fn frozen_record_vectors() {
    for (rec, want) in record_vectors() {
        assert_eq!(hex(&rec.to_bytes()), want, "bytes out: {rec:?}");
        assert_eq!(ServiceRecord::from_bytes(&unhex(want)).expect("decodes"), rec, "value in");
    }
}

/// A decoder fed arbitrary bytes must return a typed error or a value
/// whose canonical encoding is exactly those bytes — never panic,
/// never accept two spellings of one value.
fn typed_error_or_canonical<T: Wire>(bytes: &[u8]) {
    if let Ok(v) = T::from_bytes(bytes) {
        assert_eq!(hex(&v.to_bytes()), hex(bytes), "accepted a non-canonical encoding");
    }
}

fn hostile<T: Wire>(good: &[u8]) {
    for cut in 0..good.len() {
        assert!(T::from_bytes(&good[..cut]).is_err(), "strict prefix {cut} accepted");
    }
    for extra in [0u8, 1, 0xff] {
        let mut long = good.to_vec();
        long.push(extra);
        assert!(T::from_bytes(&long).is_err(), "trailing byte {extra:#x} accepted");
    }
    for i in 0..good.len() {
        for flip in [0x01u8, 0x02, 0x80, 0xff] {
            let mut bad = good.to_vec();
            bad[i] ^= flip;
            typed_error_or_canonical::<T>(&bad);
        }
    }
}

#[test]
fn hostile_record_bytes_never_panic() {
    for (_, good) in record_vectors() {
        hostile::<ServiceRecord>(&unhex(good));
    }
}

/// A deterministic pseudo-random record: every variant and nested arm
/// is reachable from the seed.
fn arbitrary_record(seed: u64) -> ServiceRecord {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 16
    };
    let f = |x: u64| f64::from_bits(x.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let text = |x: u64| format!("t{}", x % 1000);
    let class = |x: u64| if x & 1 == 0 { JobClass::Interactive } else { JobClass::Batch };
    let state = |x: u64| match x % 3 {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        _ => BreakerState::HalfOpen,
    };
    let error = |a: u64, b: u64, c: u64| match a % 5 {
        0 => AdmissionError::QueueFull { tenant: text(b), capacity: c as usize },
        1 => AdmissionError::Shedding { tenant: text(b), pressure: f(c) },
        2 => AdmissionError::DeadlineInfeasible { needed_s: f(b), available_s: f(c) },
        3 => AdmissionError::MalformedInput { detail: text(b) },
        _ => AdmissionError::PodPartitioned { since_s: f(b) },
    };
    let kind = match next() % 10 {
        0 => ServiceEventKind::Arrival { class: class(next()) },
        1 => ServiceEventKind::Admitted { queue_len: next() as usize },
        2 => ServiceEventKind::Rejected { error: error(next(), next(), next()) },
        3 => ServiceEventKind::Dispatched {
            devices: (0..next() % 5).map(|d| (d * 3) as usize).collect(),
            attempt: next() as u32,
            degraded: next() % 2 == 0,
        },
        4 => ServiceEventKind::Requeued { attempt: next() as u32 },
        5 => ServiceEventKind::Completed {
            deadline_met: next() % 2 == 0,
            sojourn_s: f(next()),
            attempts: next() as u32,
        },
        6 => ServiceEventKind::Failed { error: text(next()) },
        7 => ServiceEventKind::Shed {
            reason: if next() % 2 == 0 { ShedReason::Starvation } else { ShedReason::PoolQuarantined },
        },
        8 => ServiceEventKind::Breaker {
            transition: PoolTransition {
                device: next() as usize,
                t_s: f(next()),
                from: state(next()),
                to: state(next()),
                cause: ["fault-threshold", "probation-elapsed", "probe-success", "probe-fault", "unknown"]
                    [(next() % 5) as usize],
            },
        },
        _ => ServiceEventKind::Recovered {
            replayed: next(),
            requeued: next(),
            rearrived: next(),
        },
    };
    let event = ServiceEvent {
        t_s: f(next()),
        job: (next() % 3 != 0).then(&mut next),
        tenant: (next() % 3 != 0).then(|| next() as usize),
        kind,
    };
    match next() % 5 {
        0 => ServiceRecord::Admission {
            t_s: f(next()),
            id: next(),
            tenant: next() as usize,
            class: class(next()),
            outcome: if next() % 2 == 0 {
                AdmissionOutcome::Admitted { queue_len: next() as usize }
            } else {
                AdmissionOutcome::Rejected { error: error(next(), next(), next()) }
            },
        },
        1 => ServiceRecord::Event(event),
        2 => ServiceRecord::Completed {
            event,
            result: (0..next() % 70).map(|b| b as u8).collect(),
            used_readmitted: next() % 2 == 0,
        },
        3 => ServiceRecord::Absorbed {
            t_s: f(next()),
            id: next(),
            tenant: next() as usize,
            attempt: next() as u32,
        },
        _ => ServiceRecord::StolenOut { t_s: f(next()), id: next(), attempt: next() as u32 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `from_bytes(to_bytes(x))` is `x`, compared through the bytes so
    /// NaN-valued floats (bit-exact on the wire) do not defeat `==`.
    #[test]
    fn records_round_trip(seed in any::<u64>()) {
        let rec = arbitrary_record(seed);
        let bytes = rec.to_bytes();
        let back = ServiceRecord::from_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(hex(&back.to_bytes()), hex(&bytes));
        prop_assert_eq!(format!("{back:?}"), format!("{rec:?}"));
    }
}
