//! Host threads for work on fixed bases.
//!
//! Every parallel loop of the workspace — the engine's slice workers and
//! the point generators of this crate — sizes itself by
//! [`host_parallelism`]. The generators split a pre-sized output into
//! contiguous parts of whole units with `fill_in_parts`, so which thread
//! wrote an output element cannot show in it.

use std::sync::OnceLock;

/// `std::thread::available_parallelism()`, read once per process: std
/// re-reads the affinity mask and the cgroup quota files on every call.
pub fn host_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
}

/// A `len`-element vector filled on at most `workers` threads, the
/// calling thread among them. The output is cut into contiguous parts of
/// whole `unit`-element units (the last unit may be short), one part per
/// thread, and `fill(scratch, first, part)` writes the part that starts
/// at element `first` over copies of `init`. A single unit or a single
/// worker spawns nothing; a panicking `fill` propagates through the scope.
///
/// Every part's scratch is built by `scratch` on the calling thread,
/// before the output, and freed there: a worker allocates nothing, so no
/// worker's malloc arena keeps freed scratch resident after the call.
pub(crate) fn fill_in_parts<T, S, F>(
    len: usize,
    init: T,
    unit: usize,
    workers: usize,
    scratch: impl Fn() -> S,
    fill: F,
) -> Vec<T>
where
    T: Clone + Send,
    S: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let unit = unit.max(1);
    let part = len.div_ceil(unit).div_ceil(workers.max(1)).max(1) * unit;
    let mut scratches: Vec<S> = (0..len.div_ceil(part)).map(|_| scratch()).collect();
    let mut out = vec![init; len];
    std::thread::scope(|scope| {
        let mut parts = out.chunks_mut(part).zip(&mut scratches).enumerate();
        let own = parts.next();
        for (i, (chunk, scratch)) in parts {
            let fill = &fill;
            scope.spawn(move || fill(scratch, i * part, chunk));
        }
        if let Some((_, (chunk, scratch))) = own {
            fill(scratch, 0, chunk);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Each element is written once, by a part that starts on a unit
    /// boundary, and at most `workers` parts run.
    #[test]
    fn parts_cover_the_output_in_whole_units() {
        for len in [0, 1, 5, 6, 7, 23, 24, 25] {
            for unit in [1, 3, 6] {
                for workers in [1, 2, 3, 8] {
                    let starts = Mutex::new(Vec::new());
                    let out = fill_in_parts(
                        len,
                        usize::MAX,
                        unit,
                        workers,
                        || (),
                        |(), first, part| {
                            starts.lock().unwrap_or_else(|e| e.into_inner()).push(first);
                            for (i, v) in part.iter_mut().enumerate() {
                                assert_eq!(*v, usize::MAX, "written twice");
                                *v = first + i;
                            }
                        },
                    );
                    let expect: Vec<usize> = (0..len).collect();
                    assert_eq!(out, expect, "len {len} unit {unit} workers {workers}");
                    let starts = starts.into_inner().unwrap_or_else(|e| e.into_inner());
                    assert!(starts.len() <= workers.max(1));
                    assert!(starts.iter().all(|s| s % unit == 0));
                }
            }
        }
    }

    #[test]
    fn a_panicking_part_propagates() {
        let ran = std::panic::catch_unwind(|| {
            fill_in_parts(
                8,
                0u8,
                2,
                4,
                || (),
                |(), first, _| {
                    assert!(first != 6, "part at 6");
                },
            )
        });
        assert!(ran.is_err());
    }

    #[test]
    fn parallelism_is_positive_and_stable() {
        assert!(host_parallelism() >= 1);
        assert_eq!(host_parallelism(), host_parallelism());
    }
}
