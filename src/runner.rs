//! Deterministic job pool for independent experiment cells.
//!
//! The cells of `repro overload` are embarrassingly parallel — every
//! one is an independent run — but a naive fan-out reintroduces the
//! nondeterminism the repro protocol exists to kill: results arriving
//! in completion order, a cell count silently truncated to the worker
//! count, output depending on thread timing. This pool fixes the
//! contract instead:
//!
//! * cells are claimed from a shared atomic cursor, so any worker count
//!   executes **every** cell exactly once;
//! * results are returned **by cell index**, never by completion order —
//!   `run_cells(1, ...)` and `run_cells(n, ...)` produce the same `Vec`
//!   modulo wall-clock readings;
//! * a panicking cell propagates to the caller (after the scope joins),
//!   exactly like the sequential loop it replaces.
//!
//! Wall-clock readings taken *inside* co-scheduled cells measure a
//! shared machine; callers that publish per-cell timings should say at
//! which `--jobs` they were taken.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `count` independent cells on up to `jobs` worker threads and
/// return the results in cell-index order.
///
/// `jobs <= 1` runs inline on the calling thread (bit-identical to the
/// plain sequential loop). Worker threads claim cell indices from an
/// atomic cursor; each worker accumulates `(index, result)` pairs
/// locally and the pairs are merged and sorted once every worker has
/// joined, so the output order cannot depend on scheduling.
pub fn run_cells<T, F>(jobs: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    if jobs == 1 {
        return (0..count).map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, run(i)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("benchmark cell panicked"))
            .collect()
    });
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), count);
    pairs.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_cell_index_order_for_any_job_count() {
        // Cells finish out of order on purpose (later cells sleep less);
        // the returned Vec must not care.
        let cell = |i: usize| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i as u64) % 7));
            i * 10
        };
        let reference: Vec<usize> = (0..16).map(cell).collect();
        for jobs in [1, 2, 4, 16, 64] {
            assert_eq!(run_cells(jobs, 16, cell), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..33).map(|_| AtomicU32::new(0)).collect();
        run_cells(5, 33, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_cells_is_empty() {
        let out: Vec<u8> = run_cells(4, 0, |_| unreachable!("no cells to run"));
        assert!(out.is_empty());
    }
}
