//! The host's speed, measured with a fixed reference computation that
//! calls no repository code.
//!
//! The shared machines this benchmark runs on change speed by a fifth
//! or more, switching within seconds and staying for minutes, and every
//! time metric moves with them. The fleet workloads time the reference
//! loop beside their own work and report every time at the reference
//! speed: the host time × [`REFERENCE_MS`] ÷ the reference loop's time
//! on the same host at the same moment, read on the same clock (wall
//! or the thread's CPU clock) as the work. A change to the program moves
//! the host time and not the reference, so only the host's drift
//! cancels. The host-time figures are printed beside the metrics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::procfs::thread_cpu_ms;

/// The reference speed: one reference loop in this many milliseconds. A
/// round figure near the loop's time on the machine the bounds were set
/// on (2-vCPU Intel Xeon, rustc 1.95, release build), where it took
/// 2.7–4.0 ms as the machine's speed changed, so scaled times read as
/// host times there.
pub const REFERENCE_MS: f64 = 3.0;

/// Event steps per reference loop.
const STEPS: u32 = 40_000;

fn splitmix(x: u64) -> u64 {
    let z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One reference loop, shaped like the simulator's inner loop: a
/// discrete-event queue holding about a thousand timers, scattered
/// updates to a 32 KB table, and short-lived small allocations. It
/// needs under 64 KB, so it does not raise a campaign's peak memory.
pub fn reference_loop(seed: u64) -> u64 {
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(1_100);
    let mut table = vec![0u64; 1 << 12];
    let mask = table.len() - 1;
    let mut scratch: Vec<Vec<u64>> = Vec::with_capacity(64);
    let (mut x, mut now, mut acc) = (seed, 0u64, 0u64);
    for i in 0..STEPS {
        x = splitmix(x);
        queue.push(Reverse((now + (x & 0xFFFF), i)));
        if queue.len() > 1_024 {
            let Reverse((at, id)) = queue.pop().expect("the queue is not empty");
            now = at;
            acc = acc.wrapping_add(u64::from(id));
        }
        let slot = (x >> 24) as usize & mask;
        table[slot] = table[slot].wrapping_mul(31).wrapping_add(acc);
        if i % 8 == 0 {
            scratch.push(vec![x; 6]);
            if scratch.len() == 64 {
                acc ^= scratch.iter().map(|v| v[5]).fold(0, u64::wrapping_add);
                scratch.clear();
            }
        }
    }
    acc ^ table[acc as usize & mask]
}

/// Wall milliseconds of one reference loop. An untimed loop runs first,
/// so the timed one finds its table in cache and its allocations on the
/// allocator's free lists whatever the program did just before: what
/// the program leaves in the caches must not move the reference.
pub fn time_reference(seed: u64) -> f64 {
    std::hint::black_box(reference_loop(std::hint::black_box(seed)));
    let t = Instant::now();
    std::hint::black_box(reference_loop(std::hint::black_box(seed)));
    t.elapsed().as_secs_f64() * 1e3
}

/// [`time_reference`] on the calling thread's CPU clock, for work that
/// is itself timed on that clock.
pub fn cpu_time_reference(seed: u64) -> f64 {
    std::hint::black_box(reference_loop(std::hint::black_box(seed)));
    let t = thread_cpu_ms();
    std::hint::black_box(reference_loop(std::hint::black_box(seed)));
    thread_cpu_ms() - t
}

/// Milliseconds of one reference loop on each of `threads` threads at
/// once, averaged: the speed a multi-threaded campaign sees.
pub fn time_reference_on(threads: usize, seed: u64) -> f64 {
    if threads <= 1 {
        return time_reference(seed);
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| s.spawn(move || time_reference(seed ^ t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_loop_is_deterministic() {
        assert_eq!(reference_loop(7), reference_loop(7));
        assert_ne!(reference_loop(7), reference_loop(8));
        assert!(time_reference_on(2, 1) > 0.0);
        assert!(cpu_time_reference(1) > 0.0);
    }
}
