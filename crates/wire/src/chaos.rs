//! Deterministic wire-level fault injection for the control plane.
//!
//! [`ChaosStream`] wraps any `Read + Write` transport (a `TcpStream`,
//! an in-memory buffer, a test double) and injects the failure modes a
//! real fleet link produces, on a schedule derived purely from a seed:
//!
//! * **connection resets** at exact byte offsets, on the read and/or
//!   write side — the peer sees a torn frame, not a clean close;
//! * **partial reads and writes** — every call transfers at most a
//!   small chunk, so framing code that assumes one `read` returns one
//!   frame breaks immediately;
//! * **stalls** — a fixed pause every N bytes, for exercising the
//!   daemon's ingest read/write timeouts;
//! * **bit flips** at a chosen read offset, for checking that parsers
//!   fail with typed errors instead of panicking.
//!
//! The same wrapper serves both ends of the push protocol: a shard can
//! wrap its client socket, and a test daemon can wrap an accepted
//! connection. Faults are a pure function of the [`ChaosPlan`], never
//! of wall-clock time, so a chaos soak that passes once passes always.

use std::io::{Read, Write};
use std::time::Duration;

use simcore::splitmix64;

/// A deterministic fault schedule for one [`ChaosStream`].
///
/// Every field is optional; [`ChaosPlan::none`] passes bytes through
/// untouched. [`ChaosPlan::seeded_reset`] derives a reset-focused plan from a
/// seed, so a soak can give every connection a different (but
/// reproducible) failure point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Fail reads with `ConnectionReset` once this many bytes have
    /// been read.
    pub reset_read_after: Option<u64>,
    /// Fail writes with `ConnectionReset` once this many bytes have
    /// been written. Bytes up to the cutoff are still written first, so
    /// the peer receives a *torn* message, not none at all.
    pub reset_write_after: Option<u64>,
    /// Transfer at most this many bytes per read/write call (partial
    /// I/O; exercises short-read handling).
    pub max_chunk: Option<usize>,
    /// Sleep for the given duration every time this many cumulative
    /// bytes (read + written) cross a multiple boundary.
    pub stall_every: Option<(u64, Duration)>,
    /// XOR the byte at this read offset with `0x01` (a single bit
    /// flip; exercises typed parse failures).
    pub flip_bit_at_read: Option<u64>,
}

impl ChaosPlan {
    /// The no-op plan: every byte passes through untouched.
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// A reset-focused plan derived from `seed`: the write side dies
    /// with `ConnectionReset` somewhere in `min_bytes..min_bytes+spread`
    /// and writes land in small chunks, so the cut lands mid-frame.
    /// Same seed, same plan.
    pub fn seeded_reset(seed: u64, min_bytes: u64, spread: u64) -> ChaosPlan {
        let r = splitmix64(seed);
        ChaosPlan {
            reset_write_after: Some(min_bytes + r % spread.max(1)),
            max_chunk: Some(64 + (splitmix64(r) % 193) as usize),
            ..ChaosPlan::default()
        }
    }
}

/// A `Read + Write` wrapper that injects the faults its [`ChaosPlan`]
/// schedules. See the module docs for the failure modes.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    plan: ChaosPlan,
    bytes_read: u64,
    bytes_written: u64,
}

impl<S> ChaosStream<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: ChaosPlan) -> ChaosStream<S> {
        ChaosStream {
            inner,
            plan,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Bytes successfully read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes successfully written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn stall(&self, before: u64, transferred: u64) {
        if let Some((every, dur)) = self.plan.stall_every {
            if every > 0 && before / every != (before + transferred) / every {
                std::thread::sleep(dur);
            }
        }
    }
}

fn reset() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::ConnectionReset,
        "chaos: connection reset by plan",
    )
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(cut) = self.plan.reset_read_after {
            if self.bytes_read >= cut {
                return Err(reset());
            }
        }
        let mut limit = buf.len();
        if let Some(chunk) = self.plan.max_chunk {
            limit = limit.min(chunk.max(1));
        }
        if let Some(cut) = self.plan.reset_read_after {
            // Deliver the bytes before the cut, then reset on the next
            // call — a torn message, exactly like a mid-frame RST.
            limit = limit.min((cut - self.bytes_read) as usize);
        }
        let n = self.inner.read(&mut buf[..limit])?;
        if let Some(flip) = self.plan.flip_bit_at_read {
            if flip >= self.bytes_read && flip < self.bytes_read + n as u64 {
                buf[(flip - self.bytes_read) as usize] ^= 0x01;
            }
        }
        let before = self.bytes_read + self.bytes_written;
        self.bytes_read += n as u64;
        self.stall(before, n as u64);
        Ok(n)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(cut) = self.plan.reset_write_after {
            if self.bytes_written >= cut {
                return Err(reset());
            }
        }
        let mut limit = buf.len();
        if let Some(chunk) = self.plan.max_chunk {
            limit = limit.min(chunk.max(1));
        }
        if let Some(cut) = self.plan.reset_write_after {
            limit = limit.min((cut - self.bytes_written) as usize);
            if limit == 0 && !buf.is_empty() {
                return Err(reset());
            }
        }
        let n = self.inner.write(&buf[..limit])?;
        let before = self.bytes_read + self.bytes_written;
        self.bytes_written += n as u64;
        self.stall(before, n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{read_frame, write_frame, FrameError};

    #[test]
    fn none_plan_passes_bytes_through() {
        let mut buf = Vec::new();
        {
            let mut s = ChaosStream::new(&mut buf, ChaosPlan::none());
            write_frame(&mut s, b"hello world").unwrap();
            assert_eq!(s.bytes_written(), 4 + 11);
        }
        let mut r = ChaosStream::new(&buf[..], ChaosPlan::none());
        assert_eq!(read_frame(&mut r).unwrap(), b"hello world");
    }

    #[test]
    fn partial_io_still_round_trips_frames() {
        let payload = vec![0x5A; 1000];
        let mut buf = Vec::new();
        {
            let mut s = ChaosStream::new(
                &mut buf,
                ChaosPlan {
                    max_chunk: Some(3),
                    ..ChaosPlan::default()
                },
            );
            write_frame(&mut s, &payload).unwrap();
        }
        let mut r = ChaosStream::new(
            &buf[..],
            ChaosPlan {
                max_chunk: Some(7),
                ..ChaosPlan::default()
            },
        );
        assert_eq!(read_frame(&mut r).unwrap(), payload);
    }

    #[test]
    fn write_reset_tears_the_frame_at_the_exact_offset() {
        let mut buf = Vec::new();
        let err = {
            let mut s = ChaosStream::new(
                &mut buf,
                ChaosPlan {
                    reset_write_after: Some(10),
                    ..ChaosPlan::default()
                },
            );
            write_frame(&mut s, &[0xAB; 100]).unwrap_err()
        };
        assert!(matches!(err, FrameError::Io(ref e)
            if e.kind() == std::io::ErrorKind::ConnectionReset));
        // 4-byte prefix + 6 payload bytes made it out: a torn frame.
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn read_reset_after_prefix_is_a_torn_frame_not_a_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1u8; 50]).unwrap();
        let mut r = ChaosStream::new(
            &buf[..],
            ChaosPlan {
                reset_read_after: Some(20),
                ..ChaosPlan::default()
            },
        );
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn bit_flip_lands_on_the_scheduled_byte() {
        let data = [0u8; 16];
        let mut out = vec![0u8; 16];
        let mut r = ChaosStream::new(
            &data[..],
            ChaosPlan {
                flip_bit_at_read: Some(5),
                max_chunk: Some(2), // flip must survive chunked reads
                ..ChaosPlan::default()
            },
        );
        r.read_exact(&mut out).unwrap();
        let expect: Vec<u8> = (0..16u8).map(|i| if i == 5 { 1 } else { 0 }).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_vary_by_seed() {
        let a = ChaosPlan::seeded_reset(7, 100, 1000);
        let b = ChaosPlan::seeded_reset(7, 100, 1000);
        let c = ChaosPlan::seeded_reset(8, 100, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let cut = a.reset_write_after.unwrap();
        assert!((100..1100).contains(&cut));
    }
}
