//! Property-style robustness tests for the framing layer under
//! injected wire faults: truncations at *every* byte offset, 1-byte
//! chunked delivery, oversized prefixes, and seeded bit flips must all
//! land in typed [`FrameError`]s (or a changed payload the next layer
//! rejects) — never a panic, never an unbounded allocation. Seeded
//! loops instead of a proptest dependency, per house style.

use simcore::splitmix64;
use wire::chaos::{ChaosPlan, ChaosStream};
use wire::framing::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};

fn frame_for(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).unwrap();
    buf
}

/// Truncating the byte stream at every possible offset yields a typed
/// error — `Closed` only at offset 0 (a clean close between frames),
/// an i/o error anywhere inside the frame — and `Ok` only for the
/// complete frame.
#[test]
fn truncation_at_every_offset_is_typed() {
    for payload_len in [0usize, 1, 3, 64, 1000] {
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let frame = frame_for(&payload);
        for cut in 0..=frame.len() {
            let mut r = &frame[..cut];
            match read_frame(&mut r) {
                Ok(p) => {
                    assert_eq!(cut, frame.len(), "only a complete frame parses");
                    assert_eq!(p, payload);
                }
                Err(FrameError::Closed) => {
                    assert_eq!(cut, 0, "Closed only before the first prefix byte")
                }
                Err(FrameError::Io(_)) => {
                    assert!(
                        cut > 0 && cut < frame.len(),
                        "torn at {cut}/{}",
                        frame.len()
                    )
                }
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
    }
}

/// Seeded fuzz loop: random payloads, random cut offsets, delivered in
/// random small chunks through a [`ChaosStream`]. Typed errors or the
/// exact payload — nothing else, and no panics.
#[test]
fn seeded_torn_frames_never_panic() {
    let mut rng = 0xD15EA5E;
    for round in 0..200u64 {
        rng = splitmix64(rng ^ round);
        let payload_len = (rng % 2048) as usize;
        let payload: Vec<u8> = (0..payload_len)
            .map(|i| (i as u8).wrapping_mul(31))
            .collect();
        let frame = frame_for(&payload);
        rng = splitmix64(rng);
        let cut = (rng % (frame.len() as u64 + 1)) as usize;
        rng = splitmix64(rng);
        let chunk = 1 + (rng % 13) as usize;
        let mut r = ChaosStream::new(
            &frame[..cut],
            ChaosPlan {
                max_chunk: Some(chunk),
                ..ChaosPlan::default()
            },
        );
        match read_frame(&mut r) {
            Ok(p) => assert_eq!(p, payload),
            Err(FrameError::Closed) => assert_eq!(cut, 0),
            Err(FrameError::Io(_)) => assert!(cut < frame.len()),
            Err(e) => panic!("round {round}: unexpected {e}"),
        }
    }
}

/// One-byte chunks are the worst legal transport; frames round-trip
/// bit-exactly through them.
#[test]
fn one_byte_chunks_round_trip() {
    let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    let mut wire_bytes = Vec::new();
    {
        let mut w = ChaosStream::new(
            &mut wire_bytes,
            ChaosPlan {
                max_chunk: Some(1),
                ..ChaosPlan::default()
            },
        );
        write_frame(&mut w, &payload).unwrap();
    }
    let mut r = ChaosStream::new(
        &wire_bytes[..],
        ChaosPlan {
            max_chunk: Some(1),
            ..ChaosPlan::default()
        },
    );
    assert_eq!(read_frame(&mut r).unwrap(), payload);
}

/// Length prefixes beyond the cap are rejected *before* any allocation,
/// whatever follows them on the wire.
#[test]
fn oversized_prefixes_are_rejected_without_allocation() {
    let mut rng = 42u64;
    for _ in 0..50 {
        rng = splitmix64(rng);
        let bogus = MAX_FRAME_BYTES as u64 + 1 + rng % (u32::MAX as u64 - MAX_FRAME_BYTES as u64);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(bogus as u32).to_be_bytes());
        buf.extend_from_slice(b"garbage that must never be read");
        let mut r = &buf[..];
        assert!(
            matches!(read_frame(&mut r), Err(FrameError::TooLarge(n)) if n == bogus as usize),
            "prefix {bogus} must be TooLarge"
        );
    }
}

/// A bit flip anywhere in the stream leaves read_frame with exactly
/// three allowed behaviours: a changed payload (caller's parser
/// rejects it), a typed TooLarge (flip in the prefix's high bytes), or
/// a typed i/o error (prefix now promises more bytes than arrive).
/// Never a panic, never a hang, never an over-allocation.
#[test]
fn bit_flips_anywhere_stay_typed() {
    let payload: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();
    let frame = frame_for(&payload);
    for flip in 0..frame.len() as u64 {
        let mut r = ChaosStream::new(
            &frame[..],
            ChaosPlan {
                flip_bit_at_read: Some(flip),
                ..ChaosPlan::default()
            },
        );
        match read_frame(&mut r) {
            // Flip landed in the payload: framing can't know; the JSON
            // layer above rejects it with its own typed error.
            Ok(p) => assert_ne!(p, payload, "flip at {flip} must corrupt something"),
            // Flip landed in the prefix: either the stream now ends
            // early (Io) or the length went past the cap (TooLarge).
            Err(FrameError::Io(_)) | Err(FrameError::TooLarge(_)) => assert!(flip < 4),
            Err(e) => panic!("flip at {flip}: unexpected {e}"),
        }
    }
}

/// The daemon-side pairing: a payload torn by a seeded *write-side*
/// reset arrives as a typed i/o error on the reader, for every cut the
/// seed schedule produces.
#[test]
fn seeded_write_resets_surface_as_torn_reads() {
    for seed in 0..40u64 {
        let plan = ChaosPlan::seeded_reset(seed, 5, 200);
        let payload = vec![0xC3u8; 400];
        let mut wire_bytes = Vec::new();
        let err = {
            let mut w = ChaosStream::new(&mut wire_bytes, plan);
            write_frame(&mut w, &payload).unwrap_err()
        };
        assert!(
            matches!(err, FrameError::Io(ref e)
                if e.kind() == std::io::ErrorKind::ConnectionReset),
            "seed {seed}: writer must see the reset"
        );
        let mut r = &wire_bytes[..];
        match read_frame(&mut r) {
            Err(FrameError::Io(_)) => {}
            Err(FrameError::Closed) => assert!(wire_bytes.is_empty()),
            other => panic!("seed {seed}: reader saw {other:?} for a torn frame"),
        }
    }
}
