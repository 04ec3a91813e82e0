//! Length-prefixed binary framing over zero-copy byte chunks.
//!
//! Frames are `u32` big-endian length followed by the payload. The decoder
//! is an incremental state machine: feed it arbitrary byte chunks, pull
//! complete frames out. This is the role KryoNet's framing plays in the
//! paper's Java prototype.
//!
//! Buffering is a deque of shared [`Bytes`] chunks rather than one
//! contiguous buffer: [`FrameDecoder::feed_bytes`] takes ownership of a
//! chunk without copying, and a frame that lies wholly inside one chunk is
//! returned as a [`Bytes::slice`] window of it — the common case for the
//! TCP reactor (§12), which reads many coalesced frames per syscall into
//! one chunk and hands each out as a view. Only frames spanning a chunk
//! boundary are reassembled by copying.

use crate::transport::NetError;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::VecDeque;

/// Maximum payload size of one frame (64 MiB). Larger application payloads
/// must be chunked (the shim layers chunk partial results anyway).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Append one frame (length prefix + payload) to `dst`.
pub fn encode_frame(payload: &[u8], dst: &mut BytesMut) -> Result<(), NetError> {
    if payload.len() > MAX_FRAME {
        return Err(NetError::FrameTooLarge(payload.len()));
    }
    dst.reserve(4 + payload.len());
    dst.put_u32(payload.len() as u32);
    dst.put_slice(payload);
    Ok(())
}

/// Incremental frame decoder over shared byte chunks.
#[derive(Debug)]
pub struct FrameDecoder {
    chunks: VecDeque<Bytes>,
    buffered: usize,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::with_max(MAX_FRAME)
    }
}

impl FrameDecoder {
    /// Create an empty decoder enforcing [`MAX_FRAME`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty decoder with a custom frame-size limit. The TCP
    /// reactor uses this to grant its mux records a few bytes of header
    /// headroom above the application's [`MAX_FRAME`] payload bound.
    pub fn with_max(max_frame: usize) -> Self {
        Self {
            chunks: VecDeque::new(),
            buffered: 0,
            max_frame,
        }
    }

    /// Append raw bytes received from the wire (copies once into a fresh
    /// chunk; prefer [`FrameDecoder::feed_bytes`] when a [`Bytes`] is
    /// already at hand).
    pub fn feed(&mut self, data: &[u8]) {
        if !data.is_empty() {
            self.feed_bytes(Bytes::copy_from_slice(data));
        }
    }

    /// Append an owned chunk without copying.
    pub fn feed_bytes(&mut self, data: Bytes) {
        if !data.is_empty() {
            self.buffered += data.len();
            self.chunks.push_back(data);
        }
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending(&self) -> usize {
        self.buffered
    }

    /// Pop the next complete frame, if any.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, NetError> {
        if self.buffered < 4 {
            return Ok(None);
        }
        let mut hdr = [0u8; 4];
        self.peek(&mut hdr);
        let len = u32::from_be_bytes(hdr) as usize;
        if len > self.max_frame {
            return Err(NetError::FrameTooLarge(len));
        }
        // The guard `discard` and `take` rely on: with `buffered` the sum
        // of `chunks` (private, kept by `feed_bytes` and those two), the
        // bytes they walk are present, so no length a peer writes reaches
        // their `expect`s.
        if self.buffered < 4 + len {
            return Ok(None);
        }
        self.discard(4);
        Ok(Some(self.take(len)))
    }

    /// Copy the first `out.len()` buffered bytes into `out` without
    /// consuming them. Caller guarantees enough bytes are buffered.
    fn peek(&self, out: &mut [u8]) {
        let mut filled = 0;
        for chunk in &self.chunks {
            if filled == out.len() {
                break;
            }
            let n = (out.len() - filled).min(chunk.len());
            out[filled..filled + n].copy_from_slice(&chunk[..n]);
            filled += n;
        }
        debug_assert_eq!(filled, out.len());
    }

    /// Drop `n` buffered bytes. Caller guarantees they are present.
    fn discard(&mut self, mut n: usize) {
        self.buffered -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("discard past buffer");
            if front.len() > n {
                let _ = front.split_to(n);
                return;
            }
            n -= front.len();
            self.chunks.pop_front();
        }
    }

    /// Consume `n` buffered bytes as one frame. Zero-copy when the frame
    /// lies inside the front chunk; reassembled otherwise.
    fn take(&mut self, n: usize) -> Bytes {
        if n == 0 {
            return Bytes::new();
        }
        self.buffered -= n;
        let front = self.chunks.front_mut().expect("take past buffer");
        if front.len() >= n {
            let out = front.split_to(n);
            if front.is_empty() {
                self.chunks.pop_front();
            }
            return out;
        }
        // Spans chunks: reassemble by copying.
        let mut buf = BytesMut::with_capacity(n);
        let mut need = n;
        while need > 0 {
            let front = self.chunks.front_mut().expect("take past buffer");
            if front.len() > need {
                buf.extend_from_slice(&front.split_to(need));
                need = 0;
            } else {
                need -= front.len();
                buf.extend_from_slice(front);
                self.chunks.pop_front();
            }
        }
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = BytesMut::new();
        encode_frame(b"hello", &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"hello");
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn handles_fragmented_input() {
        let mut buf = BytesMut::new();
        encode_frame(b"fragmented-payload", &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time.
        for b in buf.iter() {
            dec.feed(&[*b]);
        }
        assert_eq!(
            dec.next_frame().unwrap().unwrap().as_ref(),
            b"fragmented-payload"
        );
    }

    #[test]
    fn handles_coalesced_frames() {
        let mut buf = BytesMut::new();
        for i in 0..10u8 {
            encode_frame(&[i; 3], &mut buf).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        for i in 0..10u8 {
            assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), &[i; 3]);
        }
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn empty_frame_roundtrips() {
        let mut buf = BytesMut::new();
        encode_frame(b"", &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_frame().unwrap().unwrap().len(), 0);
    }

    #[test]
    fn oversized_frame_is_rejected_on_encode() {
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut buf = BytesMut::new();
        assert!(matches!(
            encode_frame(&huge, &mut buf),
            Err(NetError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_on_decode() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(NetError::FrameTooLarge(_))));
    }

    #[test]
    fn custom_limit_grants_header_headroom() {
        let mut dec = FrameDecoder::with_max(MAX_FRAME + 16);
        dec.feed(&(MAX_FRAME as u32 + 16).to_be_bytes());
        // Within the raised limit: incomplete, not an error.
        assert!(dec.next_frame().unwrap().is_none());
        let mut dec = FrameDecoder::with_max(MAX_FRAME + 16);
        dec.feed(&(MAX_FRAME as u32 + 17).to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(NetError::FrameTooLarge(_))));
    }

    #[test]
    fn frame_within_one_chunk_shares_the_allocation() {
        // Two frames coalesced into one fed chunk: both must come back as
        // windows of that chunk (zero-copy), which the shim Bytes exposes
        // as pointer-equal backing slices.
        let mut buf = BytesMut::new();
        encode_frame(b"first", &mut buf).unwrap();
        encode_frame(b"second", &mut buf).unwrap();
        let chunk = buf.freeze();
        let backing = chunk.as_ref().as_ptr() as usize;
        let mut dec = FrameDecoder::new();
        dec.feed_bytes(chunk);
        let f1 = dec.next_frame().unwrap().unwrap();
        let f2 = dec.next_frame().unwrap().unwrap();
        assert_eq!(f1.as_ref(), b"first");
        assert_eq!(f2.as_ref(), b"second");
        let inside = |b: &Bytes| {
            let p = b.as_ref().as_ptr() as usize;
            p >= backing && p < backing + 4 + 5 + 4 + 6
        };
        assert!(
            inside(&f1) && inside(&f2),
            "frames must share the fed chunk"
        );
    }

    #[test]
    fn frame_spanning_chunks_reassembles() {
        let mut buf = BytesMut::new();
        let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        encode_frame(&payload, &mut buf).unwrap();
        let whole = buf.freeze();
        let mut dec = FrameDecoder::new();
        // Split mid-payload into three owned chunks.
        dec.feed_bytes(whole.slice(..300));
        dec.feed_bytes(whole.slice(300..700));
        assert!(dec.next_frame().unwrap().is_none());
        dec.feed_bytes(whole.slice(700..));
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), &payload[..]);
        assert_eq!(dec.pending(), 0);
    }
}
